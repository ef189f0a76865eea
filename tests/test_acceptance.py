"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The whole suite targets a single CPU core.
"""

import json
import math

import numpy as np

from eccentric.analysis import align, cross_correlation
from eccentric.autoencoder import (
    DenseNet,
    DenseNetSpec,
    TrainConfig,
    total_loss_gradients,
    train,
)
from eccentric.cli import run as cli_run
from eccentric.datasets import noisy_ring
from eccentric.kernel import (
    ParamSet,
    PointBatch,
    batch_loss,
    batch_loss_and_gradient,
    choose_big_n,
)
from kernel_oracles import (
    batch_loss_gram,
    best_diagonal_mass,
    descending_embedding,
    fd_gradient,
    fd_net_gradient,
    lemma_a_check,
    lemma_b_argmax,
    lemma_b_argmax_numeric,
    params_for,
)
from eccentric.particles import SimConfig, simulate
from eccentric.radius import force_profile, sweep_radius


def report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_radius_sweep_thresholds():
    """Max deviation of the stationary radius from sqrt(d) shrinks with d."""
    thresholds = {12: 0.1, 38: 0.01, 117: 0.001}
    rows = dict(sweep_radius(sorted(thresholds), mu_step=0.25))
    ok = all(rows[d] < thr for d, thr in thresholds.items())
    detail = ", ".join(f"d={d}: {rows[d]:.5f}% < {thr}%" for d, thr in
                       sorted(thresholds.items()))
    report(1, ok, detail)


def test_criterion_02_softening_scale_golden_values():
    """choose_big_n reproduces the published (d, mu) -> N values."""
    cases = [(2, 1.0, 6.0, 1e-12), (2, 2.5, 1.2, 1e-12),
             (64, 1.0, 129.02, 5e-3), (64, 16.5, 4.00, 5e-3),
             (64, 64.5, 1.00, 5e-3)]
    errs = [abs(choose_big_n(d, mu) - want) for d, mu, want, _ in cases]
    ok = all(err <= tol for err, (_, _, _, tol) in zip(errs, cases))
    report(2, ok, f"max abs error {max(errs):.2e} over {len(cases)} golden values")


def test_criterion_03_first_moment_identity():
    """Integral of u * f_{d,a} equals 2 across the (d, a) grid."""
    worst = 0.0
    for d in (3, 4, 5, 8, 16, 64):
        for a in (0.05, 0.5, 1.0, 1.5, 1.95):
            worst = max(worst, abs(lemma_a_check(d, a) - 2.0))
    report(3, worst < 1e-8, f"max |integral - 2| = {worst:.2e} on 30-point grid")


def test_criterion_04_argmax_closed_form():
    """Closed-form argmax of f_{d,a} matches the numeric search."""
    worst = 0.0
    for d in (4, 5, 8, 16, 32, 64):
        for a in (0.1, 0.5, 1.0, 1.5, 1.9):
            worst = max(worst, abs(lemma_b_argmax(d, a)
                                   - lemma_b_argmax_numeric(d, a)))
    report(4, worst < 1e-6, f"max closed-form vs numeric gap {worst:.2e}")


def test_criterion_05_gradient_oracles():
    """Analytic gradients match central finite differences."""
    rng = np.random.default_rng(0)
    worst_kernel = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 9))
        b = int(rng.integers(4, 12))
        mu = float(rng.uniform(1.0, 3.0))
        params = params_for(d, mu)
        z = rng.standard_normal((b, d))
        _, analytic = batch_loss_and_gradient(PointBatch(z), params)
        numeric = fd_gradient(z, params)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
        worst_kernel = max(worst_kernel, float(rel.max()))

    worst_net = 0.0
    for _ in range(20):
        latent = int(rng.integers(2, 4))
        width = int(rng.integers(3, 6))
        hidden = int(rng.integers(3, 7))
        act = ["identity", "leaky-relu", "sigmoid"][int(rng.integers(0, 3))]
        mu = float(rng.uniform(1.0, 2.0))
        params = params_for(latent, mu, lam=float(rng.uniform(0.05, 1.0)))
        enc = DenseNet.initialize(
            DenseNetSpec((width, hidden, latent), (act, "identity")), rng)
        dec = DenseNet.initialize(
            DenseNetSpec((latent, hidden, width), (act, "sigmoid")), rng)
        x = rng.uniform(0.1, 0.9, (8, width))
        _, _, _, analytic = total_loss_gradients(x, enc, dec, params)
        numeric = fd_net_gradient(x, enc, dec, params)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-6)
        worst_net = max(worst_net, float(rel.max()))

    ok = worst_kernel < 1e-6 and worst_net < 1e-5
    report(5, ok, f"kernel rel err {worst_kernel:.2e} < 1e-6, "
                  f"autoencoder rel err {worst_net:.2e} < 1e-5, 20 instances each")


def test_criterion_06_gram_expansion_equivalence():
    """Direct and Gram-expansion loss forms agree on random batches."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 65))
        b = int(rng.integers(2, 40))
        mu = float(rng.uniform(1.0, 4.0))
        params = params_for(d, mu)
        z = rng.standard_normal((b, d)) * rng.uniform(0.5, 3.0)
        direct = batch_loss(PointBatch(z), params)
        gram = batch_loss_gram(PointBatch(z), params)
        worst = max(worst, abs(direct - gram) / max(abs(direct), 1e-12))
    report(6, worst < 1e-10, f"max relative gap {worst:.2e} over 100 batches")


def test_criterion_07_particle_convergence():
    """The free cloud settles on the sqrt(d) sphere with a near-flat spectrum."""
    d, b = 16, 512
    params = params_for(d)
    rep = simulate(SimConfig(params=params, count=b, steps=3000, step_size=0.2,
                             seed=0, init_scale=1.0))
    root_d = math.sqrt(d)
    band = 4.0 * math.sqrt(d / b)
    ev = rep.spectrum.eigenvalues
    mean_ok = abs(rep.radial_mean - root_d) / root_d < 0.01
    trace_ok = abs(rep.spectrum.trace - d) / d < 0.05
    band_ok = bool(np.all(np.abs(ev - 1.0) < band))

    # two antipodal points have a closed-form equilibrium radius
    mu2, n2 = 1.0, 6.0
    p2 = ParamSet(dim=2, mu=mu2, big_n=n2)
    r_star = math.sqrt(n2 * (4 * mu2 - 1)) / 2
    rep2 = simulate(SimConfig(params=p2, count=2, steps=20000, step_size=0.2),
                    init=np.array([[0.01, 0.0], [-0.01, 0.0]]))
    norms = np.linalg.norm(rep2.final_batch.data, axis=1)
    pair_ok = bool(np.all(np.abs(norms - r_star) < 1e-6))

    ok = mean_ok and trace_ok and band_ok and pair_ok
    report(7, ok,
           f"mean {rep.radial_mean:.4f} vs {root_d} (1%), trace "
           f"{rep.spectrum.trace:.3f} vs {d} (5%), eigenvalues "
           f"[{ev.min():.3f},{ev.max():.3f}] in 1+-{band:.3f}, "
           f"antipodal radius err {np.abs(norms - r_star).max():.2e}")


def test_criterion_08_force_peak_location():
    """The repulsion magnitude peaks at distance sqrt(N)."""
    oks, details = [], []
    for mu, big_n in ((1.0, 129.016), (64.5, 1.0)):
        params = ParamSet(dim=2, mu=mu, big_n=big_n)
        root_n = math.sqrt(big_n)
        prof = force_profile(params, r_max=3.0 * root_n, steps=4001)
        step = prof.distances[1] - prof.distances[0]
        peak = prof.distances[int(np.argmax(prof.magnitudes))]
        oks.append(abs(peak - root_n) <= step)
        details.append(f"(mu={mu}, N={big_n}): peak {peak:.4f} vs {root_n:.4f}")
    report(8, all(oks), "; ".join(details) + ", within one grid step")


def test_criterion_09_alignment_recovery():
    """Signed-permutation recovery matches the exhaustive oracle; d=64 improves."""
    rng = np.random.default_rng(2)
    exact_ok = True
    for d in (2, 3, 4, 5):
        for _ in range(3):
            e1 = descending_embedding(rng, 30, d)
            perm = rng.permutation(d)
            signs = rng.choice([-1.0, 1.0], size=d)
            e2 = PointBatch(e1.data[:, perm] * signs)
            # oracle: best diagonal mass over all 2^d d! signed permutations
            best = best_diagonal_mass(cross_correlation(e1, e2))
            res = align(e1, e2)
            achieved = float(np.sum(np.abs(np.diag(res.corr_after))))
            recovered = np.allclose(res.aligned_p.data, res.aligned_q.data,
                                    atol=1e-10)
            exact_ok &= recovered and achieved >= best - 1e-9

    d = 64
    e1 = descending_embedding(rng, 200, d)
    perm = rng.permutation(d)
    signs = rng.choice([-1.0, 1.0], size=d)
    e2 = PointBatch(e1.data[:, perm] * signs
                   + 0.05 * rng.standard_normal((200, d)))
    res = align(e1, e2)
    diag_after = np.diag(res.corr_after)
    mass_before = float(np.sum(np.abs(np.diag(res.corr_before))))
    mass_after = float(np.sum(np.abs(diag_after)))
    big_ok = bool(np.all(diag_after >= 0.0)) and mass_after > mass_before

    ok = exact_ok and big_ok
    report(9, ok, f"d<=5 exact recovery vs exhaustive oracle; d=64 diagonal "
                  f"mass {mass_before:.2f} -> {mass_after:.2f}, all "
                  f"diagonals >= 0")


def _two_ring_run(lam, seed):
    params = params_for(2, lam=lam)
    enc = DenseNetSpec((2, 32, 32, 2), ("leaky-relu", "leaky-relu", "identity"))
    dec = DenseNetSpec((2, 32, 32, 2), ("leaky-relu", "leaky-relu", "sigmoid"))
    cfg = TrainConfig(encoder=enc, decoder=dec, params=params, batch_size=100,
                      epochs=3000, learning_rate=3e-3, seed=seed)
    data = noisy_ring(n=400, seed=3)
    return train(cfg, data)


def test_criterion_10_autoencoder_regularization_contrast():
    """Strong regularization pins latent radii near sqrt(2); weak does not."""
    root2 = math.sqrt(2.0)
    fracs, stds, spectra = [], {}, []
    for seed in (5, 11):
        strong = _two_ring_run(lam=0.1, seed=seed)
        weak = _two_ring_run(lam=0.001, seed=seed)
        radii = np.linalg.norm(strong.embedding.data, axis=1)
        fracs.append(float(np.mean((radii >= 0.7 * root2)
                                   & (radii <= 1.3 * root2))))
        stds[seed] = (float(np.linalg.norm(weak.embedding.data, axis=1).std()),
                      float(radii.std()))
        cov = np.cov(strong.embedding.data, rowvar=False)
        spectra.append(np.sort(np.linalg.eigvalsh(cov)))

    frac_ok = all(f >= 0.95 for f in fracs)
    ratios = [w / s for w, s in stds.values()]
    ratio_ok = all(r >= 2.0 for r in ratios)
    spread = float(np.abs(spectra[0] - spectra[1]).max())
    spectra_ok = spread < 0.15
    ok = frac_ok and ratio_ok and spectra_ok
    report(10, ok,
           f"in-band fractions {[f'{f:.3f}' for f in fracs]} >= 0.95, radial "
           f"std ratios {[f'{r:.2f}' for r in ratios]} >= 2, seed-to-seed "
           f"spectrum gap {spread:.3f} < 0.15")


def test_criterion_11_cli_determinism(tmp_path):
    """Identical CLI runs produce byte-identical outputs."""
    dirs = [tmp_path / "a", tmp_path / "b"]
    argv = ["simulate", "--dim", "4", "--mu", "1.0", "--auto-n", "--count",
            "40", "--steps", "200", "--step-size", "0.1", "--seed", "9"]
    for d in dirs:
        assert cli_run(argv + ["--out-dir", str(d)]) == 0
    names = ["points.csv", "loss_trace.csv", "simulate.json", "manifest.json"]
    same = {n: (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes()
            for n in names}
    manifest = json.loads((dirs[0] / "manifest.json").read_text())
    report(11, all(same.values()) and manifest["command"] == "simulate",
           f"byte-identical re-run across {len(names)} output files")
