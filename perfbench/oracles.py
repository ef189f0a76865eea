"""Independent checks of every workload's outputs, run after the timed region.

Each check returns ``(name, ok, detail)``.  The oracles are benchmark-side
re-computations (mpmath, numpy, scipy) from the generated inputs; the only
program functions used are ``noisy_ring`` (to regenerate an input) and
``load_checkpoint``/``save_checkpoint`` (whose round trip is itself checked).
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

import workloads as wl


def _csv(path: Path):
    """(header, float table) of a CSV written by the program."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, table


def _embedding(path: Path):
    header, table = _csv(path)
    if header[-1] == "label":
        return table[:, :-1], table[:, -1].astype(np.int64)
    return table, None


def _close(a, b, rel):
    a, b = np.asarray(a, float), np.asarray(b, float)
    scale = max(float(np.max(np.abs(b), initial=0.0)), 1e-300)
    err = float(np.max(np.abs(a - b), initial=0.0)) / scale
    return a.shape == b.shape and err <= rel, f"rel err {err:.2e} (tol {rel:g})"


def big_n(dim: int, mu: float) -> float:
    """The N(d, mu) rule, restated from the paper."""
    return 2.0 * dim * (1.0 + 1.0 / (2.0 * mu * (dim - 1))) / (2.0 * mu - 1.0)


# -- theory -------------------------------------------------------------------


def stationarity_integral_mp(rho: float, dim: int, n: float):
    """Closed form of the stationarity integral at 40 digits (Euler, then Pfaff).

    I = 2/sqrt(pi) * G(d/2)/G((d-1)/2) * 2^(d-1) * B(p+1, q+1)
        * 2F1(1, p+1; d; z),  z = -2/a,  a = N/(2 rho^2),
    with p = (d-1)/2, q = (d-3)/2.  Pfaff's transform evaluates the 2F1 at
    z/(z-1) in (0, 1), where mpmath is well conditioned.
    """
    import mpmath as mp

    with mp.workdps(40):
        a = mp.mpf(n) / (2 * mp.mpf(rho) ** 2)
        p = mp.mpf(dim - 1) / 2
        q = mp.mpf(dim - 3) / 2
        z = -2 / a
        hyp = mp.hyp2f1(1, q + 1, dim, z / (z - 1)) / (1 - z)
        pref = 2 / mp.sqrt(mp.pi) * mp.gamma(mp.mpf(dim) / 2) / mp.gamma(mp.mpf(dim - 1) / 2)
        return pref * mp.mpf(2) ** (dim - 1) * mp.beta(p + 1, q + 1) * hyp


def check_theory(plan, out: Path):
    checks = []
    worst = 0.0
    bad = []
    for i, (dim, mu) in enumerate(plan.data["grid"]):
        rec = json.loads((out / f"solve/{i:02d}/radius.json").read_text())
        same_n = math.isclose(rec["big_n"], big_n(dim, mu), rel_tol=1e-14)
        err = abs(float(stationarity_integral_mp(rec["rho"], dim, rec["big_n"])) - 1.0 / mu)
        worst = max(worst, err)
        if not (same_n and rec["dim"] == dim and err <= 1e-9):
            bad.append((dim, round(mu, 4), float(err)))
    checks.append(("theory.stationarity_mpmath", not bad,
                   f"{len(plan.data['grid'])} radii, max |I(rho) - 1/mu| = {worst:.2e}"
                   f" (tol 1e-9); failing {bad[:3]}"))
    _, rows = _csv(out / "sweep/sweep.csv")
    got = {int(d): float(v) for d, v in rows}
    ok = (sorted(got) == sorted(wl.SWEEP_THRESHOLDS)
          and all(0.0 <= got[d] < thr for d, thr in wl.SWEEP_THRESHOLDS.items()))
    checks.append(("theory.sweep_thresholds", ok, f"max % deviation {got}"))
    return checks


# -- flow ---------------------------------------------------------------------


def gram_loss(z: np.ndarray, mu: float, n: float) -> float:
    """The pair loss through the Gram expansion (as kernel.batch_loss_gram)."""
    b = z.shape[0]
    xx = np.sum(z * z, axis=1)
    sq = np.maximum(xx[:, None] + xx[None, :] - 2.0 * (z @ z.T), 0.0)
    rep = mu * n * float(np.sum(np.log1p(sq / n))) / (b - 1)
    return (float(np.sum(xx)) - rep) / b


def check_flow(plan, out: Path):
    checks = []
    n = big_n(wl.FLOW_DIM, 1.0)
    for count in wl.FLOW_SIZES:
        d = out / f"b{count}"
        _, trace = _csv(d / "loss_trace.csv")
        loss = trace[:, 1]
        finite = bool(np.all(np.isfinite(loss)))
        monotone = bool(np.all(np.diff(loss) <= 1e-12 * np.abs(loss[:-1])))
        checks.append((f"flow.b{count}.trace", finite and monotone,
                       f"{loss.size} records, finite={finite}, non-increasing={monotone}"))
        z, _ = _embedding(d / "points.csv")
        ok, detail = _close(loss[-1], gram_loss(z, 1.0, n), 1e-10)
        ok = ok and z.shape == (count, wl.FLOW_DIM)
        checks.append((f"flow.b{count}.final_loss_gram", ok, detail))
        rep = json.loads((d / "simulate.json").read_text())
        cov = np.cov(z, rowvar=False)
        ok, detail = _close(rep["eigenvalues"], np.linalg.eigvalsh(cov)[::-1], 1e-9)
        ok = ok and math.isclose(rep["trace"], float(np.trace(cov)), rel_tol=1e-9)
        checks.append((f"flow.b{count}.eigenvalues", ok, detail))
        norms = np.linalg.norm(z, axis=1)
        ok = (math.isclose(rep["radial_mean"], float(norms.mean()), rel_tol=1e-12)
              and math.isclose(rep["radial_std"], float(norms.std()), rel_tol=1e-9))
        checks.append((f"flow.b{count}.radial_stats", ok,
                       f"mean {rep['radial_mean']:.6f} vs sqrt(d) {math.sqrt(wl.FLOW_DIM):.6f}"))
    return checks


# -- train --------------------------------------------------------------------


def parse_checkpoint(buf: bytes):
    """Benchmark-side reader of the flat checkpoint layout."""
    if buf[:4] != b"EAE1":
        raise ValueError("bad magic")
    (count,) = struct.unpack("<I", buf[4:8])
    widths = struct.unpack(f"<{count}I", buf[8:8 + 4 * count])
    off = 8 + 4 * count
    layers = []
    for fi, fo in zip(widths[:-1], widths[1:]):
        w = np.frombuffer(buf, "<f8", fi * fo, off).reshape(fi, fo)
        off += 8 * fi * fo
        layers.append((w, np.frombuffer(buf, "<f8", fo, off)))
        off += 8 * fo
    if off != len(buf):
        raise ValueError("trailing bytes")
    return widths, layers


def forward(layers, x, last):
    for i, (w, b) in enumerate(layers):
        x = x @ w + b
        if i < len(layers) - 1:
            x = np.where(x > 0.0, x, 0.1 * x)
        elif last == "sigmoid":
            x = 1.0 / (1.0 + np.exp(-x))
    return x


def check_train(plan, out: Path):
    from eccentric import autoencoder, datasets

    checks = []
    hidden = tuple(int(v) for v in wl.HIDDEN.split(","))
    ring = datasets.noisy_ring(n=wl.RING_ITEMS, seed=plan.data["data_seed"])
    images = plan.data["images"].reshape(wl.IDX_ITEMS, -1).astype(np.float64) / 255.0
    cases = {"ring": (ring.data, ring.labels, 2),
             "idx": (images, plan.data["labels"], wl.IDX_LATENT)}
    for tag, (x, labels, latent) in cases.items():
        d = out / tag
        _, tr = _csv(d / "traces.csv")
        recon, reg = tr[:, 1], tr[:, 2]
        ok = bool(np.all(np.isfinite(recon)) and np.all(np.isfinite(reg))
                  and recon[-1] < recon[0])
        checks.append((f"train.{tag}.traces", ok,
                       f"recon {recon[0]:.4g} -> {recon[-1]:.4g} over {recon.size} epochs"))

        nets = {}
        for part, widths, acts in (
                ("encoder", (x.shape[1], *hidden, latent), "identity"),
                ("decoder", (latent, *hidden, x.shape[1]), "sigmoid")):
            path = d / f"{part}.bin"
            buf = path.read_bytes()
            got_widths, layers = parse_checkpoint(buf)
            spec = autoencoder.DenseNetSpec(
                widths, ("leaky-relu",) * len(hidden) + (acts,))
            net = autoencoder.load_checkpoint(path, spec)
            again = path.with_name(f"{part}.roundtrip")
            autoencoder.save_checkpoint(net, again)
            same = again.read_bytes() == buf
            again.unlink()
            equal = all(np.array_equal(w, nw) and np.array_equal(b, nb)
                        for (w, b), nw, nb in zip(layers, net.weights, net.biases))
            checks.append((f"train.{tag}.{part}_checkpoint",
                           same and equal and got_widths == widths,
                           f"widths {got_widths}, round trip identical={same}"))
            nets[part] = layers

        emb, emb_labels = _embedding(d / "embedding.csv")
        ok, detail = _close(emb, forward(nets["encoder"], x, "identity"), 1e-12)
        ok = ok and np.array_equal(emb_labels, labels)
        same = (out / f"{tag}-encode/embedding.csv").read_bytes() == (d / "embedding.csv").read_bytes()
        checks.append((f"train.{tag}.reencode", ok and same,
                       f"{detail}; encode output identical={same}"))

        _, comp = _csv(out / f"{tag}-decode/components.csv")
        mean = emb.mean(axis=0)
        evals, evecs = np.linalg.eigh(np.cov(emb, rowvar=False))
        worst = 0.0
        for k, j in enumerate(np.argsort(evals)[::-1]):
            step = math.sqrt(max(evals[j], 0.0)) * evecs[:, j]
            want = forward(nets["decoder"], np.stack([mean + step, mean - step]), "sigmoid")
            got = comp[2 * k:2 * k + 2, 2:]
            # an eigenvector's sign is arbitrary, so plus and minus may swap
            worst = max(worst, min(np.abs(got - want).max(), np.abs(got - want[::-1]).max()))
        ok = comp.shape == (2 * latent, 2 + x.shape[1]) and worst <= 1e-7
        checks.append((f"train.{tag}.decode_components", ok,
                       f"max abs err {worst:.2e} (tol 1e-7)"))
    return checks


# -- analyze ------------------------------------------------------------------


def knn_oracle(train, labels, test, k):
    """Vectorized vote: most votes, then smallest summed distance, then lowest label."""
    dist = cdist(test, train)
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
    near_lab = labels[nearest]
    near_dist = np.take_along_axis(dist, nearest, axis=1)
    classes = np.unique(labels)
    hit = near_lab[:, :, None] == classes[None, None, :]
    votes = hit.sum(axis=1)
    summed = np.where(hit, near_dist[:, :, None], 0.0).sum(axis=1)
    best = votes == votes.max(axis=1, keepdims=True)
    return classes[np.argmin(np.where(best, summed, np.inf), axis=1)]


def _pearson(a, b):
    a = a - a.mean(axis=0)
    b = b - b.mean(axis=0)
    return (a.T @ b) / np.outer(np.linalg.norm(a, axis=0), np.linalg.norm(b, axis=0))


def check_analyze(plan, out: Path):
    data = plan.data
    checks = []
    rep = json.loads((out / "spectrum/spectrum.json").read_text())
    cov = np.cov(data["train"], rowvar=False)
    ok, detail = _close(rep["eigenvalues"], np.linalg.eigvalsh(cov)[::-1], 1e-9)
    ok = ok and _close(rep["mean"], data["train"].mean(axis=0), 1e-12)[0]
    checks.append(("analyze.spectrum_eigvalsh", ok, detail))

    want = knn_oracle(data["train"], data["train_labels"], data["test"], wl.KNN_K)
    _, pred = _csv(out / "knn/predictions.csv")
    report = json.loads((out / "knn/knn.json").read_text())
    agree = int(np.sum(pred[:, 1].astype(np.int64) == want))
    err = float(np.mean(want != data["test_labels"]))
    ok = agree == want.size and math.isclose(report["error_rate"], err, abs_tol=1e-15)
    checks.append(("analyze.knn_vote_oracle", ok,
                   f"{agree}/{want.size} predictions agree; error {report['error_rate']:.4f}"))

    summary = json.loads((out / "align/align.json").read_text())
    p, _ = _embedding(out / "align/aligned_e1.csv")
    q, _ = _embedding(out / "align/aligned_e2.csv")
    dim = data["test"].shape[1]
    perms_ok = all(sorted(summary[key]) == list(range(dim))
                   for key in ("permutation_p", "permutation_q"))
    signs_ok = all(set(summary[key]) <= {-1, 1} for key in ("signs_p", "signs_q"))
    exact = perms_ok and signs_ok and np.array_equal(
        p, data["test"][:, summary["permutation_p"]] * summary["signs_p"]) and np.array_equal(
        q, data["copy"][:, summary["permutation_q"]] * summary["signs_q"])
    corr = _pearson(p, q)
    _, corr_file = _csv(out / "align/corr_after.csv")
    diag = np.diag(corr)
    ok = exact and bool(np.all(diag >= 0.0)) and _close(corr_file, corr, 1e-9)[0]
    checks.append(("analyze.align_signed_permutation", ok,
                   f"signed permutations={exact}, min diagonal corr {diag.min():.4f}"))

    m = json.loads((out / "metrics/metrics.json").read_text())
    cos = np.clip(np.sum(p * q, axis=1) / (np.linalg.norm(p, axis=1) * np.linalg.norm(q, axis=1)),
                  -1.0, 1.0)
    want_m = [math.sqrt(float(np.mean(np.sum((p - q) ** 2, axis=1)))), float(np.mean(cos)),
              float(np.mean(np.degrees(np.arccos(cos))))]
    ok, detail = _close([m["rms_distance"], m["mean_cosine"], m["mean_angle_deg"]], want_m, 1e-9)
    checks.append(("analyze.similarity_metrics", ok, detail))

    s, _ = _embedding(out / "sample/sample.csv")
    ref = data["ref"]
    c_ref = np.cov(ref, rowvar=False)
    n = s.shape[0]
    z = np.abs(s.mean(axis=0) - ref.mean(axis=0)) / np.sqrt(np.diag(c_ref) / n)
    frob = np.linalg.norm(np.cov(s, rowvar=False) - c_ref) / np.linalg.norm(c_ref)
    # Wishart: E|C_n - C|_F^2 ~ (tr(C)^2 + |C|_F^2) / n
    expect = math.sqrt((np.trace(c_ref) ** 2 + np.sum(c_ref ** 2)) / n) / np.linalg.norm(c_ref)
    ok = s.shape == (wl.SAMPLE_N, wl.REF_DIM) and z.max() < 5.5 and frob < 2.0 * expect
    checks.append(("analyze.sample_moments", ok,
                   f"max mean z {z.max():.2f} (< 5.5), cov rel err {frob:.3f} "
                   f"(< 2 x expected {expect:.3f})"))
    return checks


CHECKS = {"theory": check_theory, "flow": check_flow, "train": check_train,
          "analyze": check_analyze}
