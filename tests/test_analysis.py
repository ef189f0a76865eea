import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eccentric import analysis
from eccentric.analysis import (
    align,
    cross_correlation,
    decode_eigen_components,
    knn_classify,
    sample_latents,
    similarity_metrics,
    spectrum,
)
from eccentric.autoencoder import DenseNet, DenseNetSpec
from eccentric.kernel import PointBatch


class TestLibraryEigensolver:
    def test_covariance_that_stalled_jacobi(self):
        # this covariance made the former cyclic Jacobi solver miss its
        # convergence test, run all 100 sweeps and overflow ~1e4 times
        z = np.random.default_rng(2).standard_normal((200, 16))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = spectrum(PointBatch(z))
            sample_latents("matched", PointBatch(z), 50, 16, 0)
        cov = np.cov(z, rowvar=False)
        lam, vec = rep.eigenvalues, rep.eigenvectors
        assert np.linalg.norm(cov @ vec - vec * lam) <= 1e-10 * np.linalg.norm(cov)
        np.testing.assert_allclose(vec.T @ vec, np.eye(16), atol=1e-12)
        assert np.all(np.diff(lam) <= 0.0)


class TestSpectrum:
    def test_hand_example(self):
        # four corners of a square: cov = diag(4/3, 4/3), trace 8/3
        z = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        rep = spectrum(PointBatch(z))
        np.testing.assert_allclose(rep.eigenvalues, [4 / 3, 4 / 3], rtol=1e-14)
        assert rep.trace == pytest.approx(8 / 3, rel=1e-14)
        np.testing.assert_allclose(rep.mean, [0.0, 0.0], atol=1e-15)

    def test_matches_numpy_covariance(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((60, 7))
        rep = spectrum(PointBatch(z))
        ref = np.linalg.eigvalsh(np.cov(z, rowvar=False))[::-1]
        np.testing.assert_allclose(rep.eigenvalues, ref, atol=1e-9)

    def test_descending_order(self):
        rng = np.random.default_rng(5)
        rep = spectrum(PointBatch(rng.standard_normal((30, 6))))
        assert np.all(np.diff(rep.eigenvalues) <= 1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((40, 5))
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        r1 = spectrum(PointBatch(z))
        r2 = spectrum(PointBatch(z @ q))
        np.testing.assert_allclose(r1.eigenvalues, r2.eigenvalues, atol=1e-10)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            spectrum(PointBatch(np.zeros((1, 3))))


class TestPrincipalEmbedding:
    def test_centered_and_decorrelated(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((80, 4)) @ np.diag([3.0, 1.0, 0.5, 0.2])
        rep = spectrum(PointBatch(z))
        emb = (z - rep.mean) @ rep.eigenvectors
        np.testing.assert_allclose(emb.mean(axis=0), 0.0, atol=1e-12)
        cov = np.cov(emb, rowvar=False)
        np.testing.assert_allclose(cov, np.diag(np.diag(cov)), atol=1e-10)
        assert np.all(np.diff(np.diag(cov)) <= 1e-10)

    def test_preserves_pairwise_distances(self):
        # centering plus rotation: all pairwise distances survive
        rng = np.random.default_rng(8)
        z = rng.standard_normal((25, 5))
        rep = spectrum(PointBatch(z))
        emb = (z - rep.mean) @ rep.eigenvectors
        zc = z - z.mean(axis=0)
        from scipy.spatial.distance import pdist
        np.testing.assert_allclose(pdist(emb), pdist(zc), atol=1e-10)


def descending_embedding(rng, n, d):
    """Random embedding with distinct, descending column energies."""
    cols = rng.standard_normal((n, d))
    cols -= cols.mean(axis=0)
    cols /= np.linalg.norm(cols, axis=0)
    return PointBatch(cols * (d - np.arange(d, dtype=np.float64)))


def apply_signed_perm(emb, perm, signs):
    return PointBatch(emb.data[:, perm] * np.asarray(signs, dtype=np.float64))


def noisy_copy_pair(rng, d):
    e1 = descending_embedding(rng, 40, d)
    return e1, PointBatch(e1.data + 0.1 * rng.standard_normal((40, d)))


def independent_pair(rng, d):
    return PointBatch(rng.standard_normal((30, d))), PointBatch(rng.standard_normal((30, d)))


@st.composite
def alignment_pairs(draw):
    """Random, rotated or near-permutation pairs of embeddings, d in [2, 40]."""
    d = draw(st.integers(2, 40))
    n = draw(st.integers(d + 1, 3 * d + 10))
    kind = draw(st.sampled_from(["random", "rotated", "near-permutation"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, d))
    noise = draw(st.floats(0.0, 1.5))
    if kind == "random":
        b = rng.standard_normal((n, d))
    elif kind == "rotated":
        rot, _ = np.linalg.qr(rng.standard_normal((d, d)))
        b = a @ rot + noise * rng.standard_normal((n, d))
    else:
        b = (a[:, rng.permutation(d)] * rng.choice([-1.0, 1.0], size=d)
             + noise * rng.standard_normal((n, d)))
    return PointBatch(a), PointBatch(b)


class TestAlign:
    def test_identity_on_equal_embeddings(self):
        rng = np.random.default_rng(9)
        e = descending_embedding(rng, 30, 4)
        res = align(e, e)
        np.testing.assert_array_equal(res.aligned_q.data, res.aligned_p.data)
        np.testing.assert_array_equal(res.permutation_p, np.arange(4))
        np.testing.assert_array_equal(res.permutation_q, np.arange(4))
        assert np.all(res.signs_p == 1) and np.all(res.signs_q == 1)
        np.testing.assert_allclose(np.diag(res.corr_after), 1.0, atol=1e-12)

    def test_all_negated_columns_flip_q(self):
        rng = np.random.default_rng(10)
        e = descending_embedding(rng, 30, 4)
        neg = PointBatch(-e.data)
        res = align(e, neg)
        assert np.all(res.signs_q == -1)
        np.testing.assert_allclose(res.aligned_q.data, res.aligned_p.data,
                                   atol=1e-12)

    @pytest.mark.parametrize("d,seed", [(2, 0), (3, 1), (4, 2), (5, 3)])
    def test_recovers_planted_signed_permutation(self, d, seed):
        rng = np.random.default_rng(seed)
        e1 = descending_embedding(rng, 40, d)
        perm = rng.permutation(d)
        signs = rng.choice([-1.0, 1.0], size=d)
        e2 = apply_signed_perm(e1, perm, signs)
        res = align(e1, e2)
        np.testing.assert_allclose(res.aligned_q.data, res.aligned_p.data,
                                   atol=1e-10)
        np.testing.assert_allclose(np.abs(np.diag(res.corr_after)), 1.0,
                                   atol=1e-10)
        assert np.all(np.diag(res.corr_after) > 0.0)

    @pytest.mark.parametrize("d,seed,make_pair", [
        pytest.param(2, 11, noisy_copy_pair, id="2-11"),
        pytest.param(3, 12, noisy_copy_pair, id="3-12"),
        pytest.param(4, 13, noisy_copy_pair, id="4-13"),
        # independent draws, where a greedy column sweep misses the optimum
        pytest.param(4, 1, independent_pair, id="independent-4-1"),
        pytest.param(5, 4, independent_pair, id="independent-5-4"),
        pytest.param(6, 1, independent_pair, id="independent-6-1"),
    ])
    def test_diagonal_mass_matches_brute_force(self, d, seed, make_pair):
        # oracle: exhaustive search over all d! column assignments
        e1, e2 = make_pair(np.random.default_rng(seed), d)
        corr = np.abs(cross_correlation(e1, e2))
        best = max(sum(corr[i, pi] for i, pi in enumerate(p))
                   for p in itertools.permutations(range(d)))
        res = align(e1, e2)
        achieved = float(np.sum(np.abs(np.diag(res.corr_after))))
        assert achieved >= best - 1e-9

    def test_geometry_preserved(self):
        # aligned coords are a signed permutation of the input columns
        rng = np.random.default_rng(14)
        e1 = descending_embedding(rng, 20, 4)
        e2 = apply_signed_perm(e1, [2, 0, 3, 1], [1, -1, 1, -1])
        res = align(e1, e2)
        expect_p = e1.data[:, res.permutation_p] * res.signs_p
        expect_q = e2.data[:, res.permutation_q] * res.signs_q
        np.testing.assert_array_equal(res.aligned_p.data, expect_p)
        np.testing.assert_array_equal(res.aligned_q.data, expect_q)

    def test_diagonal_nonnegative_after_alignment(self):
        rng = np.random.default_rng(15)
        e1 = PointBatch(rng.standard_normal((30, 5)))
        e2 = PointBatch(rng.standard_normal((30, 5)))
        res = align(e1, e2)
        assert np.all(np.diag(res.corr_after) >= -1e-12)

    def test_objective_not_worse_than_start(self):
        rng = np.random.default_rng(16)
        e1 = PointBatch(rng.standard_normal((50, 6)))
        e2 = PointBatch(e1.data @ np.diag([1, -1, 1, 1, -1, 1])
                       + 0.05 * rng.standard_normal((50, 6)))
        res = align(e1, e2)
        before = float(np.sum(np.abs(np.diag(res.corr_before))))
        after = float(np.sum(np.abs(np.diag(res.corr_after))))
        assert after >= before - 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            align(PointBatch(np.zeros((5, 2))), PointBatch(np.zeros((5, 3))))

    @settings(deadline=None, max_examples=150)
    @given(alignment_pairs())
    def test_exact_signed_permutation_property(self, pair):
        from scipy.optimize import linear_sum_assignment

        e1, e2 = pair
        res = align(e1, e2)
        # oracle: scipy's dense assignment solver on |corr|
        mag = np.abs(res.corr_before)
        rows, cols = linear_sum_assignment(mag, maximize=True)
        assert np.sum(np.diag(np.abs(res.corr_after))) == pytest.approx(
            mag[rows, cols].sum(), rel=1e-12)
        for perm, signs in [(res.permutation_p, res.signs_p), (res.permutation_q, res.signs_q)]:
            assert sorted(perm) == list(range(e1.dim)) and set(signs) <= {-1, 1}
        np.testing.assert_array_equal(
            res.aligned_p.data, e1.data[:, res.permutation_p] * res.signs_p)
        np.testing.assert_array_equal(
            res.aligned_q.data, e2.data[:, res.permutation_q] * res.signs_q)
        assert np.all(np.diag(res.corr_after) >= 0.0)
        np.testing.assert_allclose(
            res.corr_after, cross_correlation(res.aligned_p, res.aligned_q), rtol=0, atol=1e-12)


class TestCrossCorrelation:
    def test_self_correlation_diagonal(self):
        rng = np.random.default_rng(17)
        e = PointBatch(rng.standard_normal((40, 3)))
        corr = cross_correlation(e, e)
        np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-12)
        np.testing.assert_allclose(corr, corr.T, atol=1e-12)

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(18)
        a = rng.standard_normal((30, 3))
        b = rng.standard_normal((30, 3))
        corr = cross_correlation(PointBatch(a), PointBatch(b))
        full = np.corrcoef(a, b, rowvar=False)
        np.testing.assert_allclose(corr, full[:3, 3:], atol=1e-12)

    def test_negation_flips_sign(self):
        rng = np.random.default_rng(19)
        e = PointBatch(rng.standard_normal((25, 2)))
        corr = cross_correlation(e, PointBatch(-e.data))
        np.testing.assert_allclose(np.diag(corr), -1.0, atol=1e-12)

    def test_bits_do_not_depend_on_blas_threads(self, blas_thread_outputs):
        # align's corr_before/corr_after hashes must not depend on the host's BLAS setup
        code = ("import sys; import numpy as np; from eccentric.analysis import "
                "cross_correlation; from eccentric.kernel import PointBatch; "
                "rng = np.random.default_rng(3); "
                "a = rng.standard_normal((2000, 64)); b = a + rng.standard_normal((2000, 64)); "
                "sys.stdout.write(cross_correlation(PointBatch(a), PointBatch(b)).tobytes().hex())")
        out = blas_thread_outputs(code)
        assert out[0] == out[1]

    def test_zero_variance_flags(self):
        a = np.array([[1.0, 0.5], [2.0, 0.5], [3.0, 0.5]])
        b = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        corr = cross_correlation(PointBatch(a), PointBatch(b))
        assert np.all(corr[1] == 0.0)
        assert corr[0, 0] == pytest.approx(1.0, abs=1e-12)


class TestSimilarityMetrics:
    def test_identical_embeddings(self):
        rng = np.random.default_rng(20)
        e = PointBatch(rng.standard_normal((20, 4)))
        m = similarity_metrics(e, e)
        assert m.rms_distance == pytest.approx(0.0, abs=1e-15)
        assert m.mean_cosine == pytest.approx(1.0, abs=1e-12)
        assert m.mean_angle_deg == pytest.approx(0.0, abs=1e-5)
        assert m.excluded_rows == 0

    def test_orthogonal_unit_rows(self):
        # every row pair orthogonal at unit norm: distance sqrt(2), angle 90
        a = np.tile([1.0, 0.0], (6, 1))
        b = np.tile([0.0, 1.0], (6, 1))
        m = similarity_metrics(PointBatch(a), PointBatch(b))
        assert m.rms_distance == pytest.approx(math.sqrt(2), rel=1e-14)
        assert m.mean_cosine == pytest.approx(0.0, abs=1e-14)
        assert m.mean_angle_deg == pytest.approx(90.0, rel=1e-12)

    def test_matches_row_loop_oracle(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((15, 3))
        b = rng.standard_normal((15, 3))
        m = similarity_metrics(PointBatch(a), PointBatch(b))
        sq = [float(np.sum((x - y) ** 2)) for x, y in zip(a, b)]
        cosines = [float(x @ y / (np.linalg.norm(x) * np.linalg.norm(y)))
                   for x, y in zip(a, b)]
        assert m.rms_distance == pytest.approx(math.sqrt(np.mean(sq)), rel=1e-12)
        assert m.mean_cosine == pytest.approx(np.mean(cosines), rel=1e-12)
        assert m.mean_angle_deg == pytest.approx(
            np.mean(np.degrees(np.arccos(cosines))), rel=1e-12)

    def test_zero_rows_excluded(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        b = np.array([[1.0, 0.0], [5.0, 5.0], [0.0, 2.0]])
        m = similarity_metrics(PointBatch(a), PointBatch(b))
        assert m.excluded_rows == 1
        assert m.mean_cosine == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_raises(self):
        z = PointBatch(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            similarity_metrics(z, z)


class TestSampleLatents:
    def test_standard_mode_moments(self):
        batch = sample_latents("standard", None, 100_000, 3, seed=0)
        assert batch.data.shape == (100_000, 3)
        np.testing.assert_allclose(batch.data.mean(axis=0), 0.0, atol=0.02)
        np.testing.assert_allclose(batch.data.std(axis=0), 1.0, atol=0.02)

    def test_matched_mode_recovers_moments(self):
        rng = np.random.default_rng(22)
        ref = rng.standard_normal((5000, 2)) @ np.diag([math.sqrt(3), 1.0])
        ref += np.array([1.0, -2.0])
        out = sample_latents("matched", PointBatch(ref), 100_000, 2, seed=1)
        ref_mean = ref.mean(axis=0)
        ref_cov = np.cov(ref, rowvar=False)
        np.testing.assert_allclose(out.data.mean(axis=0), ref_mean, atol=0.02)
        np.testing.assert_allclose(np.cov(out.data, rowvar=False), ref_cov,
                                   rtol=0.02, atol=0.02)

    def test_matched_deterministic(self):
        rng = np.random.default_rng(23)
        ref = PointBatch(rng.standard_normal((50, 3)))
        a = sample_latents("matched", ref, 10, 3, seed=9)
        b = sample_latents("matched", ref, 10, 3, seed=9)
        assert np.array_equal(a.data, b.data)

    def test_rank_deficient_reference_warns(self):
        ref = PointBatch(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
        with pytest.warns(UserWarning, match="rank-deficient"):
            sample_latents("matched", ref, 5, 3, seed=0)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(2, 40), st.integers(1, 16), st.floats(-3.0, 3.0),
           st.integers(0, 2**32 - 1))
    def test_matches_covariance_factor_oracle(self, n, d, log_scale, seed):
        # oracle: the former sampler, with its own covariance and eigh
        rng = np.random.default_rng(seed)
        ref = 10.0 ** log_scale * rng.standard_normal((n, d)) + rng.standard_normal(d)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # n < d + 1 is rank-deficient
            got = sample_latents("matched", PointBatch(ref), 7, d, seed=seed).data
        mean = ref.mean(axis=0)
        centered = ref - mean
        evals, evecs = np.linalg.eigh(centered.T @ centered / (n - 1))
        factor = evecs @ np.diag(np.sqrt(np.maximum(evals, 0.0))) @ evecs.T
        want = mean + np.random.default_rng(seed).standard_normal((7, d)) @ factor
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            sample_latents("uniform", None, 5, 2, seed=0)

    def test_matched_requires_reference(self):
        with pytest.raises(ValueError):
            sample_latents("matched", None, 5, 2, seed=0)


class TestDecodeEigenComponents:
    def test_identity_decoder(self):
        rng = np.random.default_rng(24)
        rep = spectrum(PointBatch(rng.standard_normal((50, 3))))
        pairs = decode_eigen_components(lambda z: z, rep, scale=2.0)
        assert len(pairs) == 3
        for k, (plus, minus) in enumerate(pairs):
            step = 2.0 * math.sqrt(rep.eigenvalues[k]) * rep.eigenvectors[:, k]
            np.testing.assert_allclose(plus, rep.mean + step, atol=1e-12)
            np.testing.assert_allclose(minus, rep.mean - step, atol=1e-12)

    def test_zero_scale_collapses_to_mean(self):
        rng = np.random.default_rng(25)
        rep = spectrum(PointBatch(rng.standard_normal((30, 2))))
        for plus, minus in decode_eigen_components(lambda z: z, rep, scale=0.0):
            np.testing.assert_allclose(plus, rep.mean, atol=1e-15)
            np.testing.assert_allclose(minus, rep.mean, atol=1e-15)

    def test_one_call_matches_per_component_loop(self):
        # oracle: the former loop, one forward call per decoded row
        rng = np.random.default_rng(26)
        net = DenseNet.initialize(DenseNetSpec((4, 8, 5), ("leaky-relu", "sigmoid")), rng)
        rep = spectrum(PointBatch(rng.standard_normal((60, 4)) @ rng.standard_normal((4, 4))))
        calls = []

        def decode(z):
            calls.append(z.shape)
            return net.forward(z)

        got = decode_eigen_components(decode, rep, scale=1.5)
        assert calls == [(8, 4)] and got.shape == (4, 2, 5)
        for k in range(4):
            step = 1.5 * math.sqrt(max(float(rep.eigenvalues[k]), 0.0)) * rep.eigenvectors[:, k]
            plus = net.forward((rep.mean + step)[None, :])[0]
            minus = net.forward((rep.mean - step)[None, :])[0]
            np.testing.assert_allclose(got[k, 0], plus, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got[k, 1], minus, rtol=0, atol=1e-12)


def knn_loop_oracle(train, labels, test, k):
    """Per-point loop with explicit vote counting: stable (distance, index)
    neighbors, then most votes, smallest summed distance, lowest label."""
    preds = []
    for x in test:
        d = np.linalg.norm(train - x, axis=1)
        nearest = np.argsort(d, kind="stable")[:k]
        cand = {}
        for j in nearest:
            lab = int(labels[j])
            cnt, tot = cand.get(lab, (0, 0.0))
            cand[lab] = (cnt + 1, tot + float(d[j]))
        preds.append(min(cand.items(), key=lambda kv: (-kv[1][0], kv[1][1], kv[0]))[0])
    return np.array(preds)


class TestKnnClassify:
    def test_hand_example(self):
        train = np.array([[0.0], [1.0], [10.0], [11.0]])
        labels = np.array([0, 0, 1, 1])
        preds, err = knn_classify(train, labels, np.array([[0.5], [10.5]]), k=2,
                                  truth=np.array([0, 1]))
        np.testing.assert_array_equal(preds, [0, 1])
        assert err == 0.0

    @pytest.mark.parametrize("kind, k", [
        ("normal", 5),
        *[("int", k) for k in (1, 5, 8, 13, 80)],
        *[("tenth", k) for k in (1, 5, 8, 13, 80)],
        # products near the smallest subnormal: the prefilter's rounding is absolute
        *[("tiny", k) for k in (1, 5, 8, 13, 80)],
        ("blocks", 5),
        ("blocks", 2000),
        # labels that the class numbering must map back: one class per
        # training row, and negative, unsorted values out to +-2^62
        *[("row-classes", k) for k in (1, 5, 13, 80)],
        *[("signed", k) for k in (1, 5, 13, 80)],
    ], ids=lambda v: f"k{v}" if isinstance(v, int) else v)
    def test_matches_loop_oracle(self, kind, k):
        if kind == "normal":
            rng = np.random.default_rng(26)
            train = rng.standard_normal((80, 3))
            labels = rng.integers(0, 4, 80)
            test = rng.standard_normal((40, 3))
        else:
            # grid points: exact duplicate training rows and many equal distances
            rng = np.random.default_rng(27)
            n, m = (65536, 30) if kind == "blocks" else (80, 40)
            step = {"tenth": 0.1, "tiny": 1e-162}.get(kind, 1.0)
            train = rng.integers(-2, 3, (n, 2)) * step
            labels = rng.integers(0, 4, n)
            test = rng.integers(-4, 5, (m, 2)) * (step / 2)
            if kind == "blocks":
                height = analysis._KNN_BLOCK_BYTES // (8 * (n + 16 * k))
                assert m > 2 * height  # >= 3 blocks
            if kind == "row-classes":
                labels = rng.permutation(n) - n // 2
            if kind == "signed":
                labels = rng.choice([2**62, -2**62, 7, -1, 0, -5, 2**62 - 1], n)
        preds, _ = knn_classify(train, labels, test, k=k)
        np.testing.assert_array_equal(preds, knn_loop_oracle(train, labels, test, k))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40), dim=st.integers(1, 6),
           # the top octave is where the products pass 2^53 and start to round
           offset=st.just(2**26) | st.integers(2**25, 2**26) | st.integers(0, 2**26),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_loop_oracle_on_offset_grids(self, data, n, dim, offset, seed):
        # grid points far from the origin are exact in float64, and so are
        # their distances' squares, but |y|^2 - 2 x.y loses up to all of its
        # digits there: the prefilter must still keep every exact neighbor
        k = data.draw(st.integers(1, n), label="k")
        rng = np.random.default_rng(seed)
        # rows drawn with replacement: duplicate training rows
        train = offset + rng.integers(-3, 4, (n, dim))[rng.integers(0, n, n)].astype(float)
        # 1 to n distinct labels, negative ones included, in no order
        names = rng.choice(np.arange(-n, n), data.draw(st.integers(1, n), label="classes"),
                           replace=False)
        labels = names[rng.integers(0, len(names), n)]
        test = offset + rng.integers(-7, 8, (rng.integers(1, 21), dim)) / 2
        preds, _ = knn_classify(train, labels, test, k=k)
        np.testing.assert_array_equal(preds, knn_loop_oracle(train, labels, test, k))

    @pytest.mark.parametrize("n_train, n_test, dim, k, offset", [
        (5000, 2000, 64, 5, None),
        # k = n: the vote must stay linear in k per row (a k x k mask per
        # row would take 30 MiB for each of a block's 262 rows)
        (2000, 600, 8, 2000, None),
        # a grid at 2^26: the prefilter's margin exceeds every distance, so
        # every training row is a candidate of every test row
        (5000, 400, 16, 5, 2**26),
    ], ids=["analyze-k5", "k-equals-n", "offset-grid"])
    def test_peak_memory_is_one_block(self, n_train, n_test, dim, k, offset):
        # the full 2000 x 5000 distance matrix alone would take 76 MiB
        rng = np.random.default_rng(28)
        if offset is None:
            train = rng.standard_normal((n_train, dim))
            labels = rng.integers(0, 10, n_train)
            test = rng.standard_normal((n_test, dim))
        else:
            train = offset + rng.integers(-2, 3, (n_train, dim)).astype(float)
            labels = rng.integers(0, 10, n_train)
            test = offset + rng.integers(-4, 5, (n_test, dim)) / 2
        tracemalloc.start()
        try:
            knn_classify(train, labels, test, k=k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("n_train, n_test, classes", [
        (5000, 2000, 10), (20000, 200, 10),
        # a (rows, classes) vote table would take a block of its own
        (20000, 200, None),
    ], ids=["analyze-k5", "wide-train", "wide-train-row-classes"])
    def test_peak_memory_scales_with_block(self, n_train, n_test, classes):
        # a block's prefilter values, their partitioned copy and its masks;
        # no copy of the training set, which is 10 MiB in the wide case
        rng = np.random.default_rng(28)
        train = rng.standard_normal((n_train, 64))
        labels = (rng.permutation(n_train) if classes is None
                  else rng.integers(0, classes, n_train))
        test = rng.standard_normal((n_test, 64))
        tracemalloc.start()
        try:
            knn_classify(train, labels, test, k=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * analysis._KNN_BLOCK_BYTES

    def test_rejects_non_finite(self):
        train = np.zeros((3, 2))
        labels = np.zeros(3, dtype=int)
        with pytest.raises(ValueError, match="finite"):
            knn_classify(train, labels, np.array([[0.0, np.nan]]), k=1)
        train[1, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            knn_classify(train, labels, np.zeros((1, 2)), k=1)

    @staticmethod
    def _half_overflowing(rng):
        # 20 unscaled training rows, then 20 whose |y|^2 overflows
        train = np.vstack([rng.standard_normal((20, 3)), 1e200 * rng.standard_normal((20, 3))])
        return train, rng.integers(0, 4, 40)

    def test_overflowing_norms_keep_every_candidate_without_warnings(self):
        # |y|^2 overflows: the prefilter turns inf, and every training row
        # must still reach the exact pass, silently
        rng = np.random.default_rng(3)
        train, labels = self._half_overflowing(rng)
        test = rng.standard_normal((5, 3))
        for k in (1, 3):
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                preds, _ = knn_classify(train, labels, test, k=k)
            with np.errstate(over="ignore"):
                np.testing.assert_array_equal(preds, knn_loop_oracle(train, labels, test, k))

    def test_overflowing_neighbour_distance_raises(self):
        # a distance among a row's k nearest that overflows is a numerical
        # failure, not a tie broken by training index
        rng = np.random.default_rng(3)
        train, labels = self._half_overflowing(rng)
        small = rng.standard_normal((5, 3))
        # every distance from a row at 1e200 overflows; at k = 40 the unscaled
        # rows pick the 20 far training rows too
        for test, k in [(1e200 * rng.standard_normal((5, 3)), 1), (small, 40)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FloatingPointError, match=f"k={k} nearest"):
                    knn_classify(train, labels, test, k=k)

    @pytest.mark.parametrize("k", [1, 5, 30])
    def test_far_training_row_outside_the_k_nearest_is_harmless(self, k):
        # its distances overflow, but no row picks it: the predictions are
        # those of the set without it, and nothing is flagged
        rng = np.random.default_rng(4)
        train = rng.standard_normal((30, 3))
        labels = rng.integers(0, 3, 30)
        test = rng.standard_normal((10, 3))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            preds, _ = knn_classify(np.vstack([np.full((1, 3), 1e200), train]),
                                    np.concatenate([[9], labels]), test, k=k)
            alone, _ = knn_classify(train, labels, test, k=k)
        np.testing.assert_array_equal(preds, alone)

    @pytest.mark.parametrize("bad, message", [
        # a length-1 truth used to broadcast: an error rate against label 0 for every row
        ({"truth": np.array([0])},
         r"test_coords, truth: count mismatch: 4 points, labels shape \(1,\)"),
        ({"train_labels": np.array([[0], [0], [1], [1]])},
         r"train_coords, train_labels: count mismatch: 4 points, labels shape \(4, 1\)"),
        ({"train_labels": None}, "train_labels must be given"),
    ], ids=["truth", "train-labels", "no-train-labels"])
    def test_rejects_labels_of_wrong_shape(self, bad, message):
        args = {"train_coords": np.array([[0.0], [1.0], [10.0], [11.0]]),
                "train_labels": np.array([0, 0, 1, 1]),
                "test_coords": np.array([[0.5], [0.6], [10.5], [10.6]]), "k": 1,
                "truth": np.array([0, 0, 1, 1]), **bad}
        with pytest.raises(ValueError, match=message):
            knn_classify(**args)

    @pytest.mark.parametrize("which", ["train_coords", "test_coords"])
    def test_rejects_one_dimensional_coordinates(self, which):
        coords = {"train_coords": np.zeros((3, 2)), "test_coords": np.zeros((2, 2))}
        coords[which] = np.zeros(2)
        with pytest.raises(ValueError, match=rf"{which}, \w+: expected a 2-D .* shape \(2,\)"):
            knn_classify(coords["train_coords"], np.zeros(3, dtype=int),
                         coords["test_coords"], k=1)

    def test_rejects_empty_test_set(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=r"test_coords, truth: empty batch, got shape \(0, 2\)"):
                knn_classify(np.zeros((3, 2)), np.zeros(3, dtype=int), np.zeros((0, 2)), k=1)

    def test_vote_tie_uses_distance(self):
        # one neighbor each: nearer label wins
        train = np.array([[0.0], [2.0]])
        labels = np.array([5, 7])
        preds, _ = knn_classify(train, labels, np.array([[0.5]]), k=2)
        assert preds[0] == 5

    def test_rejects_bad_k(self):
        train = np.zeros((3, 2))
        labels = np.zeros(3, dtype=int)
        with pytest.raises(ValueError):
            knn_classify(train, labels, np.zeros((1, 2)), k=0)
        with pytest.raises(ValueError):
            knn_classify(train, labels, np.zeros((1, 2)), k=4)
