import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eccentric.kernel import (
    ParamSet,
    PointBatch,
    batch_loss,
    batch_loss_and_gradient,
    batch_loss_gram,
    choose_big_n,
    pair_kernel,
)


def random_params(dim, mu=1.0):
    return ParamSet(dim=dim, mu=mu, big_n=choose_big_n(dim, mu))


class TestChooseBigN:
    # frozen golden (d, mu) -> N values
    @pytest.mark.parametrize("dim,mu,expected,tol", [
        (2, 1.0, 6.0, 1e-12),
        (2, 2.5, 1.2, 1e-12),
        (64, 1.0, 129.02, 5e-3),
        (64, 16.5, 4.00, 5e-3),
        (64, 64.5, 1.00, 5e-3),
    ])
    def test_golden(self, dim, mu, expected, tol):
        assert choose_big_n(dim, mu) == pytest.approx(expected, abs=tol)

    def test_formula(self):
        d, mu = 17, 3.25
        expected = 2 * d * (1 + 1 / (2 * mu * (d - 1))) / (2 * mu - 1)
        assert choose_big_n(d, mu) == expected

    def test_rejects_small_mu(self):
        with pytest.raises(ValueError):
            choose_big_n(4, 0.5)

    def test_rejects_small_dim(self):
        with pytest.raises(ValueError):
            choose_big_n(1, 1.0)


class TestParamSet:
    def test_auto_matches_formula(self):
        p = ParamSet.auto(8, 2.0)
        assert p.big_n == choose_big_n(8, 2.0)

    def test_auto_rejects_mu_outside_sweep_range(self):
        with pytest.raises(ValueError):
            ParamSet.auto(4, 10.0)  # 2d+1 = 9

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            ParamSet(dim=1, mu=1.0, big_n=6.0)
        with pytest.raises(ValueError):
            ParamSet(dim=2, mu=-1.0, big_n=6.0)
        with pytest.raises(ValueError):
            ParamSet(dim=2, mu=1.0, big_n=0.0)
        with pytest.raises(ValueError):
            ParamSet(dim=2, mu=1.0, big_n=6.0, lam=-0.1)


class TestPointBatch:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PointBatch(np.array([[1.0, np.nan]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            PointBatch(np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entry(self, bad):
        data = np.ones((4, 3))
        data[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            PointBatch(data)

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0)], ids=["no-rows", "no-columns"])
    def test_rejects_empty(self, shape):
        # a label-only embedding CSV reads as (rows, 0)
        with pytest.raises(ValueError, match="empty batch"):
            PointBatch(np.zeros(shape))


class TestPairKernel:
    def test_origin_is_zero(self):
        p = ParamSet(dim=2, mu=1.0, big_n=6.0)
        assert pair_kernel(np.zeros(2), np.zeros(2), p) == 0.0

    def test_antipodal_value(self):
        # oracle: high-precision scalar evaluation of the formula
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        expected = float(1 - 6 * mpmath.log(mpmath.mpf(5) / 3))
        p = ParamSet(dim=2, mu=1.0, big_n=6.0)
        got = pair_kernel(np.array([1.0, 0.0]), np.array([-1.0, 0.0]), p)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(-2.0649538, abs=1e-6)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**31 - 1))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        p = random_params(5)
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        assert pair_kernel(a, b, p) == pair_kernel(b, a, p)

    def test_dimension_mismatch(self):
        p = ParamSet(dim=3, mu=1.0, big_n=6.0)
        with pytest.raises(ValueError):
            pair_kernel(np.zeros(2), np.zeros(3), p)

    def test_non_finite_input(self):
        p = ParamSet(dim=2, mu=1.0, big_n=6.0)
        with pytest.raises(ValueError):
            pair_kernel(np.array([np.inf, 0.0]), np.zeros(2), p)


class TestBatchLoss:
    def test_all_origin_is_zero(self):
        p = ParamSet(dim=3, mu=1.0, big_n=6.0)
        assert batch_loss(PointBatch(np.zeros((5, 3))), p) == 0.0

    def test_two_points_equal_pair_kernel(self):
        rng = np.random.default_rng(7)
        p = random_params(4)
        z = rng.standard_normal((2, 4))
        assert batch_loss(PointBatch(z), p) == pytest.approx(
            pair_kernel(z[0], z[1], p), rel=1e-14)

    def test_matches_pairwise_definition(self):
        # oracle: literal double loop over ordered pairs
        rng = np.random.default_rng(11)
        p = random_params(6, mu=1.5)
        z = rng.standard_normal((9, 6))
        b = len(z)
        expected = sum(pair_kernel(z[i], z[j], p)
                       for i in range(b) for j in range(b) if i != j) / (b * (b - 1))
        assert batch_loss(PointBatch(z), p) == pytest.approx(expected, rel=1e-12)

    def test_matches_gram_expansion(self):
        rng = np.random.default_rng(3)
        p = ParamSet(dim=64, mu=1.0, big_n=choose_big_n(64, 1.0))
        z = rng.standard_normal((100, 64))
        direct = batch_loss(PointBatch(z), p)
        gram = batch_loss_gram(PointBatch(z), p)
        assert gram == pytest.approx(direct, rel=1e-10)

    def test_mu_zero_leaves_quadratic_term(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((8, 4))
        p = ParamSet(dim=4, mu=0.0, big_n=6.0)
        assert batch_loss(PointBatch(z), p) == pytest.approx(
            np.sum(z * z) / len(z), rel=1e-14)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 40), st.integers(2, 12))
    def test_rotation_invariance(self, seed, count, dim):
        # rotating the cloud by Q rotates the gradient, permuting its rows
        # permutes the gradient rows, and neither changes the loss
        rng = np.random.default_rng(seed)
        p = random_params(dim, mu=float(rng.uniform(1.0, 3.0)))
        z = rng.standard_normal((count, dim)) * rng.uniform(0.1, 3.0)
        loss, grad = batch_loss_and_gradient(PointBatch(z), p)
        assert loss == batch_loss(PointBatch(z), p)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        perm = rng.permutation(count)
        # the loss is a difference of two terms; where they nearly cancel, its
        # relative rounding error is not a property of the kernel
        assume(abs(loss) >= 1e-3 * np.sum(z * z) / count)
        scale = np.abs(grad).max()
        for moved, want in ((z @ q, grad @ q), (z[perm], grad[perm])):
            loss_m, grad_m = batch_loss_and_gradient(PointBatch(moved), p)
            assert loss_m == pytest.approx(loss, rel=1e-12)
            assert np.abs(grad_m - want).max() <= 1e-12 * scale

    def test_diagonal_neutrality(self):
        # masking the diagonal of the distance matrix must change nothing
        rng = np.random.default_rng(13)
        p = random_params(3)
        z = rng.standard_normal((7, 3))
        b = len(z)
        sq = np.sum((z[:, None, :] - z[None, :, :]) ** 2, axis=-1)
        logs = np.log1p(sq / p.big_n)
        np.fill_diagonal(logs, 0.0)
        masked = np.sum(z * z) / b - p.mu * p.big_n * logs.sum() / (b * (b - 1))
        assert batch_loss(PointBatch(z), p) == pytest.approx(masked, rel=1e-14)

    def test_count_too_small(self):
        p = ParamSet(dim=2, mu=1.0, big_n=6.0)
        with pytest.raises(ValueError):
            batch_loss(PointBatch(np.zeros((1, 2))), p)

    def test_dim_mismatch(self):
        p = ParamSet(dim=3, mu=1.0, big_n=6.0)
        with pytest.raises(ValueError):
            batch_loss(PointBatch(np.zeros((4, 2))), p)


def finite_difference_gradient(z, p, h=1e-5):
    grad = np.zeros_like(z)
    for i in range(z.shape[0]):
        for j in range(z.shape[1]):
            zp = z.copy()
            zp[i, j] += h
            zm = z.copy()
            zm[i, j] -= h
            grad[i, j] = (batch_loss(PointBatch(zp), p)
                          - batch_loss(PointBatch(zm), p)) / (2 * h)
    return grad


class TestBatchLossGradient:
    def test_origin_is_zero(self):
        p = ParamSet(dim=3, mu=1.0, big_n=6.0)
        assert np.all(batch_loss_and_gradient(PointBatch(np.zeros((4, 3))), p)[1] == 0.0)

    def test_antisymmetric_pair(self):
        rng = np.random.default_rng(2)
        p = random_params(5)
        z = rng.standard_normal(5)
        _, g = batch_loss_and_gradient(PointBatch(np.stack([z, -z])), p)
        np.testing.assert_allclose(g[0], -g[1], rtol=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        p = random_params(8, mu=1.25)
        z = rng.standard_normal((20, 8))
        _, analytic = batch_loss_and_gradient(PointBatch(z), p)
        numeric = finite_difference_gradient(z, p)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-12)
        assert rel.max() < 1e-6

    def test_repeat_is_bit_identical(self):
        rng = np.random.default_rng(31)
        p = random_params(6)
        z = rng.standard_normal((50, 6))
        l1, g1 = batch_loss_and_gradient(PointBatch(z), p)
        l2, g2 = batch_loss_and_gradient(PointBatch(z), p)
        assert l1 == l2 and np.array_equal(g1, g2)
