import hashlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eccentric import kernel, radius
from eccentric.kernel import (
    ParamSet,
    PointBatch,
    batch_gradient,
    batch_loss,
    batch_loss_and_gradient,
    choose_big_n,
)
from kernel_oracles import (
    batch_loss_gram,
    fd_gradient,
    mp_closed_gradient,
    mp_gradient,
    mp_loss,
    pair_kernel,
    params_for,
    unblocked_loss_and_gradient,
)


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

    def test_rejects_mu_outside_calibrated_range(self):
        # the rule is calibrated for 1 <= mu <= 2d+1; both ends are accepted
        for dim in (2, 4, 64):
            top = 2.0 * dim + 1.0
            assert choose_big_n(dim, 1.0) > 0 and choose_big_n(dim, top) > 0
            for mu in (np.nextafter(1.0, 0.0), np.nextafter(top, np.inf), 10.0 * dim, np.nan):
                with pytest.raises(ValueError, match=rf"1 <= mu <= 2\*dim\+1, got mu=.* "
                                                     rf"at dim={dim}"):
                    choose_big_n(dim, mu)

    def test_rejects_small_dim(self):
        with pytest.raises(ValueError):
            choose_big_n(1, 1.0)

    def test_arrays_match_per_cell_calls(self):
        # sweep_radius passes every (d, mu) cell of its grid in one call
        dims = range(3, 301)
        grids = [radius._mu_grid(d, 24.0) for d in dims]
        mu = np.concatenate(grids)
        dim = np.repeat(np.array(dims, dtype=np.float64), [g.size for g in grids])
        per_cell = np.array([choose_big_n(int(d), float(m)) for d, m in zip(dim, mu)])
        assert mu.size > 3000
        assert choose_big_n(dim, mu).tobytes() == per_cell.tobytes()
        assert choose_big_n(dim.astype(np.int64), mu).tobytes() == per_cell.tobytes()

    def test_array_outside_range_rejected(self):
        with pytest.raises(ValueError, match="1 <= mu <= 2"):
            choose_big_n(np.array([4.0, 4.0]), np.array([1.0, 9.5]))
        with pytest.raises(ValueError, match="dim must be >= 2"):
            choose_big_n(np.array([4.0, 1.0]), np.array([1.0, 1.0]))


class TestParamSet:
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
        p = params_for(5)
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        assert pair_kernel(a, b, p) == pair_kernel(b, a, p)


class TestBatchLoss:
    def test_all_origin_is_zero(self):
        p = ParamSet(dim=3, mu=1.0, big_n=6.0)
        assert batch_loss(PointBatch(np.zeros((5, 3))), p) == 0.0

    def test_two_points_equal_pair_kernel(self):
        rng = np.random.default_rng(7)
        p = params_for(4)
        z = rng.standard_normal((2, 4))
        assert batch_loss(PointBatch(z), p) == pytest.approx(
            pair_kernel(z[0], z[1], p), rel=1e-14)

    def test_matches_pairwise_definition(self):
        # oracle: literal double loop over ordered pairs
        rng = np.random.default_rng(11)
        p = params_for(6, mu=1.5)
        z = rng.standard_normal((9, 6))
        b = len(z)
        expected = sum(pair_kernel(z[i], z[j], p)
                       for i in range(b) for j in range(b) if i != j) / (b * (b - 1))
        assert batch_loss(PointBatch(z), p) == pytest.approx(expected, rel=1e-12)

    def test_matches_gram_expansion(self):
        rng = np.random.default_rng(3)
        p = params_for(64)
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
        p = params_for(dim, mu=float(rng.uniform(1.0, 3.0)))
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
        p = params_for(3)
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


class TestBatchLossGradient:
    def test_origin_is_zero(self):
        p = ParamSet(dim=3, mu=1.0, big_n=6.0)
        assert np.all(batch_loss_and_gradient(PointBatch(np.zeros((4, 3))), p)[1] == 0.0)

    def test_antisymmetric_pair(self):
        rng = np.random.default_rng(2)
        p = params_for(5)
        z = rng.standard_normal(5)
        _, g = batch_loss_and_gradient(PointBatch(np.stack([z, -z])), p)
        np.testing.assert_allclose(g[0], -g[1], rtol=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        p = params_for(8, mu=1.25)
        z = rng.standard_normal((20, 8))
        _, analytic = batch_loss_and_gradient(PointBatch(z), p)
        numeric = fd_gradient(z, p)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-12)
        assert rel.max() < 1e-6

    def test_matches_mpmath_central_differences(self):
        # criterion 5's batches (b in [4, 11], d in [2, 8], mu in [1, 3)) against
        # 40-digit differences, where float64 differences only reach ~1e-6
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(5):
            d, b = int(rng.integers(2, 9)), int(rng.integers(4, 12))
            p = params_for(d, mu=float(rng.uniform(1.0, 3.0)))
            batch = PointBatch(rng.standard_normal((b, d)))
            oracle = mp_gradient(batch, p)
            _, grad = batch_loss_and_gradient(batch, p)
            rel = np.abs(grad - oracle) / np.maximum(np.abs(oracle), 1e-8)
            worst = max(worst, float(rel.max()))
        assert worst <= 1e-10

    def test_closed_form_oracle_matches_central_differences(self):
        # mp_closed_gradient, which checks full Gram tiles, against the
        # finite-difference oracle on small batches: both hold ~40 digits, so
        # their float64 roundings agree
        rng = np.random.default_rng(8)
        for b, d in [(2, 2), (5, 3), (8, 8)]:
            p = params_for(d, mu=float(rng.uniform(1.0, 3.0)))
            batch = PointBatch(rng.standard_normal((b, d)) * rng.uniform(0.1, 3.0))
            np.testing.assert_allclose(mp_closed_gradient(batch, p), mp_gradient(batch, p),
                                       rtol=1e-15, atol=0)

    def test_repeat_is_bit_identical(self):
        rng = np.random.default_rng(31)
        p = params_for(6)
        z = rng.standard_normal((50, 6))
        l1, g1 = batch_loss_and_gradient(PointBatch(z), p)
        l2, g2 = batch_loss_and_gradient(PointBatch(z), p)
        assert l1 == l2 and np.array_equal(g1, g2)


BLOCK = kernel._PAIR_TILE  # side of the distance matrix's square tiles
GRAM_C = kernel._GRAM_C  # a full tile takes Gram weights if its guard sum is <= GRAM_C * N


def guard_sums(z):
    """Each full tile's largest |z_i|^2 plus largest |z_j|^2, the sum the kernel's guard
    compares with GRAM_C * N."""
    full = len(z) - len(z) % BLOCK
    top = np.einsum("ij,ij->i", z[:full], z[:full]).reshape(-1, BLOCK).max(axis=1)
    return [top[i] + top[j] for i in range(len(top)) for j in range(i, len(top))]


class TestRowBlocks:
    # the unblocked formula over the whole b x b matrix is the oracle

    # counts on both sides of one and two tile edges, and dims from the
    # smallest to flow's
    @settings(deadline=None, max_examples=60)
    @given(st.one_of(st.sampled_from([2] + [k * BLOCK + e for k in (1, 2) for e in (-1, 0, 1)]),
                     st.integers(2, 400)),
           st.one_of(st.sampled_from([2, 3, 16]), st.integers(2, 8)), st.integers(0, 2**31 - 1))
    @example(count=BLOCK - 1, dim=5, seed=0)
    @example(count=BLOCK + 1, dim=5, seed=0)
    @example(count=2 * BLOCK + 1, dim=5, seed=0)
    @example(count=4 * BLOCK, dim=5, seed=0)
    @example(count=2 * BLOCK - 1, dim=16, seed=1)
    @example(count=2 * BLOCK, dim=3, seed=2)
    def test_matches_unblocked_formula(self, count, dim, seed):
        rng = np.random.default_rng(seed)
        p = params_for(dim, mu=float(rng.uniform(1.0, 3.0)))
        z = rng.standard_normal((count, dim)) * rng.uniform(0.1, 3.0)
        batch = PointBatch(z)
        want_loss, want_grad = unblocked_loss_and_gradient(batch, p)
        # as in test_rotation_invariance: where the two terms of the loss
        # nearly cancel, its relative rounding error says nothing of the kernel
        assume(abs(want_loss) >= 1e-3 * np.sum(z * z) / count)
        loss, grad = batch_loss_and_gradient(batch, p)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()
        assert batch_loss(batch, p) == loss
        assert np.array_equal(batch_gradient(batch, p), grad)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 2**31 - 1), st.integers(2 * BLOCK + 1, 4 * BLOCK),
           st.integers(2, 12))
    def test_permutation_invariance_across_blocks(self, seed, count, dim):
        # a row's gradient gathers pair terms from the blocks before it as well
        # as its own, so moving rows between blocks must only permute the rows
        rng = np.random.default_rng(seed)
        p = params_for(dim, mu=float(rng.uniform(1.0, 3.0)))
        z = rng.standard_normal((count, dim)) * rng.uniform(0.1, 3.0)
        loss, grad = batch_loss_and_gradient(PointBatch(z), p)
        assume(abs(loss) >= 1e-3 * np.sum(z * z) / count)  # as in test_rotation_invariance
        perm = rng.permutation(count)
        loss_p, grad_p = batch_loss_and_gradient(PointBatch(z[perm]), p)
        assert loss_p == pytest.approx(loss, rel=1e-12)
        assert np.abs(grad_p - grad[perm]).max() <= 1e-12 * np.abs(grad).max()

    @pytest.mark.parametrize("count", [BLOCK + 1, 3 * BLOCK + 7])
    def test_pair_forces_cancel(self, count):
        # w_ij (z_i - z_j) + w_ji (z_j - z_i) = 0, so the repulsive part sums to
        # zero over the rows and only the pull (2/b) z is left
        rng = np.random.default_rng(count)
        p = params_for(6, mu=1.5)
        z = rng.standard_normal((count, 6)) * 2.0
        grad = batch_gradient(PointBatch(z), p)
        net = grad.sum(axis=0) - (2.0 / count) * z.sum(axis=0)
        assert np.abs(net).max() <= 1e-12 * np.abs(grad).max()

    def test_bits_do_not_depend_on_blas_threads(self, blas_thread_outputs):
        # the loss and the gradient of each batch are hashed together; the
        # b=1536 batches scale four rows by 100 so that the full tiles of their
        # blocks keep cdist and the others take the Gram product
        code = ("import hashlib, numpy as np\n"
                "from eccentric.kernel import ParamSet, PointBatch, batch_gradient, "
                "batch_loss, choose_big_n\n"
                "def digest(z, p):\n"
                "    loss = np.float64(batch_loss(z, p)).tobytes()\n"
                "    return hashlib.sha256(loss + batch_gradient(z, p).tobytes()).hexdigest()\n"
                "for d in (2, 16, 64):\n"
                "    for b in (300, 700, 1000, 1500, 2048, 3000):\n"
                "        z = PointBatch(np.random.default_rng(b).standard_normal((b, d)))\n"
                "        print(d, b, digest(z, ParamSet(d, 1.5, choose_big_n(d, 1.5))))\n"
                "for d in (16, 64):\n"
                "    z = np.random.default_rng(d).standard_normal((1536, d))\n"
                "    z[::500] *= 100.0\n"
                "    p = ParamSet(d, 1.5, choose_big_n(d, 1.5))\n"
                "    print(d, 1536, digest(PointBatch(z), p))\n")
        for d in (16, 64):
            z = np.random.default_rng(d).standard_normal((1536, d))
            z[::500] *= 100.0
            sums = guard_sums(z)
            assert min(sums) <= GRAM_C * choose_big_n(d, 1.5) < max(sums)
        out = blas_thread_outputs(code)
        assert len(out[0].splitlines()) == 20
        assert out[0] == out[1]

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from([BLOCK, 2 * BLOCK, 2 * BLOCK + 1, 3 * BLOCK]),
           st.sampled_from([2, 16, 64]),
           st.sampled_from(["clustered", "duplicates", "scales", "guard-edge"]),
           st.integers(0, 2**31 - 1))
    @example(count=3 * BLOCK, dim=16, case="guard-edge", seed=0)
    @example(count=2 * BLOCK + 1, dim=64, case="clustered", seed=0)
    def test_gram_tiles_match_unblocked_formula(self, count, dim, case, seed):
        # full tiles that pass the guard take d^2 for the loss and the weights
        # from the Gram product; the others, and every partial tile, from cdist
        rng = np.random.default_rng(seed)
        p = params_for(dim, mu=float(rng.uniform(1.0, 3.0)))
        z = rng.standard_normal((count, dim))
        blocks = np.arange(count) // BLOCK
        if case == "clustered":
            # clusters in runs of rows, each centred at its own distance from
            # the origin: near ones pass the guard, far ones fail it, and a far
            # one of width ~sqrt(N) is where unguarded Gram weights go wrong
            centres = rng.standard_normal((5, dim)) * 10.0 ** rng.uniform(-1, 7, (5, 1))
            width = np.sqrt(p.big_n) * 10.0 ** rng.uniform(-6, 0, (5, 1))
            pick = np.sort(rng.integers(0, 5, count))
            z = centres[pick] + width[pick] * z
        elif case == "duplicates":
            z = z[rng.integers(0, count // 8, count)]
        elif case == "scales":
            z *= 10.0 ** rng.choice([-150.0, 0.0, 150.0], blocks[-1] + 1)[blocks, None]
        else:
            # each block's largest |z|^2 is c N / 2 times 1 -+ a few percent,
            # under in even blocks and over in odd ones, so that some tiles sit
            # just under the guard's bound and others just over it
            sq = np.einsum("ij,ij->i", z, z)
            top = np.array([sq[blocks == k].max() for k in range(blocks[-1] + 1)])
            sign = np.where(np.arange(top.size) % 2, 1.0, -1.0)
            target = GRAM_C * p.big_n / 2 * (1 + sign * rng.uniform(0.001, 0.05, top.size))
            z *= np.sqrt(target / top)[blocks, None]
            if count >= 2 * BLOCK:
                sums = guard_sums(z)
                assert min(sums) <= GRAM_C * p.big_n < max(sums)
        batch = PointBatch(z)
        want_loss, want_grad = unblocked_loss_and_gradient(batch, p)
        assume(abs(want_loss) >= 1e-3 * np.sum(z * z) / count)  # as in test_rotation_invariance
        loss, grad = batch_loss_and_gradient(batch, p)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()
        assert np.array_equal(batch_gradient(batch, p), grad)

    @settings(deadline=None, max_examples=10)
    @given(st.sampled_from([BLOCK, 2 * BLOCK, 3 * BLOCK]), st.sampled_from([2, 16, 64]),
           st.floats(-3.0, -0.01), st.integers(0, 2**31 - 1))
    @example(count=3 * BLOCK, dim=64, log_scale=-0.01, seed=0)
    @example(count=BLOCK, dim=2, log_scale=-3.0, seed=0)
    def test_gram_tile_loss_matches_mp_oracle(self, count, dim, log_scale, seed):
        # every tile is full and passes the guard, so the loss takes each d^2 from
        # a Gram product; the oracle sums the loss at 40 digits from exact d^2
        rng = np.random.default_rng(seed)
        p = params_for(dim, mu=float(rng.uniform(1.0, 3.0)))
        z = rng.standard_normal((count, dim)) * 10.0 ** rng.uniform(-1, 0, (count, 1))
        top = np.einsum("ij,ij->i", z, z).max()
        z *= np.sqrt(GRAM_C * p.big_n / 2 * 10.0 ** log_scale / top)
        assert max(guard_sums(z)) <= GRAM_C * p.big_n
        batch = PointBatch(z)
        loss = batch_loss(batch, p)
        assert batch_loss_and_gradient(batch, p)[0] == loss
        want = mp_loss(batch, p)
        assume(abs(want) >= 1e-3 * np.sum(z * z) / count)  # as in test_rotation_invariance
        assert loss == pytest.approx(want, rel=1e-12)

    @settings(deadline=None, max_examples=8)
    @given(st.sampled_from([BLOCK, 2 * BLOCK]), st.sampled_from([2, 16, 64]),
           st.floats(1e-9, 0.05), st.integers(0, 2**31 - 1))
    @example(count=2 * BLOCK, dim=64, margin=1e-9, seed=0)
    @example(count=BLOCK, dim=2, margin=0.05, seed=1)
    def test_gram_tile_gradient_matches_mp_oracle(self, count, dim, margin, seed):
        # every tile is full and passes the guard, the largest tile sum within
        # `margin` of c N, so every weight comes from a Gram product; the oracle
        # takes the closed-form gradient at 40 digits from exact d^2.  A component
        # where the pull and the push cancel errs by up to ~3e-15 max|grad| in
        # float64, with or without N in the operand, so components below
        # 1e-4 max|grad| are held to 1e-14 max|grad| absolute
        rng = np.random.default_rng(seed)
        p = params_for(dim, mu=float(rng.uniform(1.0, 3.0)))
        z = rng.standard_normal((count, dim)) * 10.0 ** rng.uniform(-1, 0, (count, 1))
        top = np.einsum("ij,ij->i", z, z).max()
        z *= np.sqrt(GRAM_C * p.big_n / 2 * (1 - margin) / top)
        sums = guard_sums(z)
        assert (1 - 2 * margin) * GRAM_C * p.big_n <= max(sums) <= GRAM_C * p.big_n
        batch = PointBatch(z)
        want = mp_closed_gradient(batch, p)
        for grad in (batch_gradient(batch, p), batch_loss_and_gradient(batch, p)[1]):
            rel = np.abs(grad - want) / np.maximum(np.abs(want), 1e-4 * np.abs(want).max())
            assert rel.max() <= 1e-10

    def test_sub_tile_bits_are_pinned(self):
        # a batch below one tile never takes the Gram product, so its bits (and
        # so train's batch-100 steps) are those of the cdist-only kernel
        want = {2: "78424e1f8a6f64564c3043ddf57587c4997900e9674df45281e323326eb8aea5",
                8: "ae6bbf038cca416327f9be217152ffb97283badb340f0fb03f60afde8c31f7fe"}
        for d, digest in want.items():
            z = PointBatch(np.random.default_rng(d).standard_normal((100, d)))
            loss, grad = batch_loss_and_gradient(z, ParamSet(d, 1.5, choose_big_n(d, 1.5)))
            got = hashlib.sha256(np.float64(loss).tobytes() + grad.tobytes()).hexdigest()
            assert got == digest, d

    @pytest.mark.parametrize("count", [100, 2 * BLOCK])
    def test_gradient_is_a_fresh_array(self, count):
        # below one tile (cdist) and on Gram tiles, the gradient is a new
        # C-contiguous (b, d) float64 array and the batch is not written
        z = np.random.default_rng(count).standard_normal((count, 16))
        batch, p = PointBatch(z.copy()), params_for(16)
        for grad in (batch_gradient(batch, p), batch_loss_and_gradient(batch, p)[1]):
            assert grad.shape == (count, 16) and grad.dtype == np.float64
            assert grad.flags.c_contiguous and grad.flags.owndata
            assert not np.shares_memory(grad, batch.data)
        assert batch.data.tobytes() == z.tobytes()

    def test_gradient_without_loss_checks_batch(self):
        p = ParamSet(dim=3, mu=1.0, big_n=6.0)
        with pytest.raises(ValueError):
            batch_gradient(PointBatch(np.zeros((1, 3))), p)
        with pytest.raises(ValueError):
            batch_gradient(PointBatch(np.zeros((4, 2))), p)


class TestMatmul:
    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from([1, 127, 128, 129, 257, 300]),
           st.sampled_from([1, 127, 128, 129, 257, 300]),
           st.integers(1, 40), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_matmul_to_rounding(self, k, n, rows, transposed, with_out, seed):
        # chunking the sum and the columns changes only the rounding: both
        # results lie within gamma_k (|a| @ |b|) of the exact product
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((k, rows)).T if transposed else rng.standard_normal((rows, k))
        b = rng.standard_normal((k, n))
        out = np.full((rows, n), np.nan) if with_out else None
        got = kernel._matmul(a, b, out=out)
        assert got.shape == (rows, n) and (out is None or got is out)
        bound = 2 * k * np.finfo(np.float64).eps * (np.abs(a) @ np.abs(b))
        assert np.all(np.abs(got - a @ b) <= bound)
