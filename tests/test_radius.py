import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eccentric import radius
from eccentric.kernel import ParamSet, choose_big_n
from eccentric.radius import ForceProfile, SolverError, force_profile, solve_radius, sweep_radius
from eccentric.radius import (A_RTOL, MAX_ITER, RESIDUAL_TOL, SERIES_MIN_DIM, _integral,
                              _mu_grid, _solve_a)
from kernel_oracles import (_f_integrand, gamma_ratio, lemma_a_check, lemma_b_argmax,
                            lemma_b_argmax_numeric, stationarity_integral_mp)

# solve_radius(ParamSet(d, mu, choose_big_n(d, mu))) as (d, mu, rho.hex(), residual, iterations):
# any change to the order of the root search's operations changes some of these bits
PINNED_SOLVES = [
    (3, 1.0, '0x1.beafd962aea2dp+0', 6.661338147750939e-16, 6),
    (4, 2.5, '0x1.fb213f3e29c05p+0', -2.220446049250313e-16, 6),
    (12, 7.25, '0x1.bb29abeef6245p+1', -2.7755575615628914e-16, 5),
    (38, 1.5, '0x1.8a7cb0746f11dp+2', 9.992007221626409e-16, 6),
    (63, 40.0, '0x1.fbfb8b19df06ap+2', 6.4427629897778615e-15, 4),
    (64, 100.0, '0x1.ffffd4d1dc060p+2', 1.214306433183765e-17, 4),
    (117, 3.0, '0x1.5a2147bbeec0cp+3', 0.0, 6),
    (500, 250.0, '0x1.65c557f7a94dfp+4', 8.673617379884035e-19, 4),
]

# measured: 5-9 evaluations per cell over 200k random cells with d in [3, 2000] and
# mu in [1, 1e6] and over every cell of criterion 1's sweep; bisection takes 40
MAX_EVALS = 10


def bisect_a(dim, mu):
    """Oracle: plain bisection for I(a) = 1/mu over the closed-form bracket, with the
    stopping rule of _solve_a, elementwise over the 1-D arrays (dim, mu)."""
    target = 1.0 / mu
    lo, hi = 0.5 / (mu - 0.25), 1.0 / (mu - 0.5)
    mid = 0.5 * (lo + hi)
    g_mid = _integral(mid, dim) - target
    idx = np.arange(dim.size)
    for _ in range(MAX_ITER):
        up = g_mid[idx] < 0.0
        lo[idx] = np.where(up, mid[idx], lo[idx])
        hi[idx] = np.where(up, hi[idx], mid[idx])
        mid[idx] = 0.5 * (lo[idx] + hi[idx])
        g_mid[idx] = _integral(mid[idx], dim[idx]) - target[idx]
        done = (hi[idx] - lo[idx] <= A_RTOL * mid[idx]) & (np.abs(g_mid[idx]) < RESIDUAL_TOL)
        idx = idx[~done]
        if not idx.size:
            return mid
    raise AssertionError(f"oracle bisection stalled at d={dim[idx[0]]}, mu={mu[idx[0]]}")


def stationarity_integral(rho, dim, big_n):
    """Left-hand side of the stationarity condition at radius rho; 1/mu at the root."""
    return float(_integral(np.array([big_n / (2.0 * rho * rho)]), np.array([float(dim)]))[0])


class TestGammaRatio:
    def test_small_dims_closed_form(self):
        # Gamma(3/2)/Gamma(1) = sqrt(pi)/2, Gamma(2)/Gamma(3/2) = 2/sqrt(pi)
        assert gamma_ratio(3) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-14)
        assert gamma_ratio(4) == pytest.approx(2 / math.sqrt(math.pi), rel=1e-14)

    def test_large_dim_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        expected = float(mpmath.gamma(150) / mpmath.gamma(mpmath.mpf(299) / 2))
        assert gamma_ratio(300) == pytest.approx(expected, rel=1e-12)

    def test_no_overflow_at_huge_dim(self):
        # ratio grows like sqrt(d/2); direct Gamma would overflow long before
        assert gamma_ratio(10**6) == pytest.approx(math.sqrt(10**6 / 2), rel=1e-3)


class TestStationarityIntegral:
    def test_against_scipy_quad(self):
        # independent oracle: scipy's Gauss-Kronrod on the same integrand
        from scipy.integrate import quad
        dim, rho, big_n = 8, 2.0, 4.0
        a = big_n / (2 * rho * rho)
        expected, err = quad(lambda u: _f_integrand(np.array([u]), dim, a)[0],
                             1.0, 1.0 + 2.0 / a, epsabs=1e-14, epsrel=1e-14)
        got = stationarity_integral(rho, dim, big_n)
        assert err < 1e-12
        assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("dim", [131, 1000, 1001])
    @pytest.mark.parametrize("a", [1e-4, 0.469, 50.0])
    def test_large_dim_against_scipy_quad(self, dim, a):
        # scipy's own hyp2f1 returns nan or inf for odd d >= 131 near x = 1
        from scipy.integrate import quad
        p, q = 0.5 * (dim - 1), 0.5 * (dim - 3)
        mode = 1.0 + 2.0 * p / (p + q) / a
        expected, _ = quad(lambda u: _f_integrand(u, dim, a), 1.0, 1.0 + 2.0 / a,
                           points=[mode], epsabs=0.0, epsrel=1e-13, limit=200)
        got = stationarity_integral(1.0, dim, 2.0 * a)
        assert got == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("dim", [3, 4, 5, 12, 38, 117, 300, 1000])
    def test_against_mpmath_closed_form(self, dim):
        for mu in (1.0, 1.5, dim + 1.0, 2.0 * dim + 1.0):
            big_n = choose_big_n(dim, mu)
            for scale in (0.3, 1.0, 3.0):
                rho = scale * math.sqrt(dim)
                expected = stationarity_integral_mp(rho, dim, big_n)
                assert stationarity_integral(rho, dim, big_n) == pytest.approx(expected,
                                                                               rel=1e-11)

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(3, 1000), rho=st.floats(0.05, 50.0),
           big_n=st.floats(0.05, 5000.0), scale=st.floats(0.1, 10.0))
    def test_depends_on_n_and_rho_only_through_a(self, dim, rho, big_n, scale):
        v1 = stationarity_integral(rho, dim, big_n)
        v2 = stationarity_integral(scale * rho, dim, scale * scale * big_n)
        assert v2 == pytest.approx(v1, rel=1e-11)

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(3, 1000), rho=st.floats(0.1, 10.0),
           stretch=st.floats(1.001, 10.0))
    def test_strictly_decreasing_in_rho(self, dim, rho, stretch):
        # rho is measured in units of sqrt(N): a = 1/(2 rho^2) spans [5e-5, 50] and more
        assert stationarity_integral(rho, dim, 1.0) > stationarity_integral(stretch * rho,
                                                                            dim, 1.0)

    def test_near_unity_at_calibrated_radius(self):
        # at rho = sqrt(d) with N = N(d, mu) the integral should be close to 1/mu
        big_n = choose_big_n(64, 1.0)
        assert stationarity_integral(8.0, 64, big_n) == pytest.approx(1.0, abs=2e-4)

    def test_monotone_decreasing_in_rho(self):
        big_n = choose_big_n(16, 1.0)
        vals = [stationarity_integral(r, 16, big_n) for r in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_limits(self):
        # small rho pushes the integral toward 2, large rho toward 0
        big_n = choose_big_n(16, 1.0)
        assert stationarity_integral(0.05, 16, big_n) == pytest.approx(2.0, abs=5e-3)
        assert stationarity_integral(1e3, 16, big_n) < 1e-3

    def test_depends_only_on_a(self):
        # substitution a = N/(2 rho^2): doubling N and scaling rho by sqrt(2)
        # leaves the integral unchanged
        v1 = stationarity_integral(2.0, 8, 4.0)
        v2 = stationarity_integral(2.0 * math.sqrt(2.0), 8, 8.0)
        assert v2 == pytest.approx(v1, rel=1e-11)


class TestSolveRadius:
    @pytest.mark.parametrize("dim,mu", [(3, 1.0), (8, 2.0), (64, 1.0), (64, 16.5)])
    def test_root_residual(self, dim, mu):
        big_n = choose_big_n(dim, mu)
        sol = solve_radius(ParamSet(dim, mu, big_n))
        assert abs(stationarity_integral(sol.rho, dim, big_n) - 1.0 / mu) < 1e-10
        assert abs(sol.residual) < 1e-10

    def test_rho_near_sqrt_d(self):
        sol = solve_radius(ParamSet(64, 1.0, choose_big_n(64, 1.0)))
        assert sol.rho == pytest.approx(8.0, rel=2e-4)

    @pytest.mark.parametrize("big_n", [8.0, 1e-40, 1e-20, 1e20, 1e40])
    def test_scaling_with_big_n(self, big_n):
        # the condition depends on N and rho only through a = N/(2 rho^2)
        s1 = solve_radius(ParamSet(8, 1.5, 4.0))
        s2 = solve_radius(ParamSet(8, 1.5, big_n))
        assert s2.rho == pytest.approx(s1.rho * math.sqrt(big_n / 4.0), rel=1e-9)
        assert abs(stationarity_integral(s2.rho, 8, big_n) - 1.0 / 1.5) < 1e-10

    @pytest.mark.parametrize("big_n, mu", [
        pytest.param(5e-324, 1e6, id="5e-324"),
        pytest.param(1e308, 1e6, id="1e+308"),
        pytest.param(5e-324, sys.float_info.max, id="5e-324-largest-mu"),
        pytest.param(1e308, sys.float_info.max, id="1e+308-largest-mu"),
    ])
    def test_any_positive_float_n(self, big_n, mu):
        # at mu = 1e6, a ~ 7e-7: N/(2a) would overflow at 1e308 and lose digits at
        # 5e-324; at the largest float, 4 mu itself overflows
        s1 = solve_radius(ParamSet(4, mu, 1.0))
        assert solve_radius(ParamSet(4, mu, big_n)).rho == pytest.approx(
            s1.rho * math.sqrt(big_n), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(3, 2000), mu=st.floats(1.0, sys.float_info.max))
    def test_any_finite_mu_solves(self, dim, mu):
        rho = solve_radius(ParamSet(dim, mu, 1.0)).rho
        assert 0.0 < rho < math.inf

    @settings(max_examples=300, deadline=None)
    @given(dim=st.integers(3, 2000), mu=st.floats(1.0, 1e6))
    def test_root_inside_closed_form_bracket(self, dim, mu):
        # 2a/(a+2) <= I(a) < 4a/(a+2) by Gauss's sum, so I = 1/mu has its root in between
        def integral(a):
            return stationarity_integral(1.0, dim, 2.0 * a)

        assert integral(2.0 / (4.0 * mu - 1.0)) < 1.0 / mu < integral(2.0 / (2.0 * mu - 1.0))

    @settings(max_examples=300, deadline=None)
    @given(dim=st.integers(3, 2000), mu=st.floats(1.0, 1e6))
    def test_matches_bisection_oracle(self, dim, mu):
        a, res, _ = _solve_a(np.array([float(dim)]), np.array([mu]))
        assert a[0] == pytest.approx(bisect_a(np.array([float(dim)]), np.array([mu]))[0],
                                     rel=1e-11)
        assert abs(res[0]) < RESIDUAL_TOL

    @settings(max_examples=300, deadline=None)
    @given(dim=st.integers(3, 2000), mu=st.floats(1.0, 1e6))
    def test_evaluations_capped(self, dim, mu):
        sol = solve_radius(ParamSet(dim, mu, 1.0))
        assert sol.quadrature_points == sol.iterations + 2 <= MAX_EVALS

    def test_sweep_cells_capped(self):
        # every cell of criterion 1's sweep at d = 12, 38 and 117, solved as sweep_radius does
        grids = [_mu_grid(d, 0.25) for d in (12, 38, 117)]
        mu = np.concatenate(grids)
        dim = np.concatenate([np.full(g.size, float(d)) for d, g in zip((12, 38, 117), grids)])
        a, res, iterations = _solve_a(dim, mu)
        assert iterations.max() + 2 <= MAX_EVALS
        assert np.abs(res).max() < RESIDUAL_TOL
        np.testing.assert_allclose(a, bisect_a(dim, mu), rtol=1e-11)

    @settings(max_examples=100, deadline=None)
    @given(small=st.lists(st.tuples(st.integers(3, SERIES_MIN_DIM - 1), st.floats(0.0, 1.0)),
                          min_size=1, max_size=6),
           big=st.lists(st.tuples(st.integers(SERIES_MIN_DIM, 300), st.floats(0.0, 1.0)),
                        min_size=1, max_size=6),
           rnd=st.randoms())
    def test_cells_independent_of_batch(self, small, big, rnd):
        # a batch mixes both 2F1 paths, and its cells finish at different steps; each
        # cell must come out as it does alone, bit for bit
        cells = small + big
        rnd.shuffle(cells)
        dim = np.array([float(d) for d, _ in cells])
        mu = 1.0 + 2.0 * dim * np.array([f for _, f in cells])
        a, res, iterations = _solve_a(dim, mu)
        for i in range(dim.size):
            a1, res1, iterations1 = _solve_a(dim[i:i + 1], mu[i:i + 1])
            assert (a[i].hex(), res[i].hex(), iterations[i]) == (
                a1[0].hex(), res1[0].hex(), iterations1[0])

    @pytest.mark.parametrize("dim, mu, rho_hex, residual, iterations", PINNED_SOLVES)
    def test_pinned_iterates(self, dim, mu, rho_hex, residual, iterations):
        sol = solve_radius(ParamSet(dim, mu, choose_big_n(dim, mu)))
        assert (sol.rho.hex(), sol.residual, sol.iterations) == (rho_hex, residual, iterations)

    @pytest.mark.parametrize("dim, mu", [
        # a is subnormal: the lower end's rounded residual is already >= 0, so the
        # evaluated bracket has no sign change and the root is that end
        pytest.param(3, 1.6798029063528636e308, id="subnormal-a"),
        pytest.param(2000, sys.float_info.max, id="largest-mu"),
    ])
    def test_extreme_mu(self, dim, mu):
        sol = solve_radius(ParamSet(dim, mu, 1.0))
        assert 0.0 < sol.rho < math.inf and abs(sol.residual) < RESIDUAL_TOL
        a = bisect_a(np.array([float(dim)]), np.array([mu]))[0]
        assert sol.rho == pytest.approx(1.0 / math.sqrt(2.0 * a), rel=1e-11)

    @pytest.mark.parametrize("fake", [
        pytest.param(lambda a, dim: np.full_like(a, np.nan), id="nan"),
        # I = 2 > 1/mu at both ends: the bracket collapses onto its lower end, whose
        # residual never meets the stopping rule
        pytest.param(lambda a, dim: np.full_like(a, 2.0), id="zero-width"),
    ])
    def test_stall_raises_after_max_iter(self, monkeypatch, fake):
        calls = []
        monkeypatch.setattr(radius, "_integral", lambda a, dim: calls.append(a) or fake(a, dim))
        with pytest.raises(SolverError, match=r"d=4, mu=2\.0"):
            solve_radius(ParamSet(4, 2.0, 5.0))
        assert len(calls) == MAX_ITER + 2

    def test_deterministic(self):
        s1 = solve_radius(ParamSet(12, 2.0, choose_big_n(12, 2.0)))
        s2 = solve_radius(ParamSet(12, 2.0, choose_big_n(12, 2.0)))
        assert s1.rho == s2.rho

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            solve_radius(ParamSet(2, 1.0, 6.0))
        with pytest.raises(ValueError):
            solve_radius(ParamSet(8, 0.9, 6.0))
        with pytest.raises(ValueError):
            solve_radius(ParamSet(8, 1.0, 0.0))


# every function with a dimension limit: (least dim, smallest dim it can be given, call at d)
DIM_LIMITED = {
    "ParamSet": (2, -10**6, lambda d: ParamSet(d, 1.0, 1.0)),
    "choose_big_n": (2, -10**6, lambda d: choose_big_n(d, 1.0)),
    "choose_big_n-array": (2, -10**6, lambda d: choose_big_n(np.array([8, d, 3]), 1.0)),
    # a ParamSet holds d >= 2, so d = 2 is the one dim below the limit it can carry
    "solve_radius": (3, 2, lambda d: solve_radius(ParamSet(d, 1.0, 1.0))),
    "sweep_radius": (3, -10**6, lambda d: sweep_radius([d], mu_step=1.0)),
}


@pytest.mark.parametrize("name", DIM_LIMITED)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_one_message_per_dim_limit(name, data):
    least, floor, call = DIM_LIMITED[name]
    d = data.draw(st.integers(floor, least - 1))
    with pytest.raises(ValueError) as caught:
        call(d)
    assert str(caught.value) == f"dim must be >= {least}, got {d}"


class TestSweepRadius:
    def test_small_sweep(self):
        rows = sweep_radius([3, 4], mu_step=1.0)
        assert [d for d, _ in rows] == [3, 4]
        assert all(0.0 <= pct < 5.0 for _, pct in rows)

    @pytest.mark.parametrize("dims,step", [([3, 4, 12], 1.0), ([4, 38], 5.0),
                                           ([38, 117], 16.0)])
    def test_rows_match_solve_radius(self, dims, step):
        rows = sweep_radius(dims, mu_step=step)
        assert [d for d, _ in rows] == dims
        for d, pct in rows:
            mus = np.arange(1.0, 2.0 * d + 1.0 + 1e-9, step)
            expected = max(
                abs(solve_radius(ParamSet(d, mu, choose_big_n(d, mu))).rho - math.sqrt(d))
                / math.sqrt(d) * 100.0 for mu in mus)
            assert pct == pytest.approx(expected, rel=1e-10)

    def test_mu_grid_stays_in_calibrated_range(self):
        np.testing.assert_array_equal(_mu_grid(38, 16.0), [1.0, 17.0, 33.0, 49.0, 65.0])
        np.testing.assert_array_equal(_mu_grid(117, 16.0)[-1], 225.0)
        for d in (3, 12, 38, 117):
            # criterion 1's step: every quarter from 1 to 2d + 1 inclusive
            np.testing.assert_array_equal(_mu_grid(d, 0.25),
                                          np.arange(1.0, 2.0 * d + 1.125, 0.25))
            for step in (0.1, 0.3, 0.7, 3.0, 16.0, 1000.0):
                grid = _mu_grid(d, step)
                assert grid[0] == 1.0 and grid[-1] <= 2.0 * d + 1.0
                assert grid[-1] + step > 2.0 * d + 1.0 - 1e-9

    def test_empty_dims(self):
        assert sweep_radius([], mu_step=1.0) == []

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sweep_radius([2], mu_step=1.0)
        with pytest.raises(ValueError):
            sweep_radius([4], mu_step=0.0)


class TestLemmaA:
    @pytest.mark.parametrize("dim", [3, 4, 8, 64])
    @pytest.mark.parametrize("a", [0.05, 0.5, 1.0, 1.95])
    def test_first_moment_is_two(self, dim, a):
        assert lemma_a_check(dim, a) == pytest.approx(2.0, abs=1e-10)


class TestLemmaB:
    def test_known_value(self):
        # at d = 4, a = 1 the quadratic is u^2 - 3 = ... root (1 + sqrt(13))/2
        assert lemma_b_argmax(4, 1.0) == pytest.approx((1 + math.sqrt(13)) / 2,
                                                       rel=1e-14)

    @pytest.mark.parametrize("dim", [4, 5, 8, 64])
    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 1.9])
    def test_matches_numeric_search(self, dim, a):
        closed = lemma_b_argmax(dim, a)
        numeric = lemma_b_argmax_numeric(dim, a)
        assert closed == pytest.approx(numeric, abs=1e-6)

    @pytest.mark.parametrize("dim", [4, 8, 64])
    @pytest.mark.parametrize("a", [0.1, 1.0, 1.9])
    def test_root_satisfies_stationarity(self, dim, a):
        u = lemma_b_argmax(dim, a)
        lhs = a
        rhs = (1.0 + 1.0 / (u * (dim - 3) + 1.0)) / (u - 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_root_inside_support(self):
        for a in (0.1, 1.0, 1.9):
            u = lemma_b_argmax(8, a)
            assert 1.0 < u < 1.0 + 2.0 / a


class TestForceProfile:
    def test_peak_at_sqrt_n(self):
        p = ParamSet(dim=8, mu=1.0, big_n=16.0)
        prof = force_profile(p, r_max=10.0, steps=10001)
        k = int(np.argmax(prof.magnitudes))
        assert prof.distances[k] == pytest.approx(4.0, abs=2e-3)
        # peak magnitude is mu * sqrt(N)
        assert prof.magnitudes[k] == pytest.approx(4.0, abs=1e-5)

    def test_zero_at_origin(self):
        p = ParamSet(dim=8, mu=1.0, big_n=16.0)
        prof = force_profile(p, r_max=1.0, steps=11)
        assert prof.distances[0] == 0.0
        assert prof.magnitudes[0] == 0.0

    def test_matches_formula(self):
        p = ParamSet(dim=8, mu=2.0, big_n=9.0)
        prof = force_profile(p, r_max=5.0, steps=6)
        r = prof.distances
        np.testing.assert_allclose(prof.magnitudes,
                                   2 * p.mu * r / (1 + r * r / p.big_n),
                                   rtol=1e-14)

    def test_rejects_bad_args(self):
        p = ParamSet(dim=8, mu=1.0, big_n=16.0)
        with pytest.raises(ValueError):
            force_profile(p, r_max=0.0, steps=10)
        with pytest.raises(ValueError):
            force_profile(p, r_max=1.0, steps=1)
