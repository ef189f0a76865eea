"""Stationary sphere radius: closed-form integral, root search, force profile.

A uniform distribution on the sphere of radius rho in dimension d >= 3 is a
stationary point of the repulsive pair loss exactly when

    integral over u in [1, 1 + 4 rho^2/N] of f_{d,a}(u) du  =  1/mu,

with a = N/(2 rho^2) and

    f_{d,a}(u) = (2a/sqrt(pi)) * (Gamma(d/2)/Gamma((d-1)/2))
                 * (a(u-1))^((d-1)/2) * (2 - a(u-1))^((d-3)/2) / u.

With t = a(u-1) this is Euler's integral of a Jacobi weight against
1/(1 + t/a) (DLMF 15.6.1).  Pfaff's transform (DLMF 15.8.1) moves the 2F1
argument -2/a into (0, 1), and Legendre's duplication formula (DLMF 5.5.5)
collapses the Gamma and Beta prefactor to exactly 2:

    I(a) = 2a/(a+2) * 2F1(1, (d-1)/2; d; 2/(a+2)).

I depends on (N, rho) only through a and rises with a.  The 2F1 factor has
positive coefficients and equals exactly 2 at x = 1 (Gauss's sum, DLMF
15.4.20), so 2a/(a+2) <= I(a) < 4a/(a+2): the root of I(a) = 1/mu lies in
[2/(4mu-1), 2/(2mu-1)] for every d >= 3 and mu >= 1.  One array-valued
root search from that bracket solves for a (a single cell or a whole (d, mu)
sweep): Chandrupatla's method (Adv. Eng. Softw. 28 (1997) 145-149), inverse
quadratic interpolation safeguarded by bisection.  It keeps a plain
bisection's bracket and stopping rule, and meets that rule in 5-9
evaluations of I per cell for d <= 2000 and mu <= 1e6.  Then
rho = sqrt(N)/sqrt(2a); the quotient N/(2a) itself can overflow or
underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernel import ParamSet, _check_dim, choose_big_n

__all__ = [
    "SolverError",
    "RadiusSolution",
    "ForceProfile",
    "solve_radius",
    "sweep_radius",
    "force_profile",
]


class SolverError(FloatingPointError):
    """The root search for a stalled (MAX_ITER steps) for the given parameters."""


@dataclass(frozen=True)
class RadiusSolution:
    """Solved stationary radius with residual and work diagnostics.

    iterations counts root-search steps; quadrature_points counts closed-form
    evaluations of the integral, the two at the bracket ends included.
    """

    rho: float
    residual: float
    iterations: int
    quadrature_points: int


@dataclass(frozen=True)
class ForceProfile:
    """Sampled magnitude 2 mu r / (1 + r^2/N) of the pairwise repulsion."""

    distances: np.ndarray = field(repr=False)
    magnitudes: np.ndarray = field(repr=False)


SERIES_MIN_DIM = 64
SERIES_TERMS = 128
# a relative width of A_RTOL in a is 1e-12 in rho = sqrt(N)/sqrt(2a)
A_RTOL = 2e-12
RESIDUAL_TOL = 1e-10
MAX_ITER = 200


def _hyp2f1_pfaff(dim: np.ndarray, x: np.ndarray) -> np.ndarray:
    """2F1(1, (d-1)/2; d; x) for x in (0, 1), elementwise over 1-D arrays.

    scipy's hyp2f1 matches 30-digit mpmath to ~1e-13 below d = 131, but
    returns nan or inf for every odd d >= 131 above x = 0.9.  From d = 64 on
    the direct series is summed instead: its terms shrink like (x/2)^n for
    n << d and like n^(-(d+1)/2) even at x = 1, so SERIES_TERMS terms leave
    a tail below 3e-17.
    """
    # imported here: scipy.special adds ~0.25 s to every CLI start
    from scipy.special import hyp2f1

    small = dim < SERIES_MIN_DIM
    if small.all():
        return hyp2f1(1.0, 0.5 * (dim - 1.0), dim, x)
    if not small.any():
        return _pfaff_series(dim, x)
    out = np.empty_like(x)
    out[small] = hyp2f1(1.0, 0.5 * (dim[small] - 1.0), dim[small], x[small])
    big = ~small
    out[big] = _pfaff_series(dim[big], x[big])
    return out


def _pfaff_series(dim: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The first SERIES_TERMS terms of 2F1(1, (d-1)/2; d; x), elementwise."""
    b = 0.5 * (dim[:, None] - 1.0)
    j = np.arange(SERIES_TERMS)
    terms = np.cumprod((b + j) / (dim[:, None] + j) * x[:, None], axis=1)
    return 1.0 + terms.sum(axis=1)


def _integral(a: np.ndarray, dim: np.ndarray) -> np.ndarray:
    """Closed-form stationarity integral I(a), elementwise over 1-D arrays."""
    return 2.0 * a / (a + 2.0) * _hyp2f1_pfaff(dim, 2.0 / (a + 2.0))


def _solve_a(dim, mu):
    """Solve I(a) = 1/mu for every cell of the 1-D arrays (dim, mu).

    Chandrupatla's safeguarded root search (Adv. Eng. Softw. 28 (1997)
    145-149) from the closed-form bracket: each step moves to the inverse
    quadratic interpolant through the bracket's ends and the point last
    dropped where Chandrupatla's test finds the three fit for it, and
    bisects otherwise.  A cell stops once its bracket is A_RTOL-relative
    narrow and the smaller residual of its ends under RESIDUAL_TOL; that end
    is returned.  Returns (a, residual, iterations); each cell makes
    iterations + 2 evaluations.

    The three points and their residuals are six 1-D arrays over the cells
    still searching, compacted on the steps where some cell stops.  Every
    operation is elementwise, so a cell's iterates do not depend on the
    batch it is solved in.
    """
    target = 1.0 / mu
    # 2/(4mu-1) and 2/(2mu-1), scaled by exact powers of 2 so 4mu cannot overflow
    lo, hi = 0.5 / (mu - 0.25), 1.0 / (mu - 0.5)
    g_lo, g_hi = _integral(lo, dim) - target, _integral(hi, dim) - target
    # the residual rises with a: an end whose rounded residual has the other end's sign
    # (a subnormal a at mu = 1.7e308) is the root in floats, and the bracket collapses onto it
    hi, g_hi = np.where(g_lo >= 0.0, lo, hi), np.where(g_lo >= 0.0, g_lo, g_hi)
    lo, g_lo = np.where(g_hi <= 0.0, hi, lo), np.where(g_hi <= 0.0, g_hi, g_lo)
    # x1 is the newest point, x2 the bracket's other end and x3 the point last dropped
    # (none yet: its nan residual g3 makes the first step bisect); g1, g2, g3 their residuals
    x1, x2, x3, g1, g2, g3 = lo, hi, hi, g_lo, g_hi, np.full_like(g_hi, np.nan)
    a, res, iterations = np.empty_like(lo), np.empty_like(lo), np.zeros(dim.size, dtype=np.int64)
    idx = np.arange(dim.size)
    for step in range(MAX_ITER + 1):
        near = np.abs(g1) < np.abs(g2)
        a_best, g_best = np.where(near, x1, x2), np.where(near, g1, g2)
        width = x2 - x1
        done = (np.abs(width) <= A_RTOL * a_best) & (np.abs(g_best) < RESIDUAL_TOL)
        if done.any():
            fin = idx[done]
            a[fin], res[fin], iterations[fin] = a_best[done], g_best[done], step
            if fin.size == idx.size:
                return a, res, iterations
            # from here on idx, dim, target and the bracket hold the live cells only
            live = ~done
            idx, dim, target, a_best, g_best, width, x1, x2, x3, g1, g2, g3 = (
                v[live] for v in (idx, dim, target, a_best, g_best, width, x1, x2, x3, g1, g2, g3))
        if step == MAX_ITER:
            break
        # a nan residual or a collapsed bracket divides by zero here and bisects
        with np.errstate(divide="ignore", invalid="ignore"):
            g12, g32 = g1 - g2, g3 - g2
            xi, phi = (x1 - x2) / (x3 - x2), g12 / g32
            fit = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
            t = np.where(fit, g1 / g12 * g3 / g32 + (x3 - x1) / width * g1 / (g3 - g1) * g2 / g32,
                         0.5)
            # no step lands within half the stopping width of an end
            t_min = np.fmin(0.5 * A_RTOL * a_best / np.abs(width), 0.5)
        new = x1 + np.clip(t, t_min, 1.0 - t_min) * width
        g_new = _integral(new, dim) - target
        # the new point replaces the bracket end whose residual has its sign
        same = np.sign(g_new) == np.sign(g1)
        x1, x2, x3 = new, np.where(same, x2, x1), np.where(same, x1, x2)
        g1, g2, g3 = g_new, np.where(same, g2, g1), np.where(same, g1, g2)
    raise SolverError(f"root search stalled at a={a_best[0]} with residual {g_best[0]} "
                      f"for (d={int(dim[0])}, mu={mu[idx[0]]})")


def solve_radius(params: ParamSet) -> RadiusSolution:
    """Solve the stationarity condition for rho at params' (d >= 3, mu >= 1, N).

    Finds a = N/(2 rho^2) in [2/(4mu-1), 2/(2mu-1)], a bracket that holds
    because 2a/(a+2) <= I(a) < 4a/(a+2) (Gauss's sum, DLMF 15.4.20), by
    Chandrupatla's bisection-safeguarded interpolation (1997), to a bracket
    A_RTOL-relative narrow with residual under RESIDUAL_TOL, and returns
    rho = sqrt(N)/sqrt(2a): N only rescales the answer, and no positive float
    N overflows or underflows on the way.
    """
    _check_dim(params.dim, 3)
    if params.mu < 1.0:
        raise ValueError(f"solver assumes mu >= 1, got {params.mu}")
    a, res, iters = _solve_a(np.array([float(params.dim)]), np.array([float(params.mu)]))
    return RadiusSolution(rho=math.sqrt(params.big_n) / math.sqrt(2.0 * a[0]),
                          residual=float(res[0]),
                          iterations=int(iters[0]), quadrature_points=int(iters[0]) + 2)


def _mu_grid(dim: int, mu_step: float) -> np.ndarray:
    """mu = 1, 1 + step, ... up to and including the last value <= 2d + 1."""
    try:
        steps = np.arange(math.floor(2.0 * dim / mu_step * (1.0 + 1e-12)) + 1)
    except (OverflowError, ValueError, MemoryError):
        raise ValueError(f"mu_step {mu_step} is too small: "
                         f"the mu grid at d={dim} does not fit in memory") from None
    return np.minimum(1.0 + mu_step * steps, 2.0 * dim + 1.0)


def sweep_radius(dims, mu_step: float = 0.25) -> list[tuple[int, float]]:
    """Max percent deviation of rho from sqrt(d) over mu in [1, 2d+1], per dimension.

    All (d, mu) cells are solved in one array-valued root search, the same
    Chandrupatla iteration as solve_radius, each cell leaving it once its own
    bracket and residual meet the stopping rule.  Returns one (d, max_percent)
    row per entry of dims, in input order.
    """
    if not 0 < mu_step < math.inf:
        raise ValueError(f"mu_step must be finite and positive, got {mu_step}")
    dims = list(dims)
    _check_dim(np.array(dims), 3)
    if not dims:
        return []
    grids = [_mu_grid(d, mu_step) for d in dims]
    mu = np.concatenate(grids)
    dim = np.concatenate([np.full(g.size, float(d)) for d, g in zip(dims, grids)])
    big_n = choose_big_n(dim, mu)
    a, _, _ = _solve_a(dim, mu)
    rho = np.sqrt(big_n) / np.sqrt(2.0 * a)
    pct = np.abs(rho - np.sqrt(dim)) / np.sqrt(dim) * 100.0
    bounds = np.cumsum([0] + [g.size for g in grids])
    return [(d, float(pct[s:e].max())) for d, s, e in zip(dims, bounds[:-1], bounds[1:])]


def force_profile(params: ParamSet, r_max: float, steps: int) -> ForceProfile:
    """Sample the pairwise repulsion magnitude on a uniform grid including r = 0."""
    if not 0 < r_max < math.inf:
        raise ValueError(f"r_max must be finite and positive, got {r_max}")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    r = np.linspace(0.0, r_max, steps)
    mag = 2.0 * params.mu * r / (1.0 + r * r / params.big_n)
    return ForceProfile(distances=r, magnitudes=mag)
