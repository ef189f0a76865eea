"""Repulsive pair loss: kernel, batch loss, exact gradient, softening-scale rule.

The loss on a batch of points z_1..z_b in R^d is the mean over ordered pairs
i != j of

    K(z_i, z_j) = (|z_i|^2 + |z_j|^2)/2 - mu*N*log(1 + |z_i - z_j|^2 / N),

which combines a quadratic pull toward the origin with a log-softened
pairwise repulsion whose force peaks at distance sqrt(N).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

__all__ = [
    "ParamSet",
    "PointBatch",
    "choose_big_n",
    "pair_kernel",
    "batch_loss",
    "batch_loss_gram",
    "batch_loss_and_gradient",
]


def choose_big_n(dim: int, mu: float) -> float:
    """Softening scale N(d, mu) that puts the stationary sphere radius near sqrt(d).

    N = 2d * (1 + 1/(2*mu*(d-1))) / (2*mu - 1)
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if mu <= 0.5:
        raise ValueError(f"mu must exceed 1/2 (formula divides by 2*mu - 1), got {mu}")
    return 2.0 * dim * (1.0 + 1.0 / (2.0 * mu * (dim - 1))) / (2.0 * mu - 1.0)


@dataclass(frozen=True)
class ParamSet:
    """Loss parameters: latent dimension, repulsion strength, softening scale, weight."""

    dim: int
    mu: float
    big_n: float
    lam: float = 0.0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.mu < 0:
            raise ValueError(f"mu must be nonnegative, got {self.mu}")
        if not self.big_n > 0:
            raise ValueError(f"big_n must be positive, got {self.big_n}")
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")

    @classmethod
    def auto(cls, dim: int, mu: float, lam: float = 0.0) -> "ParamSet":
        """Build a ParamSet with N derived from (dim, mu).

        The derivation is calibrated for mu in [1, 2d+1]; outside that range
        the derived N is not guaranteed to put the stationary radius near
        sqrt(d), so it is rejected here (pass big_n explicitly instead).
        """
        if not (1.0 <= mu <= 2.0 * dim + 1.0):
            raise ValueError(
                f"auto-derived N requires 1 <= mu <= 2*dim+1, got mu={mu} at dim={dim}"
            )
        return cls(dim=dim, mu=mu, big_n=choose_big_n(dim, mu), lam=lam)


@dataclass(frozen=True)
class PointBatch:
    """b points in R^d stored as a (b, d) float64 matrix, row i = point z_i."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D (count, dim) array, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"empty batch, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("batch contains non-finite entries")
        object.__setattr__(self, "data", arr)

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def _check_pair(z_i: np.ndarray, z_j: np.ndarray, params: ParamSet):
    z_i = np.asarray(z_i, dtype=np.float64)
    z_j = np.asarray(z_j, dtype=np.float64)
    if z_i.shape != (params.dim,) or z_j.shape != (params.dim,):
        raise ValueError(
            f"points must have shape ({params.dim},), got {z_i.shape} and {z_j.shape}"
        )
    if not (np.all(np.isfinite(z_i)) and np.all(np.isfinite(z_j))):
        raise ValueError("non-finite point coordinates")
    return z_i, z_j


def pair_kernel(z_i: np.ndarray, z_j: np.ndarray, params: ParamSet) -> float:
    """Evaluate the pair kernel K(z_i, z_j)."""
    z_i, z_j = _check_pair(z_i, z_j, params)
    diff = z_i - z_j
    sq = float(diff @ diff)
    quad = 0.5 * (float(z_i @ z_i) + float(z_j @ z_j))
    return quad - params.mu * params.big_n * np.log1p(sq / params.big_n)


def _check_batch(batch: PointBatch, params: ParamSet):
    if batch.dim != params.dim:
        raise ValueError(f"batch dim {batch.dim} != params dim {params.dim}")
    if batch.count < 2:
        raise ValueError(f"loss needs at least 2 points, got {batch.count}")


def _loss(batch: PointBatch, params: ParamSet) -> tuple[float, np.ndarray]:
    """batch_loss, plus the matrix |z_i - z_j|^2 / N of its one distance pass.

    Squared distances are computed directly (not via the Gram expansion,
    which can go negative from cancellation).  The diagonal contributes
    log(1+0) = 0, so the full distance matrix is summed without masking.
    """
    _check_batch(batch, params)
    z = batch.data
    b = batch.count
    sq = cdist(z, z, "sqeuclidean")
    sq /= params.big_n
    quad = float(np.sum(z * z)) / b
    rep = params.mu * params.big_n * float(np.sum(np.log1p(sq)))
    return quad - rep / (b * (b - 1)), sq


def batch_loss(batch: PointBatch, params: ParamSet) -> float:
    """Mean of pair_kernel over all ordered pairs i != j."""
    return _loss(batch, params)[0]


def batch_loss_gram(batch: PointBatch, params: ParamSet) -> float:
    """Same loss via the dot-product (Gram) expansion of pairwise distances.

    Kept as an independent cross-check path; cancellation can push the
    expanded squared distances slightly negative, so they are clamped at 0.
    """
    _check_batch(batch, params)
    z = batch.data
    b = batch.count
    big_n = params.big_n
    xx = np.sum(z * z, axis=1)
    sq = xx[:, None] + xx[None, :] - 2.0 * (z @ z.T)
    np.maximum(sq, 0.0, out=sq)
    rep = params.mu * big_n * float(np.sum(np.log1p(sq / big_n))) / (b - 1)
    return (float(np.sum(xx)) - rep) / b


def batch_loss_and_gradient(batch: PointBatch, params: ParamSet) -> tuple[float, np.ndarray]:
    """batch_loss and its exact gradient in every coordinate, from one distance pass.

    Row i of the gradient is
    (2/b) z_i - (4 mu / (b(b-1))) * sum_{j != i} w_ij (z_i - z_j)
    with w_ij = 1 / (1 + |z_i - z_j|^2 / N), computed in place in the
    distance matrix.  The j = i term is w_ii * 0, so the unmasked
    contraction below is exact.
    """
    loss, w = _loss(batch, params)
    w += 1.0
    np.reciprocal(w, out=w)
    z, b = batch.data, batch.count
    rep = w.sum(axis=1)[:, None] * z - w @ z
    return loss, (2.0 / b) * z - (4.0 * params.mu / (b * (b - 1))) * rep
