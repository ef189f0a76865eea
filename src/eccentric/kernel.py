"""Repulsive pair loss: batch loss, exact gradient, softening-scale rule.

The loss on a batch of points z_1..z_b in R^d is the mean over ordered pairs
i != j of

    K(z_i, z_j) = (|z_i|^2 + |z_j|^2)/2 - mu*N*log(1 + |z_i - z_j|^2 / N),

which combines a quadratic pull toward the origin with a log-softened
pairwise repulsion whose force peaks at distance sqrt(N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ParamSet",
    "PointBatch",
    "choose_big_n",
    "batch_loss",
    "batch_gradient",
    "batch_loss_and_gradient",
]


def _check_dim(dim, least: int) -> None:
    """The one check of every dimension limit: dim (a number or an array) >= least."""
    # ndarray methods: np.any takes ~3 us on the bool of a scalar call
    low = np.asarray(dim < least)
    if low.any():
        raise ValueError(f"dim must be >= {least}, got {np.asarray(dim)[low].flat[0]}")


def choose_big_n(dim, mu):
    """Softening scale N(d, mu) that puts the stationary sphere radius near sqrt(d).

    N = 2d * (1 + 1/(2*mu*(d-1))) / (2*mu - 1), calibrated for mu in [1, 2d+1]
    (radius.sweep_radius checks that range); any other mu is rejected.  dim
    and mu may be numbers or numpy arrays that broadcast together.
    """
    _check_dim(dim, 2)  # not left to ParamSet: the CLI derives N before it builds one
    if not np.asarray((1.0 <= mu) & (mu <= 2.0 * dim + 1.0)).all():
        raise ValueError(f"N(d, mu) requires 1 <= mu <= 2*dim+1, got mu={mu} at dim={dim}")
    return 2.0 * dim * (1.0 + 1.0 / (2.0 * mu * (dim - 1))) / (2.0 * mu - 1.0)


@dataclass(frozen=True)
class ParamSet:
    """Loss parameters: latent dimension, repulsion strength, softening scale, weight."""

    dim: int
    mu: float
    big_n: float
    lam: float = 0.0

    def __post_init__(self):
        _check_dim(self.dim, 2)
        if not 0 <= self.mu < math.inf:
            raise ValueError(f"mu must be finite and nonnegative, got {self.mu}")
        if not 0 < self.big_n < math.inf:
            raise ValueError(f"big_n must be finite and positive, got {self.big_n}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")


@dataclass(frozen=True)
class PointBatch:
    """b points in R^d as a (b, d) float64 matrix, row i = z_i, with optional labels."""

    data: np.ndarray = field(repr=False)
    labels: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D (count, dim) array, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"empty batch, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("batch contains non-finite entries")
        object.__setattr__(self, "data", arr)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (arr.shape[0],):
                raise ValueError(f"count mismatch: {len(arr)} points, labels shape {labels.shape}")
            object.__setattr__(self, "labels", labels)

    @classmethod
    def named(cls, source, data, labels=None) -> PointBatch:
        """PointBatch(data, labels), with source in front of any error it raises."""
        try:
            return cls(data, labels)
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


_CHUNK = 128  # the most terms, and the most output columns, of one BLAS product
_PAIR_TILE = 128  # side of the square tiles of the b x b distance matrix
_GRAM_C = 16.0  # the guard's c in _pair_pass; flow's tile sums read ~3 N


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b from BLAS calls that each sum at most _CHUNK terms into at most _CHUNK columns,
    a longer sum's chunks added in a fixed order, so no bit depends on the BLAS thread count."""
    k, n = b.shape
    if k <= _CHUNK and n <= _CHUNK:
        return np.matmul(a, b, out=out)
    out = np.empty((a.shape[0], n)) if out is None else out
    for lo in range(0, n, _CHUNK):
        cols = out[:, lo:lo + _CHUNK]
        np.matmul(a[:, :_CHUNK], b[:_CHUNK, lo:lo + _CHUNK], out=cols)
        for mid in range(_CHUNK, k, _CHUNK):
            cols += a[:, mid:mid + _CHUNK] @ b[mid:mid + _CHUNK, lo:lo + _CHUNK]
    return out


def _pair_pass(batch: PointBatch, params: ParamSet, want_loss: bool, want_grad: bool):
    """(loss or None, gradient or None) from one distance pass in square tiles.

    The upper triangle of the matrix of d^2 = |z_i - z_j|^2 is taken one
    _PAIR_TILE-square tile I x J at a time, diagonal tiles included.  A full
    tile whose largest |z_i|^2 and |z_j|^2 sum to at most c N (c = _GRAM_C)
    takes G = N + d^2 from one Gram product [-2z, |z|^2 + N, 1] @ [z, 1, |z|^2].T,
    adds its log(G/N) sum to the loss and turns G into the weights
    w_ij = N / (N + d^2) in one pass.  Other tiles take d^2 from direct
    differences, add log1p(d^2/N) and form N / (N + d^2) in two passes.
    One product with z1 = [z, 1] gives sum_j w_ij z_j and sum_j w_ij at once;
    acc gathers them, and the repulsion acc[i, -1] z_i - acc[i, :-1] is formed
    at the end.  Since w_ij = w_ji, a tile above the diagonal serves both of
    its row sets: its log sum counts twice and w.T @ z1[I] adds to rows J.
    The diagonal adds log(1) = 0 (to within the Gram error) and w_ii (z_i - z_i).
    Every product goes through _matmul and tiles add in a fixed order, so the
    bits do not depend on the BLAS thread count.
    """
    if batch.dim != params.dim:
        raise ValueError(f"batch dim {batch.dim} != params dim {params.dim}")
    if batch.count < 2:
        raise ValueError(f"loss needs at least 2 points, got {batch.count}")
    z, b, d, big_n = batch.data, batch.count, batch.dim, params.big_n
    # The bound.  With u = 2^-53 and gamma_n = nu/(1-nu), s_i = fl(|z_i|^2) errs by
    # <= gamma_d s_i and fl(s_i + N) by <= u (c+1) N more, and a Gram entry G (a
    # length-(d+2) dot product, any order) by <= gamma_{d+2} (2|z_i||z_j| + s_i + N + s_j),
    # so to first order |G - (N + d^2)| <= 3 gamma_{d+2} (s_i + s_j) + gamma_{d+2} N
    # + u (c+1) N <= ((3c+1) gamma_{d+2} + (c+1) u) N under the guard.  As N + d^2 >= N,
    # w errs by at most that relative, and log(G/N), with the one rounding of G/N, by
    # that plus u absolute: 1.0e-13 at d = 16, 3.6e-13 at d = 64 (c = 16).  Doubling is
    # exact; underflow adds <= (2d+2) 2^-1075 to G.  An overflowing |z|^2 fails the guard.
    full = b - b % _PAIR_TILE  # rows [0, full) fill whole tiles
    ext = np.ones((b, d + 2))  # [z, 1, |z|^2] when some tile is full; z1 = [z, 1] is a view
    ext[:, :d] = z
    acc = np.zeros((b, d + 1))
    blocks = [slice(lo, lo + _PAIR_TILE) for lo in range(0, b, _PAIR_TILE)]  # sliced once per call
    z1s, accs = ([a[s] for s in blocks] for a in (ext[:, :d + 1], acc))
    if full:
        ext[:, -1] = sq = np.einsum("ij,ij->i", z, z)
        left = np.concatenate((-2.0 * z, (sq + big_n)[:, None], np.ones((b, 1))), axis=1)
        right = ext.T.copy()  # contiguous: a transposed view makes each product ~40% slower
        lefts, rights = [left[s] for s in blocks], [right[:, s] for s in blocks]
        top = sq[:full].reshape(-1, _PAIR_TILE).max(axis=1).tolist()
    log_sum, n_full = 0.0, full // _PAIR_TILE
    for i in range(len(blocks)):
        for j in range(i, len(blocks)):
            gram = j < n_full and top[i] + top[j] <= _GRAM_C * big_n
            if gram:
                w = _matmul(lefts[i], rights[j])  # N + d^2
            else:
                # imported only where a tile needs it: scipy.spatial adds ~0.25 s and ~30 MiB
                from scipy.spatial.distance import cdist
                w = cdist(z[blocks[i]], z[blocks[j]], "sqeuclidean")
            if want_loss:
                t = w / big_n
                (np.log if gram else np.log1p)(t, out=t)
                log_sum += (1 + (j > i)) * float(np.sum(t))
            if want_grad:
                if not gram:
                    w += big_n
                np.divide(big_n, w, out=w)
                accs[i] += _matmul(w, z1s[j])
                if j > i:
                    accs[j] += _matmul(w.T, z1s[i])
    left = lefts = right = rights = ext = z1s = None  # freed before the temporaries below
    pairs = b * (b - 1)
    loss = float(np.sum(z * z)) / b - params.mu * big_n * log_sum / pairs if want_loss else None
    if not want_grad:
        return loss, None
    g = acc[:, :-1] - acc[:, -1:] * z  # -(acc[:, -1:] z - acc[:, :-1]), exactly
    g *= 4.0 * params.mu / pairs
    g += (2.0 / b) * z
    return loss, g


def batch_loss(batch: PointBatch, params: ParamSet) -> float:
    """Mean of the pair kernel K(z_i, z_j) over all ordered pairs i != j."""
    return _pair_pass(batch, params, want_loss=True, want_grad=False)[0]


def batch_gradient(batch: PointBatch, params: ParamSet) -> np.ndarray:
    """The gradient of batch_loss_and_gradient, without evaluating the loss."""
    return _pair_pass(batch, params, want_loss=False, want_grad=True)[1]


def batch_loss_and_gradient(batch: PointBatch, params: ParamSet) -> tuple[float, np.ndarray]:
    """batch_loss and its exact gradient in every coordinate, from one distance pass.

    Row i of the gradient is
    (2/b) z_i - (4 mu / (b(b-1))) * sum_{j != i} w_ij (z_i - z_j)
    with w_ij = 1 / (1 + |z_i - z_j|^2 / N) = N / (N + |z_i - z_j|^2).  The
    loss is bit-identical to batch_loss and the gradient to batch_gradient.
    """
    return _pair_pass(batch, params, want_loss=True, want_grad=True)
