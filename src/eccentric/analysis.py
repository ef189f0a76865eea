"""Latent-space analysis: covariance spectrum, principal embeddings, alignment,
similarity metrics, latent samplers, component decoding and KNN evaluation."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .kernel import PointBatch

# bytes of distances held per block of test rows in knn_classify
_KNN_BLOCK_BYTES = 1 << 22

__all__ = [
    "SpectrumReport",
    "Embedding",
    "AlignmentResult",
    "SimilarityMetrics",
    "spectrum",
    "to_principal_embedding",
    "align",
    "cross_correlation",
    "similarity_metrics",
    "sample_latents",
    "decode_eigen_components",
    "knn_classify",
]


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues (descending) of a mean-centered covariance, with basis."""

    eigenvalues: np.ndarray = field(repr=False)
    trace: float = 0.0
    mean: np.ndarray = field(default=None, repr=False)
    eigenvectors: np.ndarray = field(default=None, repr=False)


def spectrum(batch: PointBatch) -> SpectrumReport:
    """Covariance spectrum of a point batch (divisor n-1), sorted descending."""
    if batch.count < 2:
        raise ValueError(f"spectrum needs at least 2 points, got {batch.count}")
    z = batch.data
    mean = z.mean(axis=0)
    centered = z - mean
    cov = centered.T @ centered / (batch.count - 1)
    evals, evecs = np.linalg.eigh(cov)
    return SpectrumReport(
        eigenvalues=evals[::-1],
        trace=float(np.trace(cov)),
        mean=mean,
        eigenvectors=evecs[:, ::-1],
    )


@dataclass(frozen=True)
class Embedding:
    """n items with d coordinates in descending-variance (principal) order."""

    coords: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D (items, dim) array, got shape {arr.shape}")
        object.__setattr__(self, "coords", arr)

    @property
    def items(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]


def _check_same_shape(e1: Embedding, e2: Embedding):
    if e1.coords.shape != e2.coords.shape:
        raise ValueError(
            f"embeddings must share shape, got {e1.coords.shape} and {e2.coords.shape}"
        )


def to_principal_embedding(batch: PointBatch) -> Embedding:
    """Center the batch and project onto descending covariance eigenvectors."""
    rep = spectrum(batch)
    return Embedding((batch.data - rep.mean) @ rep.eigenvectors)


@dataclass(frozen=True)
class AlignmentResult:
    """Signed permutations aligning two embeddings, plus before/after correlations.

    permutation_* map output position i to the source column index of the
    corresponding input embedding (0-based).  signs_* are the +-1 factors
    applied after permutation.
    """

    permutation_p: np.ndarray
    permutation_q: np.ndarray
    signs_p: np.ndarray
    signs_q: np.ndarray
    iterations: int
    converged: bool
    corr_before: np.ndarray = field(repr=False)
    corr_after: np.ndarray = field(repr=False)
    aligned_p: Embedding = field(default=None, repr=False)
    aligned_q: Embedding = field(default=None, repr=False)


def _rotate_right(mat, perm, signs, i, j):
    """Cycle columns i..j one step right, bringing column j to position i."""
    sl = slice(i, j + 1)
    mat[:, sl] = np.roll(mat[:, sl], 1, axis=1)
    perm[sl] = np.roll(perm[sl], 1)
    signs[sl] = np.roll(signs[sl], 1)


def align(e1: Embedding, e2: Embedding, max_sweeps_per_dim: int = 100) -> AlignmentResult:
    """Iteratively permute and sign-flip two embeddings into agreement.

    Repeatedly scans positions 1..d; at each position the unplaced column of
    one embedding with the largest absolute inner product against the other
    embedding's current column is cycled into place, with a sign flip
    whenever the matched inner product is negative.  A final pass re-sorts
    both embeddings together by combined column energy and flips any
    remaining negative diagonal matches.
    """
    _check_same_shape(e1, e2)
    d = e1.dim
    p = e1.coords.copy()
    q = e2.coords.copy()
    perm_p = np.arange(d)
    perm_q = np.arange(d)
    signs_p = np.ones(d, dtype=np.int64)
    signs_q = np.ones(d, dtype=np.int64)
    corr_before = cross_correlation(e1, e2)

    cap = max_sweeps_per_dim * d
    iterations = 0
    converged = False
    while iterations < cap:
        iterations += 1
        is_sorted = True
        for i in range(d):
            pj = p[:, i:].T @ q[:, i]
            qk = q[:, i:].T @ p[:, i]
            j = i + int(np.argmax(np.abs(pj)))
            k = i + int(np.argmax(np.abs(qk)))
            if j > i and abs(pj[j - i]) > abs(qk[k - i]):
                is_sorted = False
                _rotate_right(p, perm_p, signs_p, i, j)
                if p[:, i] @ q[:, i] < 0.0:
                    p[:, i] *= -1.0
                    signs_p[i] *= -1
            elif k > i:
                is_sorted = False
                _rotate_right(q, perm_q, signs_q, i, k)
                if p[:, i] @ q[:, i] < 0.0:
                    q[:, i] *= -1.0
                    signs_q[i] *= -1
        if is_sorted:
            converged = True
            break

    # re-sort both embeddings together by combined column energy
    for i in range(d):
        energy = np.sum(p[:, i:] ** 2, axis=0) + np.sum(q[:, i:] ** 2, axis=0)
        k = i + int(np.argmax(energy))
        if k > i:
            _rotate_right(p, perm_p, signs_p, i, k)
            _rotate_right(q, perm_q, signs_q, i, k)
    # any remaining negative diagonal match is resolved by flipping q
    for i in range(d):
        if p[:, i] @ q[:, i] < 0.0:
            q[:, i] *= -1.0
            signs_q[i] *= -1

    aligned_p = Embedding(p)
    aligned_q = Embedding(q)
    return AlignmentResult(
        permutation_p=perm_p,
        permutation_q=perm_q,
        signs_p=signs_p,
        signs_q=signs_q,
        iterations=iterations,
        converged=converged,
        corr_before=corr_before,
        corr_after=cross_correlation(aligned_p, aligned_q),
        aligned_p=aligned_p,
        aligned_q=aligned_q,
    )


def cross_correlation(e1: Embedding, e2: Embedding,
                      return_flags: bool = False):
    """Pearson correlation of every column of e1 against every column of e2.

    Zero-variance columns produce 0 entries; pass return_flags=True to also
    get the boolean mask of entries degenerate in this way.
    """
    _check_same_shape(e1, e2)
    a = e1.coords - e1.coords.mean(axis=0)
    b = e2.coords - e2.coords.mean(axis=0)
    sa = np.sqrt(np.sum(a * a, axis=0))
    sb = np.sqrt(np.sum(b * b, axis=0))
    flags = (sa[:, None] == 0.0) | (sb[None, :] == 0.0)
    denom = np.where(flags, 1.0, sa[:, None] * sb[None, :])
    # numpy's own loop, not BLAS: the bits must not depend on the BLAS thread count
    corr = np.einsum("ij,ik->jk", a, b) / denom
    corr[flags] = 0.0
    if return_flags:
        return corr, flags
    return corr


@dataclass(frozen=True)
class SimilarityMetrics:
    """Row-wise agreement between two embeddings of the same items."""

    rms_distance: float
    mean_cosine: float
    mean_angle_deg: float
    excluded_rows: int = 0


def similarity_metrics(e1: Embedding, e2: Embedding) -> SimilarityMetrics:
    """RMS row distance, mean row cosine and mean angle (degrees) between embeddings.

    Rows where either side is the zero vector are excluded from the cosine
    and angle means and counted in excluded_rows.
    """
    _check_same_shape(e1, e2)
    a, b = e1.coords, e2.coords
    diff = a - b
    rms = math.sqrt(float(np.mean(np.sum(diff * diff, axis=1))))
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    ok = (na > 0.0) & (nb > 0.0)
    excluded = int(np.sum(~ok))
    if not np.any(ok):
        raise ValueError("all rows are zero vectors; cosine undefined")
    cos = np.sum(a[ok] * b[ok], axis=1) / (na[ok] * nb[ok])
    cos = np.clip(cos, -1.0, 1.0)
    angles = np.degrees(np.arccos(cos))
    return SimilarityMetrics(
        rms_distance=rms,
        mean_cosine=float(np.mean(cos)),
        mean_angle_deg=float(np.mean(angles)),
        excluded_rows=excluded,
    )


def sample_latents(mode: str, reference: PointBatch | None, n: int, dim: int,
                   seed: int) -> PointBatch:
    """Draw latent vectors: standard normal, or matched to a reference batch.

    Matched mode fits mean and covariance (divisor n-1) of the reference and
    draws mean + L g with L the symmetric PSD eigen-factor of the covariance
    (negative eigenvalues clamped to 0).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    rng = np.random.default_rng(seed)
    if mode == "standard":
        return PointBatch(rng.standard_normal((n, dim)))
    if mode != "matched":
        raise ValueError(f"mode must be 'standard' or 'matched', got {mode!r}")
    if reference is None:
        raise ValueError("matched mode requires a reference batch")
    if reference.dim != dim:
        raise ValueError(f"reference dim {reference.dim} != requested dim {dim}")
    if reference.count < dim + 1:
        warnings.warn(
            f"reference has {reference.count} items < dim+1 = {dim + 1}; "
            "covariance estimate is rank-deficient, proceeding with clamped factor"
        )
    mean = reference.data.mean(axis=0)
    centered = reference.data - mean
    cov = centered.T @ centered / max(reference.count - 1, 1)
    evals, evecs = np.linalg.eigh(cov)
    factor = evecs @ np.diag(np.sqrt(np.maximum(evals, 0.0))) @ evecs.T
    g = rng.standard_normal((n, dim))
    return PointBatch(mean + g @ factor)


def decode_eigen_components(decoder, rep: SpectrumReport, scale: float):
    """Decode mean +- scale*sqrt(eigenvalue)*eigenvector per component.

    decoder maps a (k, d) array of latent rows to a (k, out) array (a
    DenseNet forward pass or any compatible callable).  Returns a list of
    (plus, minus) output pairs ordered by descending eigenvalue.
    """
    decode = decoder.forward if hasattr(decoder, "forward") else decoder
    d = rep.eigenvalues.shape[0]
    pairs = []
    for k in range(d):
        step = scale * math.sqrt(max(float(rep.eigenvalues[k]), 0.0)) * rep.eigenvectors[:, k]
        plus = np.asarray(decode((rep.mean + step)[None, :]))[0]
        minus = np.asarray(decode((rep.mean - step)[None, :]))[0]
        pairs.append((plus, minus))
    return pairs


def knn_classify(train_coords: np.ndarray, train_labels: np.ndarray,
                 test_coords: np.ndarray, k: int,
                 truth: np.ndarray | None = None):
    """Brute-force Euclidean k-nearest-neighbor majority vote.

    Neighbors are taken in (distance, training index) order.  The label with
    the most votes wins; a vote tie goes to the smallest summed neighbor
    distance, accumulated nearest-first, then to the lowest label.  Distances
    are held for one block of test rows at a time.  Returns (predictions,
    error_rate) where error_rate is None unless truth labels are given.
    """
    train_coords = np.asarray(train_coords, dtype=np.float64)
    test_coords = np.asarray(test_coords, dtype=np.float64)
    train_labels = np.asarray(train_labels)
    n = train_coords.shape[0]
    if n == 0:
        raise ValueError("empty training set")
    if train_labels.shape[0] != n:
        raise ValueError("training labels must match training coordinates")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if not (np.isfinite(train_coords).all() and np.isfinite(test_coords).all()):
        raise ValueError("knn coordinates must be finite")

    preds = np.empty(test_coords.shape[0], dtype=train_labels.dtype)
    # a test row holds its n distances and, in the vote, about 16 arrays of k
    height = max(1, _KNN_BLOCK_BYTES // (8 * (n + 16 * k)))
    for lo in range(0, test_coords.shape[0], height):
        dist = cdist(test_coords[lo:lo + height], train_coords)
        # the k smallest in stable-argsort order: everything below the k-th
        # distance, then the lowest-index entries equal to it
        kth = np.partition(dist, k - 1, axis=1)[:, [k - 1]]
        below = dist < kth
        tied = dist == kth
        need = k - np.count_nonzero(below, axis=1)
        # a row with more ties than places left keeps its lowest-index ties
        over = np.flatnonzero(np.count_nonzero(tied, axis=1) > need)
        tied[over] &= np.cumsum(tied[over], axis=1) <= need[over, None]
        cols = np.nonzero(below | tied)[1].reshape(-1, k)
        near = np.take_along_axis(dist, cols, axis=1)
        labels = train_labels[cols]
        # group each row by label, nearest-first within a label; cols ascend,
        # so equal distances keep training-index order
        order = np.lexsort((near, labels), axis=1)
        near = np.take_along_axis(near, order, axis=1)
        labels = np.take_along_axis(labels, order, axis=1)
        group = np.zeros(labels.shape, dtype=np.intp)
        np.cumsum(labels[:, 1:] != labels[:, :-1], axis=1, out=group[:, 1:])
        slot = (group + k * np.arange(labels.shape[0])[:, None]).ravel()
        # bincount adds its weights in input order: each label's distances
        # accumulate nearest-first; unused slots get no votes
        votes = np.bincount(slot, minlength=labels.size).reshape(-1, k)
        summed = np.bincount(slot, near.ravel(), minlength=labels.size).reshape(-1, k)
        label_of = np.zeros(labels.size, dtype=labels.dtype)
        label_of[slot] = labels.ravel()
        label_of = label_of.reshape(-1, k)
        best = np.lexsort((label_of, summed, -votes), axis=1)[:, 0]
        preds[lo:lo + height] = label_of[np.arange(labels.shape[0]), best]
    error = None
    if truth is not None:
        truth = np.asarray(truth)
        error = float(np.mean(preds != truth))
    return preds, error
