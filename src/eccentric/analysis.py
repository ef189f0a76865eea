"""Latent-space analysis: covariance spectrum, alignment, similarity metrics,
latent samplers, component decoding and KNN evaluation."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .kernel import PointBatch, _matmul

# bytes of prefilter values held per block of test rows in knn_classify
_KNN_BLOCK_BYTES = 1 << 21

__all__ = [
    "SpectrumReport",
    "AlignmentResult",
    "SimilarityMetrics",
    "spectrum",
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
    trace: float
    mean: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)


def spectrum(batch: PointBatch) -> SpectrumReport:
    """Covariance spectrum of a point batch (divisor n-1), sorted descending."""
    if batch.count < 2:
        raise ValueError(f"spectrum needs at least 2 points, got {batch.count}")
    mean = batch.data.mean(axis=0)
    centered = batch.data - mean
    cov = _matmul(centered.T, centered) / (batch.count - 1)
    evals, evecs = np.linalg.eigh(cov)
    return SpectrumReport(
        eigenvalues=evals[::-1],
        trace=float(np.trace(cov)),
        mean=mean,
        eigenvectors=evecs[:, ::-1],
    )


def _check_same_shape(e1: PointBatch, e2: PointBatch):
    if e1.data.shape != e2.data.shape:
        raise ValueError(
            f"embeddings must share shape, got {e1.data.shape} and {e2.data.shape}"
        )


@dataclass(frozen=True)
class AlignmentResult:
    """Signed permutations aligning two embeddings, plus before/after correlations.

    permutation_* map output position i to the source column index of the
    corresponding input embedding (0-based).  signs_* are the +-1 factors
    applied after permutation; signs_p is all ones, since only e2 is flipped.
    iterations is always 1 (one matching solve); it is kept only because the
    benchmark tracer's align hook (perfbench/tracer.py) reads it, and goes
    when that hook does.
    """

    permutation_p: np.ndarray
    permutation_q: np.ndarray
    signs_p: np.ndarray
    signs_q: np.ndarray
    iterations: int
    corr_before: np.ndarray = field(repr=False)
    corr_after: np.ndarray = field(repr=False)
    aligned_p: PointBatch = field(repr=False)
    aligned_q: PointBatch = field(repr=False)


def align(e1: PointBatch, e2: PointBatch) -> AlignmentResult:
    """Signed permutation of e2's columns that best matches e1's columns.

    The pairing maximizes the diagonal mass sum_i |corr[i, pi(i)]| of the
    Pearson correlation matrix, solved exactly as a minimum-weight full
    bipartite matching.  Each matched e2 column takes the sign of its
    correlation, so every diagonal entry of corr_after is >= 0; e1 is never
    flipped.  The pairs are then stable-sorted by combined column energy,
    largest first.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    corr_before = cross_correlation(e1, e2)
    mag = np.abs(corr_before)
    # every weight >= 1: a zero would be dropped as a structural zero
    rows, match = min_weight_full_bipartite_matching(csr_array(mag.max() + 1.0 - mag))
    signs = np.where(corr_before[rows, match] < 0.0, -1, 1)
    energy = np.sum(e1.data ** 2, axis=0) + np.sum(e2.data[:, match] ** 2, axis=0)
    perm_p = np.argsort(-energy, kind="stable")
    perm_q = match[perm_p]
    signs_q = signs[perm_p]
    return AlignmentResult(
        permutation_p=perm_p,
        permutation_q=perm_q,
        signs_p=np.ones(e1.dim, dtype=np.int64),
        signs_q=signs_q,
        iterations=1,
        corr_before=corr_before,
        corr_after=corr_before[perm_p][:, perm_q] * signs_q,
        aligned_p=PointBatch(e1.data[:, perm_p]),
        aligned_q=PointBatch(e2.data[:, perm_q] * signs_q),
    )


def cross_correlation(e1: PointBatch, e2: PointBatch) -> np.ndarray:
    """Pearson correlation of every column of e1 against every column of e2.

    Entries with a zero-variance column on either side are 0.
    """
    _check_same_shape(e1, e2)
    a = e1.data - e1.data.mean(axis=0)
    b = e2.data - e2.data.mean(axis=0)
    sa = np.sqrt(np.sum(a * a, axis=0))
    sb = np.sqrt(np.sum(b * b, axis=0))
    flags = (sa[:, None] == 0.0) | (sb[None, :] == 0.0)
    denom = np.where(flags, 1.0, sa[:, None] * sb[None, :])
    corr = _matmul(a.T, b) / denom
    corr[flags] = 0.0
    return corr


@dataclass(frozen=True)
class SimilarityMetrics:
    """Row-wise agreement between two embeddings of the same items."""

    rms_distance: float
    mean_cosine: float
    mean_angle_deg: float
    excluded_rows: int = 0


def similarity_metrics(e1: PointBatch, e2: PointBatch) -> SimilarityMetrics:
    """RMS row distance, mean row cosine and mean angle (degrees) between embeddings.

    Rows where either side is the zero vector are excluded from the cosine
    and angle means and counted in excluded_rows.
    """
    _check_same_shape(e1, e2)
    a, b = e1.data, e2.data
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

    Matched mode draws mean + g F from the reference's spectrum, with
    F = V diag(sqrt(max(lambda, 0))) V^T the symmetric PSD square root of its
    covariance (divisor n-1).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    rng = np.random.default_rng(seed)
    if mode == "standard":
        return PointBatch(rng.standard_normal((n, dim)))
    if mode != "matched":
        raise ValueError(f"mode must be 'standard' or 'matched', got {mode!r}")
    if reference is None:
        raise ValueError("matched mode requires a reference batch")
    if reference.dim != dim:
        raise ValueError(f"reference dim {reference.dim} != requested dim {dim}")
    rep = spectrum(reference)
    if reference.count < dim + 1:
        warnings.warn(
            f"reference has {reference.count} items < dim+1 = {dim + 1}; "
            "covariance estimate is rank-deficient, proceeding with clamped factor"
        )
    v = rep.eigenvectors
    factor = _matmul(v * np.sqrt(np.maximum(rep.eigenvalues, 0.0)), v.T)
    return PointBatch(_matmul(rng.standard_normal((n, dim)), factor) + rep.mean)


def decode_eigen_components(decode, rep: SpectrumReport, scale: float) -> np.ndarray:
    """Decode mean +- scale*sqrt(eigenvalue)*eigenvector for every component.

    decode maps a (k, d) array of latent rows to a (k, out) array, such as
    a DenseNet's forward; all 2d rows go through one call.  Returns a
    (d, 2, out) array whose entry k is the (plus, minus) pair of component k,
    by descending eigenvalue.
    """
    if not math.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale}")
    d = rep.eigenvalues.shape[0]
    steps = (rep.eigenvectors * (scale * np.sqrt(np.maximum(rep.eigenvalues, 0.0)))).T
    rows = np.stack([rep.mean + steps, rep.mean - steps], axis=1).reshape(2 * d, d)
    return np.asarray(decode(rows)).reshape(d, 2, -1)


def knn_classify(train_coords: np.ndarray, train_labels: np.ndarray,
                 test_coords: np.ndarray, k: int,
                 truth: np.ndarray | None = None):
    """Brute-force Euclidean k-nearest-neighbor majority vote.

    Neighbors are taken in (distance, training index) order, where the
    distance is sqrt(sum (x - y)^2) from direct differences.  A BLAS product
    only narrows the search: it computes |y|^2 - 2 x.y against every training
    row, and every column within a proven rounding margin of a row's k-th
    smallest value gets its exact distance; the others cannot be among the k
    nearest.  The label with the most votes wins; a vote tie goes to the
    smallest summed neighbor distance, accumulated nearest-first, then to the
    lowest label.  The votes are counted over each row's class groups, which
    one np.unique numbers, so the vote's memory is linear in k whatever the
    number of classes.  Test rows are taken one block at a time.  Returns
    (predictions, error_rate) where error_rate is None unless truth labels
    are given, and raises FloatingPointError if a distance to one of a row's
    k nearest overflows.  The inputs are arrays wrapped here, not PointBatch,
    only because the benchmark tracer's knn hook (perfbench/tracer.py) reads
    test_coords as args[2], and become PointBatch when that hook goes.
    """
    if train_labels is None:
        raise ValueError("train_labels must be given")
    train = PointBatch.named("train_coords, train_labels", train_coords, train_labels)
    test = PointBatch.named("test_coords, truth", test_coords, truth)
    n, dim = train.data.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if test.dim != dim:
        raise ValueError(f"training points have {dim} columns but test points have {test.dim}")

    # The margin.  With u = 2^-53, G_j = fl(|y_j|^2 - 2 x.y_j) is the
    # prefilter value, s_j = |x - y_j|^2 exactly, and D_j the computed
    # distance.  A dot product of length d, summed in any order, with or
    # without FMA, errs by at most gamma_d sum |x_i y_i| (gamma_n = nu/(1-nu)),
    # so with xx = |x|^2 and Y = max_j |y_j|^2 (2|x||y| <= xx + Y):
    #   |G_j - (s_j - xx)| <= E = gamma_{d+1} (xx + 2Y).
    # D_j takes d roundings of differences, d of squares, d-1 of sums and
    # one of the square root, so |D_j^2 / s_j - 1| <= eta = gamma_{d+4}.
    # Let t be the k-th smallest G in the row.  The k rows with G <= t have
    # s <= t + xx + E <= 2 xx + 2Y + 2E, which bounds the k-th smallest
    # distance: D_k^2 <= (1 + eta)(t + xx + E).  Any j with D_j <= D_k then
    # has s_j <= D_k^2 / (1 - eta), so
    #   G_j <= t + 2E + 2 eta/(1 - eta) (t + xx + E) <= t + 6 gamma_{d+4} (xx + 2Y),
    # to first order in (d+4) u.  Keeping every column with
    # G <= t + 8 (d+4) u (xx + 2Y) therefore keeps all the k nearest, ties
    # included, whatever order BLAS summed in; the 8 over 6 covers the
    # second-order terms and the roundings of xx, Y and the bound itself.
    # Underflow adds at most d 2^-1075 per dot product and per distance, which
    # the 8 (d+4) smallest-subnormal term covers.  A norm that overflows makes
    # the bound inf or nan, and a nan keeps the pair, so the row keeps all;
    # an exact distance that overflows among the k nearest is then an error.
    # The product takes -2x: scaling by a power of two is exact, so each of
    # its terms rounds as in x.y, and its underflow and overflow are those
    # covered above.
    yy = np.einsum("ij,ij->i", train.data, train.data)
    yy2 = 2 * yy.max()
    slack = 8 * (dim + 4) * np.finfo(np.float64).eps / 2
    floor = 8 * (dim + 4) * np.finfo(np.float64).smallest_subnormal
    # pairs per chunk of the exact pass: two (chunk, d) arrays fill one block
    chunk = max(1, _KNN_BLOCK_BYTES // (16 * dim))
    # each training row's class: the rank of its label among the distinct labels
    classes, cls = np.unique(train.labels, return_inverse=True)
    preds = np.empty(test.count, dtype=train.labels.dtype)
    # a test row holds its n prefilter values and, in the vote, about 16 arrays of k
    height = max(1, _KNN_BLOCK_BYTES // (8 * (n + 16 * k)))
    # every block reuses one buffer for its prefilter values and one for their
    # partitioned copy, so their pages are faulted in once per call
    pre_buf = np.empty((min(height, test.count), n))
    kth_buf = np.empty_like(pre_buf)
    for lo in range(0, test.count, height):
        x = test.data[lo:lo + height]
        pre, kth = pre_buf[:len(x)], kth_buf[:len(x)]
        # an overflow here only widens the bound (see the margin)
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(-2.0 * x, train.data.T, out=pre)
            pre += yy
            np.copyto(kth, pre)
            kth.partition(k - 1, axis=1)
            bound = kth[:, k - 1] + (slack * (np.einsum("ij,ij->i", x, x) + yy2) + floor)
        rows, cols = np.divmod(np.flatnonzero(~(pre > bound[:, None])), n)
        dist = np.empty(rows.size)
        for a in range(0, rows.size, chunk):
            diff = x[rows[a:a + chunk]]
            diff -= train.data[cols[a:a + chunk]]
            # numpy's own loop, not BLAS: a pair's distance has the same bits
            # whatever chunk it falls in and whatever the BLAS thread count
            dist[a:a + chunk] = np.einsum("ij,ij->i", diff, diff)
        np.sqrt(dist, out=dist)
        # the candidates come row by row, columns ascending, and lexsort is
        # stable: each row's candidates come out in (distance, index) order
        order = np.lexsort((dist, rows))
        count = np.bincount(rows, minlength=x.shape[0])
        pick = order[(np.cumsum(count) - count)[:, None] + np.arange(k)]
        cols, near = cols[pick], dist[pick]
        # each row's picks ascend: an overflow among them shows in the last
        if np.isinf(near[:, -1]).any():
            raise FloatingPointError(f"overflow in a distance to one of the k={k} nearest "
                                     "training points")
        # the candidates may be every training row: free them before the next block
        del rows, dist, order
        # one slot per (row, class) pair that a pick names, ascending with the
        # label within a row; np.unique numbers the slots, so the groups take
        # O(rows k) memory, not a (rows, classes) table
        slot = cls[cols] + len(classes) * np.arange(len(x))[:, None]
        group = np.unique(slot, return_inverse=True)[1].reshape(slot.shape)
        # bincount adds its weights in input order, and each row's picks come
        # in (distance, index) order: each label's distances add nearest-first
        votes = np.bincount(group.ravel())[group]
        summed = np.bincount(group.ravel(), near.ravel())[group]
        # most votes, then smallest summed distance, then lowest label
        best = np.lexsort((slot, summed, -votes), axis=1)[:, 0]
        preds[lo:lo + height] = train.labels[cols[np.arange(len(x)), best]]
    error = None if test.labels is None else float(np.mean(preds != test.labels))
    return preds, error
