"""Dataset ingestion: synthetic 2-D generators and the IDX image/label format.

All generators emit a PointBatch of flat float64 feature vectors scaled into
[0, 1] (the toy autoencoder decoder ends in a sigmoid), with integer labels
where natural.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .kernel import PointBatch

__all__ = [
    "gaussian_mixture",
    "noisy_ring",
    "swiss_roll_slice",
    "load_idx_images",
    "load_idx_labels",
    "load_idx_pair",
    "GENERATORS",
]

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _to_unit_box(points: np.ndarray) -> np.ndarray:
    """Scale each column affinely onto [0.05, 0.95]."""
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    return 0.05 + 0.9 * (points - lo) / span


def gaussian_mixture(n: int = 300, seed: int = 0) -> PointBatch:
    """3 blobs in 2-D, std 0.15, around standard normal centers; labels = component."""
    if n < 3:
        raise ValueError(f"need at least one point for each of 3 components, got n={n}")
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((3, 2))
    labels = np.arange(n) % 3
    points = centers[labels] + 0.15 * rng.standard_normal((n, 2))
    return PointBatch(_to_unit_box(points), labels)


def noisy_ring(n: int = 400, seed: int = 0) -> PointBatch:
    """Circles of radius 0.5 and 1.0, radial noise std 0.02; labels = ring index."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    radii = 0.5 + 0.5 * labels
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    r = radii + 0.02 * rng.standard_normal(n)
    points = np.stack([r * np.cos(angles), r * np.sin(angles)], axis=1)
    return PointBatch(_to_unit_box(points), labels)


def swiss_roll_slice(n: int = 400, seed: int = 0) -> PointBatch:
    """A 2-D spiral arc (one slice of a swiss roll), noise std 0.02, unlabeled."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    t = rng.uniform(1.5 * np.pi, 4.5 * np.pi, n)
    points = np.stack([t * np.cos(t), t * np.sin(t)], axis=1) / (4.5 * np.pi)
    points += 0.02 * rng.standard_normal((n, 2))
    return PointBatch(_to_unit_box(points))


# every generator takes exactly (n, seed), the keywords the CLI passes
GENERATORS = {
    "gaussian-mixture": gaussian_mixture,
    "noisy-ring": noisy_ring,
    "swiss-roll": swiss_roll_slice,
}


def _read_idx(path, magic: int, n_dims: int, unit: str) -> np.ndarray:
    """The uint8 payload of an IDX file as an array of the n_dims sizes in its header.

    unit names one payload byte in the message of a length mismatch."""
    with open(path, "rb") as fh:
        buf = fh.read()
    offset = 4 + 4 * n_dims
    if len(buf) < offset:
        raise ValueError(f"{path}: truncated header, {len(buf)} bytes < {offset}")
    found, *dims = struct.unpack(f">{n_dims + 1}I", buf[:offset])
    if found != magic:
        raise ValueError(f"{path}: bad magic 0x{found:08x} at offset 0, expected 0x{magic:08x}")
    expected = math.prod(dims)  # unsigned and exact: a huge header cannot wrap to the payload size
    if len(buf) - offset != expected:
        raise ValueError(f"{path}: expected {expected} {unit} bytes after offset {offset}, "
                         f"got {len(buf) - offset}")
    return np.frombuffer(buf, dtype=np.uint8, offset=offset).reshape(dims)


def load_idx_images(path) -> np.ndarray:
    """Read an IDX image file into a (count, rows*cols) float64 array in [0, 1]."""
    pixels = _read_idx(path, IDX_IMAGES_MAGIC, 3, "pixel")
    count, rows, cols = pixels.shape
    return pixels.reshape(count, rows * cols).astype(np.float64) / 255.0


def load_idx_labels(path) -> np.ndarray:
    """Read an IDX label file into a (count,) int array."""
    return _read_idx(path, IDX_LABELS_MAGIC, 1, "label").astype(np.int64)


def load_idx_pair(images_path, labels_path) -> PointBatch:
    """Read matching IDX image and label files into one labelled batch."""
    return PointBatch.named(f"{images_path}, {labels_path}", load_idx_images(images_path),
                            load_idx_labels(labels_path))
