"""Dataset ingestion: synthetic 2-D generators and the IDX image/label format.

All generators emit flat float64 feature vectors scaled into [0, 1] (the toy
autoencoder decoder ends in a sigmoid), with integer labels where natural.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Dataset",
    "gaussian_mixture",
    "noisy_ring",
    "swiss_roll_slice",
    "load_dataset",
    "load_idx_images",
    "load_idx_labels",
    "load_idx_pair",
    "GENERATORS",
]

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """n flat feature vectors with optional integer labels."""

    data: np.ndarray = field(repr=False)
    labels: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D (items, width) array, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError(f"empty dataset, got shape {arr.shape}")
        object.__setattr__(self, "data", arr)
        if self.labels is not None:
            lab = np.asarray(self.labels)
            if lab.shape != (arr.shape[0],):
                raise ValueError(
                    f"labels shape {lab.shape} does not match {arr.shape[0]} items"
                )
            object.__setattr__(self, "labels", lab)

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


def _to_unit_box(points: np.ndarray, margin: float = 0.05) -> np.ndarray:
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    return margin + (1.0 - 2.0 * margin) * (points - lo) / span


def gaussian_mixture(n: int = 300, k: int = 3, dim: int = 2, seed: int = 0,
                     spread: float = 1.0, noise: float = 0.15) -> Dataset:
    """k Gaussian blobs with centers drawn once from the seed; labels = component."""
    if n < k:
        raise ValueError(f"need at least one point per component, got n={n}, k={k}")
    rng = np.random.default_rng(seed)
    centers = spread * rng.standard_normal((k, dim))
    labels = np.arange(n) % k
    points = centers[labels] + noise * rng.standard_normal((n, dim))
    return Dataset(_to_unit_box(points), labels)


def noisy_ring(n: int = 400, rings: int = 2, seed: int = 0,
               noise: float = 0.02) -> Dataset:
    """Concentric circles with radial Gaussian noise; labels = ring index."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if rings < 1:
        raise ValueError(f"rings must be >= 1, got {rings}")
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % rings
    radii = 0.5 + 0.5 * labels  # 0.5, 1.0, 1.5, ...
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    r = radii + noise * rng.standard_normal(n)
    points = np.stack([r * np.cos(angles), r * np.sin(angles)], axis=1)
    return Dataset(_to_unit_box(points), labels)


def swiss_roll_slice(n: int = 400, seed: int = 0, noise: float = 0.02) -> Dataset:
    """A 2-D spiral arc (one slice of a swiss roll), unlabeled."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    t = rng.uniform(1.5 * np.pi, 4.5 * np.pi, n)
    points = np.stack([t * np.cos(t), t * np.sin(t)], axis=1) / (4.5 * np.pi)
    points += noise * rng.standard_normal((n, 2))
    return Dataset(_to_unit_box(points))


GENERATORS = {
    "gaussian-mixture": gaussian_mixture,
    "noisy-ring": noisy_ring,
    "swiss-roll": swiss_roll_slice,
}


def load_dataset(source: str, **kwargs) -> Dataset:
    """Build a named synthetic dataset, or read an IDX pair via 'idx'.

    For 'idx', pass images= and labels= file paths; other sources accept the
    keyword arguments of the matching generator (n, seed, ...).
    """
    if source == "idx":
        return load_idx_pair(kwargs["images"], kwargs["labels"])
    if source not in GENERATORS:
        raise ValueError(
            f"unknown dataset {source!r}; expected one of {sorted(GENERATORS)} or 'idx'"
        )
    return GENERATORS[source](**kwargs)


def _read_idx_header(buf: bytes, path, expected_magic: int, n_dims: int):
    header_len = 4 + 4 * n_dims
    if len(buf) < header_len:
        raise ValueError(f"{path}: truncated header, {len(buf)} bytes < {header_len}")
    magic = struct.unpack(">i", buf[:4])[0]
    if magic != expected_magic:
        raise ValueError(
            f"{path}: bad magic 0x{magic:08x} at offset 0, expected 0x{expected_magic:08x}"
        )
    dims = struct.unpack(f">{n_dims}i", buf[4:header_len])
    return dims, header_len


def load_idx_images(path) -> np.ndarray:
    """Read an IDX image file into a (count, rows*cols) float64 array in [0, 1]."""
    with open(path, "rb") as fh:
        buf = fh.read()
    (count, rows, cols), offset = _read_idx_header(buf, path, IDX_IMAGES_MAGIC, 3)
    expected = count * rows * cols
    payload = buf[offset:]
    if len(payload) != expected:
        raise ValueError(
            f"{path}: expected {expected} pixel bytes after offset {offset}, got {len(payload)}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    return pixels.reshape(count, rows * cols)


def load_idx_labels(path) -> np.ndarray:
    """Read an IDX label file into a (count,) int array."""
    with open(path, "rb") as fh:
        buf = fh.read()
    (count,), offset = _read_idx_header(buf, path, IDX_LABELS_MAGIC, 1)
    payload = buf[offset:]
    if len(payload) != count:
        raise ValueError(
            f"{path}: expected {count} label bytes after offset {offset}, got {len(payload)}"
        )
    return np.frombuffer(payload, dtype=np.uint8).astype(np.int64)


def load_idx_pair(images_path, labels_path) -> Dataset:
    """Read matching IDX image and label files into one dataset."""
    data = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if data.shape[0] != labels.shape[0]:
        raise ValueError(
            f"count mismatch: {data.shape[0]} images vs {labels.shape[0]} labels"
        )
    return Dataset(data, labels)
