import re
import struct

import numpy as np
import pytest

from eccentric.datasets import (
    GENERATORS,
    gaussian_mixture,
    load_idx_images,
    load_idx_labels,
    load_idx_pair,
    noisy_ring,
    swiss_roll_slice,
)
from eccentric.kernel import PointBatch


def idx_image_bytes(pixels):
    """Serialize a (count, rows, cols) uint8 array in IDX image layout."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    count, rows, cols = pixels.shape
    return struct.pack(">iiii", 0x00000803, count, rows, cols) + pixels.tobytes()


def idx_label_bytes(labels):
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">ii", 0x00000801, len(labels)) + labels.tobytes()


class TestDataset:
    def test_label_shape_checked(self):
        with pytest.raises(ValueError):
            PointBatch(np.zeros((4, 2)), labels=np.zeros(3, dtype=int))

    def test_properties(self):
        d = PointBatch(np.zeros((4, 2)))
        assert d.count == 4 and d.dim == 2

    @pytest.mark.parametrize("generator", [noisy_ring, swiss_roll_slice])
    @pytest.mark.parametrize("n", [0, -3])
    def test_generators_reject_no_points(self, generator, n):
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            generator(n=n)


class TestGenerators:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_deterministic(self, name):
        a = GENERATORS[name](n=50, seed=5)
        b = GENERATORS[name](n=50, seed=5)
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_seed_changes_output(self, name):
        a = GENERATORS[name](n=50, seed=5)
        b = GENERATORS[name](n=50, seed=6)
        assert not np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_unit_box_range(self, name):
        d = GENERATORS[name](n=200, seed=0)
        assert d.data.min() >= 0.0
        assert d.data.max() <= 1.0

    def test_gaussian_mixture_labels(self):
        d = gaussian_mixture(n=90, seed=1)
        assert set(np.unique(d.labels)) == {0, 1, 2}
        assert np.bincount(d.labels).tolist() == [30, 30, 30]

    def test_gaussian_mixture_rejects_small_n(self):
        with pytest.raises(ValueError):
            gaussian_mixture(n=2)

    def test_noisy_ring_two_rings_separate_radially(self):
        d = noisy_ring(n=400, seed=0)
        center = d.data.mean(axis=0)
        r = np.linalg.norm(d.data - center, axis=1)
        inner = r[d.labels == 0]
        outer = r[d.labels == 1]
        assert inner.max() < outer.min()

    def test_swiss_roll_unlabeled(self):
        assert swiss_roll_slice(n=30).labels is None


class TestIdx:
    def test_image_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, (5, 3, 4), dtype=np.uint8)
        path = tmp_path / "img.idx"
        path.write_bytes(idx_image_bytes(pixels))
        data = load_idx_images(path)
        assert data.shape == (5, 12)
        # oracle: direct byte-level scaling
        np.testing.assert_array_equal(data, pixels.reshape(5, 12) / 255.0)

    def test_label_round_trip(self, tmp_path):
        labels = np.array([3, 1, 4, 1, 5], dtype=np.uint8)
        path = tmp_path / "lab.idx"
        path.write_bytes(idx_label_bytes(labels))
        np.testing.assert_array_equal(load_idx_labels(path), labels)

    def test_pair_loads_dataset(self, tmp_path):
        pixels = np.zeros((3, 2, 2), dtype=np.uint8)
        labels = np.array([0, 1, 2], dtype=np.uint8)
        (tmp_path / "img.idx").write_bytes(idx_image_bytes(pixels))
        (tmp_path / "lab.idx").write_bytes(idx_label_bytes(labels))
        d = load_idx_pair(tmp_path / "img.idx", tmp_path / "lab.idx")
        assert d.count == 3 and d.dim == 4
        np.testing.assert_array_equal(d.labels, labels)

    def test_bad_magic_names_offset(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">iiii", 0x00000802, 1, 1, 1) + b"\x00")
        with pytest.raises(ValueError, match="offset 0"):
            load_idx_images(path)

    def test_swapped_magic_rejected(self, tmp_path):
        # label magic in an image file must not parse
        path = tmp_path / "swap.idx"
        path.write_bytes(struct.pack(">iiii", 0x00000801, 1, 1, 1) + b"\x00")
        with pytest.raises(ValueError, match="bad magic"):
            load_idx_images(path)

    @pytest.mark.parametrize("sizes,payload", [((2**30, 2**30, 16), b""),
                                               ((-2, -3, 1), bytes(6))])
    def test_huge_or_negative_sizes_name_the_file(self, tmp_path, sizes, payload):
        # sizes are unsigned and their product exact, so neither header gets as far
        # as numpy's reshape, whose message would not name the file
        path = tmp_path / "sizes.idx"
        path.write_bytes(struct.pack(">iiii", 0x00000803, *sizes) + payload)
        with pytest.raises(ValueError, match=re.escape(f"{path}: expected ") + r"\d+ pixel bytes"):
            load_idx_images(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(b"\x00\x00\x08\x03\x00")
        with pytest.raises(ValueError, match="truncated header"):
            load_idx_images(path)

    def test_truncated_payload(self, tmp_path):
        pixels = np.zeros((2, 2, 2), dtype=np.uint8)
        path = tmp_path / "trunc.idx"
        path.write_bytes(idx_image_bytes(pixels)[:-3])
        with pytest.raises(ValueError, match="pixel bytes"):
            load_idx_images(path)

    def test_pair_count_mismatch(self, tmp_path):
        images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
        images.write_bytes(idx_image_bytes(np.zeros((3, 1, 1), dtype=np.uint8)))
        labels.write_bytes(idx_label_bytes(np.zeros(2, dtype=np.uint8)))
        with pytest.raises(ValueError, match=re.escape(f"{images}, {labels}: count mismatch")):
            load_idx_pair(images, labels)
