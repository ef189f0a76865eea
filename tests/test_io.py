import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eccentric.io import (
    MANIFEST_NAME,
    format_value,
    read_embedding_csv,
    sha256_file,
    verify_manifest,
    write_csv,
    write_embedding_csv,
    write_json,
    write_manifest,
)


class TestFormatValue:
    def test_float_round_trips(self):
        for x in (0.1, 1/3, 1e-300, -2.5e17, np.float64(np.pi)):
            assert float(format_value(x)) == float(x)

    def test_int_and_bool(self):
        assert format_value(7) == "7"
        assert format_value(np.int64(-3)) == "-3"
        assert format_value(True) == "true"
        assert format_value(np.bool_(False)) == "false"

    def test_string_passthrough(self):
        assert format_value("abc") == "abc"


class TestCsvJson:
    def test_csv_layout(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [(1, 0.5), (2, 1/3)])
        text = path.read_text()
        lines = text.split("\n")
        assert lines[0] == "a,b"
        assert lines[1] == "1,0.5"
        assert float(lines[2].split(",")[1]) == 1/3
        assert text.endswith("\n") and "\r" not in text

    def test_json_sorted_and_terminated(self, tmp_path):
        path = tmp_path / "t.json"
        write_json(path, {"b": 1, "a": 2})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")
        assert json.loads(text) == {"a": 2, "b": 1}

    def test_byte_identical_rewrites(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        rows = [(i, np.sin(i)) for i in range(20)]
        write_csv(p1, ["i", "v"], rows)
        write_csv(p2, ["i", "v"], rows)
        assert p1.read_bytes() == p2.read_bytes()


class TestEmbeddingCsv:
    def test_round_trip_without_labels(self, tmp_path):
        rng = np.random.default_rng(0)
        coords = rng.standard_normal((10, 3))
        path = tmp_path / "e.csv"
        write_embedding_csv(path, coords)
        back, labels = read_embedding_csv(path)
        np.testing.assert_array_equal(back, coords)
        assert labels is None

    def test_round_trip_with_labels(self, tmp_path):
        rng = np.random.default_rng(1)
        coords = rng.standard_normal((8, 2))
        labs = np.arange(8) % 3
        path = tmp_path / "e.csv"
        write_embedding_csv(path, coords, labs)
        back, labels = read_embedding_csv(path)
        np.testing.assert_array_equal(back, coords)
        np.testing.assert_array_equal(labels, labs)
        assert path.read_text().split("\n")[0] == "c0,c1,label"


    def test_header_only_is_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        for text in ("c0,c1,label\n", "c0,c1\n", "c0,c1\n\n\n", ""):
            path.write_text(text)
            with pytest.raises(ValueError, match=r"empty\.csv: no data rows"):
                read_embedding_csv(path)

    @pytest.mark.parametrize("warning_filter", ["error", "ignore"])
    @pytest.mark.parametrize("label", ["3.5", "3.0"])
    def test_fractional_label_is_rejected(self, tmp_path, label, warning_filter):
        # also with warnings ignored, as outside the test suite's filters
        path = tmp_path / "e.csv"
        path.write_text(f"c0,c1,label\n0.5,1,2\n1.5,2,{label}\n")
        with warnings.catch_warnings():
            warnings.simplefilter(warning_filter)
            with pytest.raises(ValueError, match="e.csv"):
                read_embedding_csv(path)

    @pytest.mark.parametrize("text", [
        "c0,c1\n1,2\n\n3,4\n",
        "c0,c1\n1,2\n  \n3,4\n",
        "c0,c1,label\n1,2,0\n\n3,4,1\n",
        "c0,c1\n1,2\n#3,4\n",
        "c0,c1\n1,2 # note\n",
        "c0,c1,label\n1,2,0 # note\n",
    ])
    def test_blank_and_comment_lines_are_rejected(self, tmp_path, text):
        path = tmp_path / "e.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="e.csv"):
            read_embedding_csv(path)

    def test_surrounding_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("\nc0,c1,label\n1,2,0\n3,4,1\n\n\n")
        coords, labels = read_embedding_csv(path)
        np.testing.assert_array_equal(coords, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(labels, [0, 1])

    @settings(deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                      elements=st.floats(allow_nan=True, allow_infinity=True)
                      | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308,
                                         np.inf, -np.inf, np.nan, 1.7976931348623157e308,
                                         -1.7976931348623157e308])),
           st.booleans(), st.data())
    def test_round_trip_is_bit_exact(self, tmp_path, coords, with_labels, data):
        labels = None
        if with_labels:
            labels = data.draw(hnp.arrays(np.int64, coords.shape[0]))
        path = tmp_path / "e.csv"
        write_embedding_csv(path, coords, labels)
        back, back_labels = read_embedding_csv(path)
        assert back.shape == coords.shape
        np.testing.assert_array_equal(np.isnan(back), np.isnan(coords))
        finite = ~np.isnan(coords)
        np.testing.assert_array_equal(back[finite], coords[finite])
        np.testing.assert_array_equal(np.signbit(back[finite]), np.signbit(coords[finite]))
        if with_labels:
            np.testing.assert_array_equal(back_labels, labels)
        else:
            assert back_labels is None
        # the row formatter writes what write_csv writes through format_value
        header = [f"c{i}" for i in range(coords.shape[1])]
        rows = [list(c) for c in coords]
        if with_labels:
            header.append("label")
            rows = [r + [int(l)] for r, l in zip(rows, labels)]
        write_csv(tmp_path / "generic.csv", header, rows)
        assert path.read_bytes() == (tmp_path / "generic.csv").read_bytes()


class TestManifest:
    def test_write_and_verify_clean(self, tmp_path):
        out = tmp_path / "f.csv"
        write_csv(out, ["x"], [(1,)])
        manifest = write_manifest(tmp_path, "demo", {"k": 1.5}, [out])
        assert manifest["outputs"]["f.csv"] == sha256_file(out)
        assert manifest["config"] == {"k": "1.5"}
        assert verify_manifest(tmp_path) == []

    def test_verify_detects_tampering(self, tmp_path):
        out = tmp_path / "f.csv"
        write_csv(out, ["x"], [(1,)])
        write_manifest(tmp_path, "demo", {}, [out])
        out.write_text("x\n2\n")
        assert verify_manifest(tmp_path) == ["f.csv"]

    def test_verify_detects_missing_file(self, tmp_path):
        out = tmp_path / "f.csv"
        write_csv(out, ["x"], [(1,)])
        write_manifest(tmp_path, "demo", {}, [out])
        out.unlink()
        assert verify_manifest(tmp_path) == ["f.csv"]

    def test_manifest_is_deterministic(self, tmp_path):
        out = tmp_path / "f.csv"
        write_csv(out, ["x"], [(1,)])
        write_manifest(tmp_path, "demo", {"a": 1, "b": 0.25}, [out])
        first = (tmp_path / MANIFEST_NAME).read_bytes()
        write_manifest(tmp_path, "demo", {"b": 0.25, "a": 1}, [out])
        assert (tmp_path / MANIFEST_NAME).read_bytes() == first
