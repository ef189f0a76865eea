import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eccentric import io
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
        write_csv(path, ["a", "b"], np.array([1, 2]), np.array([0.5, 1/3]))
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
        i = np.arange(20)
        write_csv(p1, ["i", "v"], i, np.sin(i))
        write_csv(p2, ["i", "v"], i, np.sin(i))
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

    @pytest.mark.parametrize("text,widths", [("c0,c1\n1,2,3\n4,5,6\n", "3 columns .* 2 in"),
                                             ("c0,c1,c2\n1,2\n", "2 columns .* 3 in")],
                             ids=["wider", "narrower"])
    def test_width_must_match_header(self, tmp_path, text, widths):
        path = tmp_path / "e.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"e.csv: {widths} the header"):
            read_embedding_csv(path)

    @pytest.mark.parametrize("lead", ["", "\n \n"], ids=["", "after-blank-lead"])
    def test_numeric_header_is_rejected(self, tmp_path, lead):
        # a file without a header would otherwise lose its first row to it
        path = tmp_path / "e.csv"
        path.write_text(lead + "0.5,1.5\n2.5,3.5\n4.5,5.5\n")
        line = lead.count("\n") + 1
        with pytest.raises(ValueError, match=rf"e\.csv: line {line} is all numbers; "
                                             "expected a header of column names"):
            read_embedding_csv(path)

    def test_header_with_some_numeric_names_is_read(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("0,1,label\n0.5,1.5,2\n")
        coords, labels = read_embedding_csv(path)
        np.testing.assert_array_equal(coords, [[0.5, 1.5]])
        np.testing.assert_array_equal(labels, [2])

    @pytest.mark.parametrize("header", ["c0, c1, label", " c0 ,c1,\tlabel "],
                             ids=["after-commas", "around-names"])
    def test_spaces_around_header_names(self, tmp_path, header):
        path = tmp_path / "e.csv"
        path.write_text(header + "\n0.5, 1.5, 3\n2.5, 3.5, 4\n")
        coords, labels = read_embedding_csv(path)
        np.testing.assert_array_equal(coords, [[0.5, 1.5], [2.5, 3.5]])
        np.testing.assert_array_equal(labels, [3, 4])

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
        # the block writer writes what format_value writes per cell
        header = [f"c{i}" for i in range(coords.shape[1])]
        rows = [list(c) for c in coords]
        if with_labels:
            header.append("label")
            rows = [r + [int(l)] for r, l in zip(rows, labels)]
        assert path.read_text() == reference_csv(header, rows)


def reference_csv(header, rows):
    """All lines at once, each value through format_value: the layout the writers keep."""
    return ",".join(header) + "\n" + "".join(
        ",".join(format_value(v) for v in row) + "\n" for row in rows)


def per_row_embedding_csv(path, coords, labels=None):
    """write_embedding_csv with one format string per row: the oracle for its blocks."""
    header = [f"c{i}" for i in range(coords.shape[1])]
    fmt = ["%.17g"] * coords.shape[1]
    rows = coords.tolist()
    if labels is not None:
        header.append("label")
        fmt.append("%d")
        rows = [row + [label] for row, label in zip(rows, np.asarray(labels).tolist())]
    fmt = ",".join(fmt) + "\n"
    path.write_bytes((",".join(header) + "\n" + "".join(fmt % tuple(row) for row in rows)
                      ).encode())


B = io._IO_ROWS

# fields for the JSON step's differential test.  JSON reads these: finite floats as
# %.17g and repr, integers past 2^53 and 2^64, and zeros (-0 as the integer 0), each
# padded with the spaces and tabs both parsers skip
_pad = st.sampled_from(["", " ", "\t"])
_finite = st.floats(allow_nan=False, allow_infinity=False)
JSON_FIELDS = st.tuples(
    _pad,
    _finite.map(lambda x: "%.17g" % x) | _finite.map(repr)
    | st.integers(2**53, 2**70).map(str) | st.integers(-2**70, -2**53).map(str)
    | st.sampled_from(["-0", "0", "-0.0", "1e-400", "5e-324", "9007199254740993"]),
    _pad).map("".join)
# labels: int64 values, and values JSON reads as a float or past int64
LABEL_FIELDS = st.tuples(
    _pad,
    st.sampled_from(["3", "-0", str(-2**63), str(2**63 - 1), "3.0", "3e0", str(2**63)]),
    _pad).map("".join)
# fields outside JSON's number grammar
ODD_FIELDS = st.sampled_from([
    "+1", ".5", "1.", "01", "nan", "inf", "-inf", "1e400", "true", "null", '"1.5"', "[1]",
    "{}", "1],[2", ""])


class TestEmbeddingCsvBlocks:
    @pytest.mark.parametrize("rows", [B - 1, B, B + 1, 2 * B + 1])
    @pytest.mark.parametrize("with_labels", [False, True])
    def test_round_trip_across_blocks(self, tmp_path, rows, with_labels):
        rng = np.random.default_rng(rows)
        coords = rng.standard_normal((rows, 3))
        labels = rng.integers(-5, 5, rows) if with_labels else None
        path = tmp_path / "e.csv"
        write_embedding_csv(path, coords, labels)
        back, back_labels = read_embedding_csv(path)
        np.testing.assert_array_equal(back, coords)
        assert back.flags.c_contiguous
        header = ["c0", "c1", "c2"]
        table = [list(c) for c in coords]
        if with_labels:
            np.testing.assert_array_equal(back_labels, labels)
            header.append("label")
            table = [r + [int(l)] for r, l in zip(table, labels)]
        else:
            assert back_labels is None
        assert path.read_text() == reference_csv(header, table)

    @pytest.mark.parametrize("rows", [1, B, B + 1])
    @pytest.mark.parametrize("with_labels", [False, True])
    def test_blocks_write_the_per_row_bytes(self, tmp_path, rows, with_labels):
        rng = np.random.default_rng(rows)
        coords = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(-320, 308, (rows, 4))
        coords.flat[:7] = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308,
                           0.1][:coords.size]
        labels = rng.integers(-2**63, 2**63 - 1, rows, dtype=np.int64) if with_labels else None
        write_embedding_csv(tmp_path / "blocks.csv", coords, labels)
        per_row_embedding_csv(tmp_path / "rows.csv", coords, labels)
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize("bad, position, named", [
        ("\n", B + 3, "blank line"),
        # the last line of the first block, followed by rows in the second
        ("  \n", B - 1, "blank line"),
        ("#3,4,1\n", B + 3, "'#3'"),
        ("3,4,1.5\n", B + 3, "'1.5'"),
        ("3,4\n", B + 3, "2 columns"),
    ], ids=["blank", "blank-at-block-end", "comment", "fractional-label", "narrow"])
    @pytest.mark.parametrize("lead", ["", "\n\n"], ids=["", "after-blank-lead"])
    def test_bad_line_names_its_file_line(self, tmp_path, bad, position, named, lead):
        lines = ["1,2,0\n"] * (2 * B)
        lines[position] = bad
        path = tmp_path / "e.csv"
        path.write_text(lead + "c0,c1,label\n" + "".join(lines))
        # leading lines, the header, then the 0-based data index
        line = lead.count("\n") + 1 + position + 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError) as info:
                read_embedding_csv(path)
        message = str(info.value)
        assert message.startswith(f"{path}: ") and named in message
        assert f"line {line}" in message and not re.search(r"\brow \d", message)

    @settings(deadline=None, max_examples=40,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 2) | st.integers(B - 2, B + 2) | st.integers(2 * B - 1, 2 * B + 1),
           st.integers(1, 3), st.booleans(), st.data())
    def test_finite_round_trip_is_bit_identical(self, tmp_path, rows, width, with_labels, data):
        finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
            [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
             -1.7976931348623157e308])
        coords = data.draw(hnp.arrays(np.float64, (rows, width), elements=finite))
        labels = None
        if with_labels:
            labels = data.draw(hnp.arrays(np.int64, rows, elements=st.integers(-2**63, 2**63 - 1)
                                          | st.sampled_from([-2**63, 2**63 - 1])))
        path = tmp_path / "e.csv"
        write_embedding_csv(path, coords, labels)
        back, back_labels = read_embedding_csv(path)
        np.testing.assert_array_equal(back.view(np.int64), coords.view(np.int64))
        if with_labels:
            np.testing.assert_array_equal(back_labels, labels)
        else:
            assert back_labels is None

    @settings(deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_json_step_agrees_with_loadtxt(self, tmp_path, monkeypatch, data):
        # each file is read as is, then with the JSON step declining every block,
        # so np.loadtxt alone parses it: same bits, or the same error
        rows = data.draw(st.integers(1, 4))
        width = data.draw(st.integers(1, 3))
        labeled = data.draw(st.booleans())
        cells = [[data.draw(JSON_FIELDS) for _ in range(width)]
                 + ([data.draw(LABEL_FIELDS)] if labeled else []) for _ in range(rows)]
        if data.draw(st.booleans()):
            row = cells[data.draw(st.integers(0, rows - 1))]
            row[data.draw(st.integers(0, len(row) - 1))] = data.draw(ODD_FIELDS)
        header = [f"c{i}" for i in range(width)] + ["label"] * labeled
        path = tmp_path / "e.csv"
        path.write_text("\n".join(map(",".join, [header] + cells)) + "\n")

        def read():
            try:
                return read_embedding_csv(path)
            except ValueError as exc:
                return str(exc)

        fast = read()
        with monkeypatch.context() as patch:
            patch.setattr(io, "_json_rows", lambda *args: None)
            slow = read()
        if isinstance(slow, str):
            assert fast == slow
            return
        assert not isinstance(fast, str), fast
        np.testing.assert_array_equal(fast[0].view(np.int64), slow[0].view(np.int64))
        if labeled:
            assert fast[1].dtype == slow[1].dtype == np.int64
            np.testing.assert_array_equal(fast[1], slow[1])
        else:
            assert fast[1] is slow[1] is None

    def test_float_labels_are_rejected(self, tmp_path):
        # %d would truncate 0.5 to 0; the reader rejects fractional labels as well
        path = tmp_path / "e.csv"
        with pytest.raises(ValueError, match=r"e\.csv: labels must be integers"):
            write_embedding_csv(path, np.zeros((2, 1)), np.array([0.5, 1.5]))
        assert not path.exists()

    def test_no_coordinate_columns(self, tmp_path):
        path = tmp_path / "lab.csv"
        path.write_text("label\n1\n2\n")
        with pytest.raises(ValueError, match=r"lab\.csv: no coordinate columns"):
            read_embedding_csv(path)

    def test_peak_memory(self, tmp_path):
        # whole-file text, line lists and joined strings took ~7x the array
        rng = np.random.default_rng(3)
        coords = rng.standard_normal((20000, 64))
        labels = rng.integers(0, 10, 20000)
        data_bytes = coords.nbytes + labels.nbytes
        path = tmp_path / "e.csv"
        peaks = []
        tracemalloc.start()
        try:
            write_embedding_csv(path, coords, labels)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            back, _ = read_embedding_csv(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back, coords)
        for peak in peaks:
            assert peak < 2 * data_bytes + 2**21


class TestWriteCsv:
    @settings(deadline=None, max_examples=40,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 2 * B + 1).flatmap(lambda n: st.tuples(
        hnp.arrays(np.int64, n), hnp.arrays(np.float64, (n, 2)), hnp.arrays(np.uint8, n))))
    def test_mixed_columns_write_the_per_cell_bytes(self, tmp_path, columns):
        ints, floats, small = columns
        header = ["i", "x", "y", "u"]
        write_csv(tmp_path / "m.csv", header, ints, floats, small)
        rows = [[int(i), *map(float, f), int(u)] for i, f, u in zip(ints, floats, small)]
        assert (tmp_path / "m.csv").read_text() == reference_csv(header, rows)

    def test_columns_of_unequal_length_are_rejected(self, tmp_path):
        path = tmp_path / "u.csv"
        with pytest.raises(ValueError, match=r"u\.csv: columns of unequal lengths \[3, 2\]"):
            write_csv(path, ["a", "b"], np.arange(3), np.arange(2.0))
        assert not path.exists()


class TestManifest:
    def test_write_and_verify_clean(self, tmp_path):
        out = tmp_path / "f.csv"
        write_csv(out, ["x"], np.array([1]))
        manifest = write_manifest(tmp_path, "demo", {"k": 1.5}, [out])
        assert manifest["outputs"]["f.csv"] == sha256_file(out)
        assert manifest["config"] == {"k": "1.5"}
        assert verify_manifest(tmp_path) == []

    def test_verify_detects_tampering(self, tmp_path):
        out = tmp_path / "f.csv"
        write_csv(out, ["x"], np.array([1]))
        write_manifest(tmp_path, "demo", {}, [out])
        out.write_text("x\n2\n")
        assert verify_manifest(tmp_path) == ["f.csv"]

    def test_verify_detects_missing_file(self, tmp_path):
        out = tmp_path / "f.csv"
        write_csv(out, ["x"], np.array([1]))
        write_manifest(tmp_path, "demo", {}, [out])
        out.unlink()
        assert verify_manifest(tmp_path) == ["f.csv"]

    def test_manifest_is_deterministic(self, tmp_path):
        out = tmp_path / "f.csv"
        write_csv(out, ["x"], np.array([1]))
        write_manifest(tmp_path, "demo", {"a": 1, "b": 0.25}, [out])
        first = (tmp_path / MANIFEST_NAME).read_bytes()
        write_manifest(tmp_path, "demo", {"b": 0.25, "a": 1}, [out])
        assert (tmp_path / MANIFEST_NAME).read_bytes() == first
