"""Deterministic CSV/JSON emission and run manifests.

Every CSV goes through write_csv, which formats each column by its dtype:
integers with %d, floats with %.17g (17 significant digits, round-trip exact
for float64), '.' decimal separator and '\\n' line endings, so identical runs
with the same build produce byte-identical files.  Every product goes through
kernel._matmul, so the bytes do not depend on the BLAS thread count, except
where eigh's results reach them above d = 128 (README, Determinism).

Every output is written as a new file: whatever file is at its path is
removed first, so a symlink or hard link there is replaced, not written
through.

read_embedding_csv parses each block of rows as one JSON array with orjson,
and hands a block to np.loadtxt where JSON would read it otherwise or not at
all (nan, inf, -0 and the like); either way a file reads to the same bits.
"""

from __future__ import annotations

import hashlib
import json
import re
import warnings
from itertools import islice
from pathlib import Path

import numpy as np

__all__ = [
    "format_value",
    "write_csv",
    "write_json",
    "write_embedding_csv",
    "read_embedding_csv",
    "sha256_file",
    "write_manifest",
    "verify_manifest",
    "MANIFEST_NAME",
]

MANIFEST_NAME = "manifest.json"
# rows per block that the CSV reader parses and the writers convert at a time
_IO_ROWS = 256


def format_value(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def open_new(path, binary=False):
    """Open path for writing as a new file, removing the file there first.

    A symlink or hard link at path is replaced, not written through.  Removing
    also skips truncating the old data, which on ext4 costs more than writing
    a small file afresh."""
    path = Path(path)
    path.unlink(missing_ok=True)
    return open(path, "xb") if binary else open(path, "x", newline="\n")


def write_csv(path, header, *columns):
    """Write the header row, then one row per entry of the columns.

    Each column is a 1-D array or a 2-D block of columns of one dtype, all of
    the same length; integer columns are written with %d and float columns
    with %.17g.  Rows are formatted _IO_ROWS at a time, one format string per
    block."""
    blocks = [c if c.ndim == 2 else c[:, None] for c in map(np.asarray, columns)]
    if len({len(b) for b in blocks}) > 1:
        raise ValueError(f"{path}: columns of unequal lengths {[len(b) for b in blocks]}")
    row_fmt = ",".join("%d" if b.dtype.kind in "iu" else "%.17g"
                       for b in blocks for _ in range(b.shape[1])) + "\n"
    with open_new(path) as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(blocks[0]), _IO_ROWS):
            table = np.hstack([b[lo:lo + _IO_ROWS].astype(object) for b in blocks])
            fh.write(row_fmt * len(table) % tuple(table.ravel().tolist()))


def write_json(path, obj):
    with open_new(path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_embedding_csv(path, coords: np.ndarray, labels=None):
    """One row per item: columns c0..c{d-1}, then an optional integer label column."""
    coords = np.asarray(coords)
    header = [f"c{i}" for i in range(coords.shape[1])]
    if labels is None:
        return write_csv(path, header, coords)
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise ValueError(f"{path}: labels must be integers, got dtype {labels.dtype}")
    write_csv(path, header + ["label"], coords, labels)


def _json_rows(lines, width, labeled):
    """(coords, labels or None) of the lines through one orjson parse, or None
    to leave them to np.loadtxt.

    orjson rounds JSON's numbers, a subset of np.loadtxt's fields, as
    np.loadtxt does; a block is declined where its bits could differ: a value
    that is not a number, rows of another shape, an exact zero (JSON reads -0
    as the integer 0) or a label that is not an int64."""
    text = "[[" + "],[".join([line.rstrip("\n") for line in lines]) + "]]"
    # true, false, null and strings need one of these; arrays and objects fail
    # np.array or the shape check
    if any(c in text for c in '"tfn'):
        return None
    import orjson
    try:
        rows = orjson.loads(text)
        table = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError):
        return None
    if table.shape != (len(lines), width + labeled) or not table[:, :width].all():
        return None
    if not labeled:
        return table, None
    # Python ints that all fit in int64 make an int64 array; a float does not
    labels = np.array([row[-1] for row in rows])
    return (table[:, :width], labels) if labels.dtype == np.int64 else None


def _load_rows(path, lines, first, width, labeled):
    """(coords, labels or None) of data lines first, first + 1, ... of path.

    A block that the JSON step declines is parsed by np.loadtxt, which reads
    nan, inf and the other fields outside JSON's number grammar; an error
    names the first bad line, counted from the top of the file."""
    rows = _json_rows(lines, width, labeled)
    if rows is not None:
        return rows
    # a structured row keeps the label column integer: '3.5' there is an error
    dtype = np.dtype([("c", "f8", (width,))] + [("label", "i8")] * labeled)
    try:
        rows = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        return rows["c"], (rows["label"] if labeled else None)
    except (ValueError, DeprecationWarning) as exc:
        error = exc
    for number, line in enumerate(lines, first):
        try:
            np.loadtxt([line], dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except (ValueError, DeprecationWarning) as exc:
            fields = line.count(",") + 1
            if fields != width + labeled:
                raise ValueError(f"{path}: {fields} columns on line {number}, "
                                 f"{width + labeled} in the header") from None
            # numpy numbers the row within the lines it was given
            raise ValueError(f"{path}: " + re.sub(r"\brow \d+", f"line {number}", str(exc))
                             ) from None
    raise ValueError(f"{path}: {error}") from None


def _is_number(field):
    try:
        float(field)
    except ValueError:
        return False
    return True


def read_embedding_csv(path):
    """Read a coordinates CSV; returns (coords, labels-or-None).

    The first nonblank line is the header of column names: a header whose
    every field is a number is an error, not a first row.  Every line after
    it is a data row: a blank line, a comment, a fractional label or a row
    width other than the header's is an error naming the path and the line.
    Blank lines before the header and after the last row are ignored.  Rows
    are parsed _IO_ROWS at a time, each block as one orjson array where JSON
    reads every field and by np.loadtxt otherwise, with the same bits either
    way; so beyond the result the reader holds one block of text and the
    parsed blocks."""
    with open(path) as fh, warnings.catch_warnings():
        # older numpy truncates an unparsable int field through float with
        # only a DeprecationWarning; make that an error as well
        warnings.simplefilter("error", DeprecationWarning)
        head, header = 0, ""
        for head, header in enumerate(fh, 1):
            if header.strip():
                break
        header = [name.strip() for name in header.split(",")]
        if all(map(_is_number, header)):
            raise ValueError(f"{path}: line {head} is all numbers; expected a header of "
                             "column names")
        labeled = header[-1] == "label"
        width = len(header) - labeled
        if not width:
            raise ValueError(f"{path}: no coordinate columns in the header")
        blocks, first, blank = [], head + 1, None
        while block := list(islice(fh, _IO_ROWS)):
            # the rows end at the first blank line; every line after it must be blank
            end = 0
            if blank is None:
                end = next((i for i, line in enumerate(block) if not line.strip()), len(block))
                if end < len(block):
                    blank = first + end
            if any(map(str.strip, block[end:])):
                raise ValueError(f"{path}: blank line {blank} among the data rows")
            if end:
                blocks.append(_load_rows(path, block[:end], first, width, labeled))
            first += len(block)
    if not blocks:
        raise ValueError(f"{path}: no data rows")
    coords, labels = zip(*blocks)
    return np.concatenate(coords), (np.concatenate(labels) if labeled else None)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, command: str, config: dict, outputs):
    """Record the resolved config and a sha256 per output file."""
    out_dir = Path(out_dir)
    manifest = {
        "command": command,
        "config": {k: format_value(v) for k, v in sorted(config.items())},
        "outputs": {Path(p).name: sha256_file(p) for p in outputs},
    }
    write_json(out_dir / MANIFEST_NAME, manifest)
    return manifest


def verify_manifest(out_dir) -> list[str]:
    """Re-hash every file listed in the manifest; returns mismatch names."""
    out_dir = Path(out_dir)
    manifest = json.loads((out_dir / MANIFEST_NAME).read_text())
    bad = []
    for name, digest in manifest["outputs"].items():
        target = out_dir / name
        if not target.exists() or sha256_file(target) != digest:
            bad.append(name)
    return bad
