"""Deterministic CSV/JSON emission and run manifests.

Floats are formatted with 17 significant digits (round-trip exact for
float64), '.' decimal separator and '\\n' line endings, so identical runs
with the same build and BLAS thread count produce byte-identical files.
`simulate` outputs do not depend on the BLAS thread count at all (the pair
kernel's products are at most 128 x 128 tiles); `train` outputs can at
batches above 128, where the autoencoder's `inp.T @ g` sums over the batch
in one BLAS product.

Every output is written as a new file: whatever file is at its path is
removed first, so a symlink or hard link there is replaced, not written
through.
"""

from __future__ import annotations

import hashlib
import json
import re
import warnings
from itertools import chain, islice
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


def _write_lines(path, header, lines):
    """Write the header row, then each line of an iterable (each ending in '\\n')."""
    with open_new(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def _rows_of(array):
    """The rows of an array as Python values, converted _IO_ROWS at a time."""
    return chain.from_iterable(array[lo:lo + _IO_ROWS].tolist()
                               for lo in range(0, len(array), _IO_ROWS))


def write_csv(path, header, rows):
    _write_lines(path, header, (",".join(map(format_value, row)) + "\n" for row in rows))


def write_json(path, obj):
    with open_new(path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_embedding_csv(path, coords: np.ndarray, labels=None):
    """One row per item: coordinates, then an optional trailing label column.

    One format string per row writes the bytes write_csv would write."""
    coords = np.asarray(coords)
    header = [f"c{i}" for i in range(coords.shape[1])]
    fmt = ["%.17g"] * coords.shape[1]
    rows = _rows_of(coords)
    if labels is not None:
        header.append("label")
        fmt.append("%d")
        rows = (row + [label] for row, label in zip(rows, _rows_of(np.asarray(labels))))
    fmt = ",".join(fmt) + "\n"
    _write_lines(path, header, (fmt % tuple(row) for row in rows))


def _load_rows(path, lines, first, dtype, width):
    """Parse data lines first, first + 1, ... of path, each of width fields.

    An error names the first bad line, counted from the top of the file."""
    try:
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except (ValueError, DeprecationWarning) as exc:
        error = exc
    for number, line in enumerate(lines, first):
        try:
            np.loadtxt([line], dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except (ValueError, DeprecationWarning) as exc:
            fields = line.count(",") + 1
            if fields != width:
                raise ValueError(f"{path}: {fields} columns on line {number}, "
                                 f"{width} in the header") from None
            # numpy numbers the row within the lines it was given
            raise ValueError(f"{path}: " + re.sub(r"\brow \d+", f"line {number}", str(exc))
                             ) from None
    raise ValueError(f"{path}: {error}") from None


def read_embedding_csv(path):
    """Read a coordinates CSV; returns (coords, labels-or-None).

    Every line after the header is a data row: a blank line, a comment, a
    fractional label or a row width other than the header's is an error
    naming the path and the line.  Blank lines before the header and after
    the last row are ignored.  Rows are parsed _IO_ROWS at a time, so beyond
    the result the reader holds one block of text and the parsed blocks."""
    with open(path) as fh, warnings.catch_warnings():
        # older numpy truncates an unparsable int field through float with
        # only a DeprecationWarning; make that an error as well
        warnings.simplefilter("error", DeprecationWarning)
        head, header = 0, ""
        for head, header in enumerate(fh, 1):
            if header.strip():
                break
        header = header.strip().split(",")
        labeled = header[-1] == "label"
        width = len(header) - labeled
        if not width:
            raise ValueError(f"{path}: no coordinate columns in the header")
        # a structured row keeps the label column integer: '3.5' there is an error
        dtype = np.dtype([("c", "f8", (width,))] + [("label", "i8")] * labeled)
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
                blocks.append(_load_rows(path, block[:end], first, dtype, len(header)))
            first += len(block)
    if not blocks:
        raise ValueError(f"{path}: no data rows")
    coords = np.concatenate([b["c"] for b in blocks])
    return coords, (np.concatenate([b["label"] for b in blocks]) if labeled else None)


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
