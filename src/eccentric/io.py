"""Deterministic CSV/JSON emission and run manifests.

Floats are formatted with 17 significant digits (round-trip exact for
float64), '.' decimal separator and '\\n' line endings, so identical runs
produce byte-identical files on every platform.
"""

from __future__ import annotations

import hashlib
import json
import warnings
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


def format_value(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def write_csv(path, header, rows):
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", newline="\n")


def write_embedding_csv(path, coords: np.ndarray, labels=None):
    """One row per item: coordinates, then an optional trailing label column.

    One format string per row writes the bytes write_csv would write."""
    coords = np.asarray(coords)
    header = [f"c{i}" for i in range(coords.shape[1])]
    fmt = ["%.17g"] * coords.shape[1]
    rows = coords.tolist()
    if labels is not None:
        header.append("label")
        fmt.append("%d")
        rows = [c + [l] for c, l in zip(rows, np.asarray(labels).tolist())]
    fmt = ",".join(fmt)
    lines = [",".join(header)] + [fmt % tuple(row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def read_embedding_csv(path):
    """Read a coordinates CSV; returns (coords, labels-or-None).

    Every line after the header is a data row: a blank line, a comment or a
    fractional label is an error naming the path."""
    header, _, body = Path(path).read_text().strip().partition("\n")
    if not body:
        raise ValueError(f"{path}: no data rows")
    rows = body.split("\n")
    if not all(map(str.strip, rows)):
        raise ValueError(f"{path}: blank line among the data rows")
    header = header.split(",")
    try:
        # older numpy truncates an unparsable int field through float with
        # only a DeprecationWarning; make that an error as well
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            if header[-1] != "label":
                return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2), None
            # a structured row keeps the label column integer: '3.5' there is an error
            row = np.dtype([("c", "f8", (len(header) - 1,)), ("label", "i8")])
            data = np.loadtxt(rows, dtype=row, delimiter=",", comments=None, ndmin=1)
    except (ValueError, DeprecationWarning) as exc:
        raise ValueError(f"{path}: {exc}") from None
    return np.ascontiguousarray(data["c"]), np.ascontiguousarray(data["label"])


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
