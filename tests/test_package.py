import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ["eccentric"] + [
    f"eccentric.{name}" for name in
    ("kernel", "radius", "particles", "autoencoder", "datasets", "analysis", "io", "cli")]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # tools wrap the public API by looking up each name in __all__
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_cli_start_loads_no_optimize_or_integrate():
    # each adds MiBs and a measurable start-up time to every CLI call; only
    # lemma-check needs optimize and integrate, only align needs csgraph, and
    # each imports its own
    code = ("import sys, eccentric.cli; print([m for m in "
            "('scipy.optimize', 'scipy.integrate', 'scipy.sparse.csgraph') "
            "if m in sys.modules])")
    src = str(Path(importlib.import_module("eccentric").__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"
