import ast
import importlib
import os
import re
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


def test_cli_start_loads_no_scipy():
    # scipy.spatial alone took ~0.5 s of a ~0.6 s CLI start; each function imports
    # the scipy module it uses when it first needs it (test_src_imports_only_pinned_scipy),
    # and the CSV reader imports orjson the same way (test_src_imports_orjson_in_one_place)
    code = ("import sys, eccentric.cli\n"
            "print([m for m in sys.modules if m.split('.')[0] in ('scipy', 'orjson')])")
    src = str(Path(importlib.import_module("eccentric").__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_oracles_load_no_mpmath_scipy_or_pytest():
    # the oracle module loads only numpy and eccentric, so a script outside the
    # suite can import it at the program's own memory cost; each oracle imports
    # mpmath or the scipy module it uses when it is first called
    code = ("import sys, kernel_oracles\n"
            "print(sorted({'mpmath', 'scipy.integrate', 'scipy.optimize', 'scipy.spatial',\n"
            "              'pytest'} & set(sys.modules)))")
    tests = Path(__file__).parent
    src = str(Path(importlib.import_module("eccentric").__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                         text=True, env={**os.environ,
                                         "PYTHONPATH": os.pathsep.join([str(tests), src])})
    assert out.stdout.strip() == "[]"


def test_flow_loads_no_scipy_spatial(tmp_path):
    # every tile of flow's batches is full and passes the kernel's Gram guard, so
    # simulate never calls cdist and leaves scipy.spatial unloaded; a batch of 100 is
    # one partial tile, which does load it
    code = ("import sys, numpy as np\n"
            "from eccentric import cli, kernel\n"
            "for count, steps in (('512', '120'), ('2048', '12')):\n"
            "    assert cli.run(['simulate', '--dim', '16', '--mu', '1.0', '--auto-n',\n"
            "                    '--count', count, '--steps', steps, '--step-size', '0.2',\n"
            "                    '--init-scale', '1.0', '--seed', '6', '--out-dir', count]) == 0\n"
            "print([m for m in sys.modules if m.startswith('scipy.spatial')])\n"
            "kernel.batch_loss(kernel.PointBatch(np.ones((100, 16))), kernel.ParamSet(16, 1, 9))\n"
            "print('scipy.spatial.distance' in sys.modules)\n")
    src = str(Path(importlib.import_module("eccentric").__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                         text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.splitlines() == ["[]", "True"]
    assert (tmp_path / "2048" / "manifest.json").is_file()


def test_module_run_writes_outputs(tmp_path):
    # `python -m eccentric.cli` runs the same entry point as the `eccentric` script
    src = str(Path(importlib.import_module("eccentric").__file__).parents[1])
    subprocess.run([sys.executable, "-m", "eccentric.cli", "solve-radius", "--dim", "5",
                    "--mu", "1.5", "--auto-n", "--out-dir", "m1"], cwd=tmp_path,
                   capture_output=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert (tmp_path / "m1" / "manifest.json").is_file()


def _walk(node, module, func):
    """(module, enclosing function, node) for node and every node below it."""
    func = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
    yield module, func, node
    for child in ast.iter_child_nodes(node):
        yield from _walk(child, module, func)


def _package_nodes():
    package = Path(importlib.import_module("eccentric").__file__).parent
    for path in sorted(package.glob("*.py")):
        yield from _walk(ast.parse(path.read_text()), path.stem, None)


def _imports(top):
    """(module, enclosing function, imported name) for every import of package top."""
    for module, func, node in _package_nodes():
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        yield from ((module, func, name) for name in names if name.split(".")[0] == top)


def test_every_product_goes_through_kernel_matmul():
    # kernel._matmul is the one owner of products whose bits must not depend on
    # the BLAS thread count; only the KNN prefilter multiplies by itself, since
    # its margin holds for any summation order
    blas = ("dot", "inner", "matmul", "multi_dot", "tensordot", "vdot")
    found = [(module, func, node.lineno) for module, func, node in _package_nodes()
             if isinstance(getattr(node, "op", None), ast.MatMult)
             or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in blas]
    stray = [(module, func) for module, func, _ in found if (module, func) != ("kernel", "_matmul")]
    assert stray == [("analysis", "knn_classify")], found


def test_src_imports_only_pinned_scipy():
    # the solver's 2F1, the Gram tiles that fail their guard and align's matching
    # are the only users of scipy, each importing its module where it needs it
    assert list(_imports("scipy")) == [("analysis", "align", "scipy.sparse"),
                                       ("analysis", "align", "scipy.sparse.csgraph"),
                                       ("kernel", "_pair_pass", "scipy.spatial.distance"),
                                       ("radius", "_hyp2f1_pfaff", "scipy.special")]


def test_src_imports_orjson_in_one_place():
    # io alone uses orjson: format_value and write_csv's block serializer write float
    # text with it, and the CSV reader's JSON step parses with it
    assert list(_imports("orjson")) == [("io", "format_value", "orjson"),
                                        ("io", "_text_rows", "orjson"),
                                        ("io", "_json_rows", "orjson")]


def test_one_owner_of_the_float_format():
    # every float in CSV text, the manifest's config and solve-radius's printed rho
    # reaches text through io: format_value per value and _text_rows, write_csv's
    # block serializer, both as orjson's shortest round-trip text
    nodes = list(_package_nodes())
    dumps = sorted({(module, func) for module, func, node in nodes
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "dumps"
                    and getattr(node.func.value, "id", None) == "orjson"})
    assert dumps == [("io", "_text_rows"), ("io", "format_value")]
    # no fixed-digit format writes a value: the one float format spec left in src is
    # solve-radius's residual, a 3-digit diagnostic
    specs = sorted((module, func, ast.unparse(node.format_spec)) for module, func, node in nodes
                   if isinstance(node, ast.FormattedValue) and node.format_spec is not None
                   and re.search(r"[efg%]$", ast.unparse(node.format_spec).strip("'\"")))
    assert specs == [("cli", "_cmd_solve_radius", "f'.3e'")]
    percent = [(module, func) for module, func, node in nodes
               if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
               and isinstance(node.left, ast.Constant) and isinstance(node.left.value, str)
               and re.search(r"%[-+ #0-9.*]*[eEfFgG]", node.left.value)]
    assert percent == []
    package = Path(importlib.import_module("eccentric").__file__).parent
    assert [p.name for p in sorted(package.glob("*.py")) if ".17g" in p.read_text()] == []
