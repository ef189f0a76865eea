import importlib

import pytest

MODULES = ["eccentric"] + [
    f"eccentric.{name}" for name in
    ("kernel", "radius", "particles", "autoencoder", "datasets", "analysis", "io", "cli")]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # tools wrap the public API by looking up each name in __all__
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
