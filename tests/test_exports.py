import importlib

import pytest

_LAYERS = ["geometry", "ifs", "approx", "analysis", "diagnostics", "cli"]


@pytest.mark.parametrize("layer", _LAYERS)
def test_every_exported_name_resolves(layer):
    # bench/spans.py looks up each __all__ name of a layer with getattr
    mod = importlib.import_module(f"fracapprox.{layer}")
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
