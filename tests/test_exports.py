import ast
import importlib
from pathlib import Path

import pytest

_LAYERS = ["geometry", "ifs", "approx", "analysis", "diagnostics", "cli"]
_SRC = Path(__file__).resolve().parents[1] / "src" / "fracapprox"


@pytest.mark.parametrize("layer", _LAYERS)
def test_every_exported_name_resolves(layer):
    # bench/spans.py looks up each __all__ name of a layer with getattr
    mod = importlib.import_module(f"fracapprox.{layer}")
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def _names_used(node) -> list:
    """Every name `node` reads, as a bare name or as an attribute."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def _unread_exports(kind) -> list:
    """The names in a layer's __all__ defined at its top level as `kind`
    nodes that no top-level statement of src/ reads outside their own
    definition, as layer.name."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(_SRC.glob("*.py"))}
    readers = {}  # name -> the top-level statements that read it
    for tree in trees.values():
        for top in tree.body:
            for name in _names_used(top):
                readers.setdefault(name, []).append(top)
    unused = []
    for layer in _LAYERS:
        mod = importlib.import_module(f"fracapprox.{layer}")
        defs = {node.name: node for node in trees[layer].body if isinstance(node, kind)}
        for name in mod.__all__:
            if name not in defs or (layer, name) == ("cli", "main"):
                continue
            if not any(top is not defs[name] for top in readers.get(name, [])):
                unused.append(f"{layer}.{name}")
    return unused


def test_every_exported_function_has_a_caller():
    # a public function that nothing in the package uses is a second path to
    # a result; only the CLI entry point has no caller
    assert _unread_exports(ast.FunctionDef) == []


def test_every_exported_class_is_read():
    # a public class that nothing in the package reads is an input form no
    # caller uses: tests alone keep it alive
    assert _unread_exports(ast.ClassDef) == []
