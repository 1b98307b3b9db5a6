"""The package's import layers: which of its own modules each module imports
when it is loaded. A change that adds an edge updates ``LAYERS`` with it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hvgan"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))

# module -> the package modules it may import at module level; ``cli`` keeps
# its training imports inside the commands, which TestImportBoundary pins
LAYERS = {
    "__init__": set(),
    "__main__": {"cli"},
    "kernels": set(),
    "metrics": set(),
    "scalarize": set(),
    "data_io": set(),
    "moo": {"kernels"},
    "autodiff": {"kernels"},
    "losses": {"autodiff"},
    "synth": {"data_io"},
    "model": {"autodiff", "data_io", "losses", "scalarize"},
    "cli": set(MODULES),
}


def _module_level(node):
    """The statements run when the module loads: function bodies are skipped."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
            yield from _module_level(child)


def _package_imports(name: str) -> set:
    """The package modules ``hvgan.<name>`` imports as it loads; a name of the
    package root counts as ``__init__``."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    dotted = []
    for node in _module_level(tree):
        if isinstance(node, ast.Import):
            dotted += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["hvgan" * bool(node.level), node.module]))
            dotted += [f"{base}.{a.name}" for a in node.names]
    found = set()
    for parts in (d.split(".") for d in dotted):
        if parts[0] == "hvgan":
            found.add(parts[1] if parts[1:] and parts[1] in MODULES else "__init__")
    return found - {name}


def test_every_module_has_a_layer():
    assert sorted(LAYERS) == MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_only_its_layer(name):
    extra = _package_imports(name) - LAYERS[name]
    assert not extra, f"hvgan.{name} imports {sorted(extra)} outside its layer"
