"""Every name a module exports through ``__all__`` exists on that module, and
the package itself reaches it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hvgan

MODULES = ["hvgan"] + [
    f"hvgan.{info.name}" for info in pkgutil.iter_modules(hvgan.__path__)
]

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "hvgan").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _references(tree: ast.Module) -> set:
    """Names the module reads: loaded names, attributes and ``from ...
    import`` targets. A top-level definition's references to its own name
    and a ``from ... import`` of a name the module re-exports through its own
    ``__all__`` do not count."""
    exported = _exported(tree)
    refs = set()
    for top in tree.body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update({a.asname or a.name for a in node.names} - exported)
        refs |= names - {getattr(top, "name", None)}
    return refs


def test_every_exported_name_is_used_by_the_package_or_the_benchmark():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    used = set().union(*map(_references, trees.values()))
    unused = sorted(
        f"hvgan.{path.stem}.{name}".replace(".__init__", "")
        for path, tree in trees.items() if path.parent.name == "hvgan"
        for name in _exported(tree) - used
    )
    assert not unused, f"exported but never referenced: {unused}"
