"""Every declared runtime dependency is installed and used by the package."""

import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hvgan"


def _runtime_modules():
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    names = [re.match(r"[A-Za-z0-9_.-]+", d).group(0)
             for d in meta["project"]["dependencies"]]
    return [n.lower().replace("-", "_") for n in names]


@pytest.mark.parametrize("module", _runtime_modules())
def test_dependency_imports(module):
    importlib.import_module(module)


@pytest.mark.parametrize("module", _runtime_modules())
def test_dependency_is_used_by_the_package(module):
    pattern = re.compile(rf"^\s*(import|from)\s+{re.escape(module)}\b", re.M)
    users = [p.name for p in sorted(PACKAGE.rglob("*.py"))
             if pattern.search(p.read_text())]
    assert users, f"{module} is declared in pyproject.toml but never imported"
