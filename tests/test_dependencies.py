"""Every declared runtime dependency is installed and used by the package,
and the code compiles on the oldest Python the package declares."""

import importlib
import os
import re
import subprocess
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hvgan"


def _project():
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def _runtime_modules():
    names = [re.match(r"[A-Za-z0-9_.-]+", d).group(0)
             for d in _project()["dependencies"]]
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


# compiles each path of argv in memory, so no bytecode is written
_COMPILE_ALL = (
    "import sys\n"
    "for path in sys.argv[1:]:\n"
    "    with open(path, encoding='utf-8') as f:\n"
    "        compile(f.read(), path, 'exec', dont_inherit=True)\n"
)


def test_code_compiles_on_the_declared_python_floor():
    floor = re.fullmatch(r">=\s*(\d+\.\d+)", _project()["requires-python"]).group(1)
    # PYENV_VERSION selects the interpreter where python3.X is a pyenv shim
    command = [f"python{floor}", "-I", "-c"]
    env = {**os.environ, "PYENV_VERSION": floor}
    try:
        probe = subprocess.run(
            [*command, "import sys; print('%d.%d' % sys.version_info[:2])"],
            env=env, capture_output=True, text=True,
        )
    except FileNotFoundError:
        probe = None
    if probe is None or probe.returncode or probe.stdout.strip() != floor:
        pytest.skip(f"no Python {floor} interpreter starts here")
    files = [str(p) for d in ("src", "tests", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    proc = subprocess.run(
        [*command, _COMPILE_ALL, *files], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
