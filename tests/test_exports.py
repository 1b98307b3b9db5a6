"""Every name a module exports through ``__all__`` exists on that module."""

import importlib
import pkgutil

import pytest

import hvgan

MODULES = ["hvgan"] + [
    f"hvgan.{info.name}" for info in pkgutil.iter_modules(hvgan.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
