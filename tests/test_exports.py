"""Every name a tswave module lists in ``__all__`` must exist, so a deletion
cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import tswave

MODULES = ["tswave"] + [f"tswave.{m.name}" for m in pkgutil.iter_modules(tswave.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing
