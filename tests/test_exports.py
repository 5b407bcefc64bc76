"""Every name a weyldl module exports resolves."""

import importlib
import pkgutil

import pytest

import weyldl

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(weyldl.__path__, "weyldl.") if m.name != "weyldl.__main__"
)


def test_modules_found():
    assert "weyldl.lifting" in MODULES and "weyldl.subsystems" in MODULES


@pytest.mark.parametrize("name", ["weyldl"] + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing
