import importlib
import pkgutil

import pytest

import markovup

MODULES = ["markovup", *(f"markovup.{info.name}" for info in pkgutil.iter_modules(markovup.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    # a name deleted or moved out of a module cannot linger in its export list
    module = importlib.import_module(name)
    assert [export for export in getattr(module, "__all__", []) if not hasattr(module, export)] == []
