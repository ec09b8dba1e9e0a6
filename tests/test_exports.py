"""Every name a dpcopt module lists in __all__ must resolve."""

import importlib
import pkgutil

import pytest

import dpcopt

# __main__ only runs the CLI and exports nothing.
MODULES = ["dpcopt"] + [
    f"dpcopt.{info.name}" for info in pkgutil.iter_modules(dpcopt.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert len(set(module.__all__)) == len(module.__all__)
    # What `from module import *` does: it raises AttributeError on a
    # name that does not resolve, and imports a listed submodule.
    namespace: dict = {}
    exec(f"from {module_name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
