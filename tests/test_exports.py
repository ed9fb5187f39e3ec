import ast
import importlib
import inspect
import pkgutil

import pytest

import floquet_ness

MODULES = sorted(m.name for m in pkgutil.iter_modules(floquet_ness.__path__))


def test_package_has_modules():
    assert {"freqspace", "liouvillian", "solver", "tensors"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"floquet_ness.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"floquet_ness.{name}.__all__ names missing objects: {missing}"


def test_package_reexports_exist():
    tree = ast.parse(inspect.getsource(floquet_ness))
    reexports = [
        (node.module, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert reexports
    for module_name, attr in reexports:
        module = importlib.import_module(f"floquet_ness.{module_name}")
        assert hasattr(module, attr), f"floquet_ness.{module_name} has no {attr}"
        assert getattr(floquet_ness, attr) is getattr(module, attr)
