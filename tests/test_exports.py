import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

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


def test_solvers_import_without_scipy_integrate():
    # only the dense time integrators use scipy.integrate, which imports
    # scipy.optimize with it; building a model and solving stay without both
    code = (
        "import sys, floquet_ness, floquet_ness.models, floquet_ness.solver; "
        "sys.exit('scipy.integrate' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(floquet_ness.__file__))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
