"""The benchmark's traced run finds the functions it wraps by name.

perfbench/worker.py lists them in the literals MODULES, TRACED and
GENERATORS; a rename or removal in the package breaks the traced run, so
these tests read the literals without importing the worker and look each
name up in the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def _literal(name: str):
    tree = ast.parse(WORKER.read_text(), filename=str(WORKER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{WORKER.name} has no top-level {name}")


MODULES = _literal("MODULES")
TRACED = _literal("TRACED")
GENERATORS = _literal("GENERATORS")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports(module):
    importlib.import_module(f"cliffdesigns.{module}")


@pytest.mark.parametrize("key", [f"{m}.{f}" for m, funcs in TRACED.items() for f in funcs])
def test_traced_name_is_callable(key):
    module, func = key.split(".")
    assert module in MODULES
    assert callable(getattr(importlib.import_module(f"cliffdesigns.{module}"), func, None))


def test_generators_are_generator_functions():
    assert "f2lin.enumerate_sp" in GENERATORS
    for key in GENERATORS:
        module, func = key.split(".")
        assert inspect.isgeneratorfunction(
            getattr(importlib.import_module(f"cliffdesigns.{module}"), func))
