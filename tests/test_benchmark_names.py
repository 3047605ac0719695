"""The benchmark finds the functions it wraps and calls by name.

perfbench/worker.py lists the traced ones in the literals MODULES, TRACED
and GENERATORS, and perfbench/workloads.py calls library functions as
prog.<module>.<name>, reads attributes of their results and passes
command lines to cli.main; a rename or removal in the package breaks the
benchmark run, so these tests read the literals, calls and options
without importing perfbench and look each one up in the package.
"""

import argparse
import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKER = PERFBENCH / "worker.py"
WORKLOADS = PERFBENCH / "workloads.py"


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


def _library_calls() -> set[str]:
    """The "module.name" of every prog.<module>.<name> in workloads.py, and
    of <alias>.<name> for a local alias = prog.<module>."""
    tree = ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))

    def prog_module(node):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "prog"):
            return node.attr
        return None

    aliases = {t.id: prog_module(node.value) for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and prog_module(node.value)
               for t in node.targets if isinstance(t, ast.Name)}
    calls = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            module = prog_module(node.value)
            if module is None and isinstance(node.value, ast.Name):
                module = aliases.get(node.value.id)
            if module is not None:
                calls.add(f"{module}.{node.attr}")
    return calls


LIBRARY_CALLS = sorted(_library_calls())


def test_library_calls_found():
    assert {"clifford.random_clifford", "clifford.clifford_trace_check",
            "f2lin.fixed_dim_histogram", "f2lin.maximal_isotropic_subspaces"} <= set(LIBRARY_CALLS)


@pytest.mark.parametrize("key", LIBRARY_CALLS)
def test_library_call_is_callable(key):
    module, func = key.split(".")
    assert callable(getattr(importlib.import_module(f"cliffdesigns.{module}"), func, None))


def test_library_results_have_the_read_attributes():
    # the attributes the workload checks read off each result
    import numpy as np

    from cliffdesigns import clifford, f2lin

    u = clifford.random_clifford(3, np.random.Generator(np.random.Philox(1)))
    assert u.matrix.shape == (8, 8)
    assert len(u.symplectic.rows) == 6
    report = clifford.clifford_trace_check(u)
    assert isinstance(report.kernel_dim, int) and report.passed
    assert sum(f2lin.fixed_dim_histogram(2)) == f2lin.sp_order(2)
    assert all(len(sub.basis) == 2 for sub in f2lin.maximal_isotropic_subspaces(2))


def _workload_literals() -> list:
    tree = ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))
    return [ast.literal_eval(node) for node in ast.walk(tree)
            if isinstance(node, (ast.Constant, ast.Tuple))
            and all(isinstance(e, ast.Constant) for e in getattr(node, "elts", ()))]


def _cli_options() -> set[str]:
    from cliffdesigns.cli import build_parser

    ap = build_parser()
    parsers = [ap] + [p for action in ap._actions
                      if isinstance(action, argparse._SubParsersAction)
                      for p in action.choices.values()]
    return {opt for p in parsers for opt in p._option_string_actions}


WORKLOAD_OPTIONS = sorted({v for v in _workload_literals()
                           if isinstance(v, str) and v.startswith("--")})


def test_workload_options_found():
    assert {"--alg2", "--mode", "--seed", "--samples"} <= set(WORKLOAD_OPTIONS)


@pytest.mark.parametrize("option", WORKLOAD_OPTIONS)
def test_workload_option_is_parsed(option):
    assert option in _cli_options()


def test_construct_accepts_the_workload_modes():
    from cliffdesigns.cli import build_parser

    modes = ("bisect", "secant")
    assert modes in _workload_literals()
    for mode in modes:
        args = build_parser().parse_args(["construct", "--alg2", "--n", "2", "--mode", mode])
        assert args.mode == mode
