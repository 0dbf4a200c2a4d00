"""The names the benchmark's per-layer tracer wraps exist where it looks for them.

``perfbench/tracer.py`` wraps the public names of each module's
``__all__`` and reports a traced name it never wrapped as 0 calls, so a
renamed, moved or unlisted function would read as free.  The names are
read from ``perfbench/run.py`` with ``ast``: importing that script would
set its BLAS environment variables in this process.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest
import scipy.sparse.linalg

import pdwg.solver

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

# Traced through the proxy that replaces ``pdwg.solver.spla``, not by name.
SPLA_NAMES = ("solver.splu", "solver.lu_solve")


def traced_functions():
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED_FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED_FUNCTIONS in {RUN_PY}")


TRACED = traced_functions()


def test_traced_functions_read():
    assert len(TRACED) == len(set(TRACED)) > len(SPLA_NAMES)
    assert set(SPLA_NAMES) <= set(TRACED)


@pytest.mark.parametrize("name", [n for n in TRACED if n not in SPLA_NAMES])
def test_traced_name_is_public_in_its_module(name):
    layer, public, *method = name.split(".")
    module = importlib.import_module(f"pdwg.{layer}")
    assert public in module.__all__
    obj = getattr(module, public)
    assert obj.__module__ == module.__name__
    if method:
        (attr,) = method
        assert inspect.isclass(obj)
        assert not attr.startswith("_") and inspect.isfunction(vars(obj).get(attr))
    else:
        assert callable(obj) and not inspect.isclass(obj)


def test_solver_binds_sparse_linalg_at_module_level():
    # The tracer swaps this binding for a proxy that traces splu and each
    # factor's solve.  ``solve`` must read that global: an import of
    # ``scipy.sparse.linalg`` or ``splu`` inside it would bypass the proxy.
    assert pdwg.solver.spla.splu is scipy.sparse.linalg.splu
    assert "spla" in pdwg.solver.solve.__code__.co_names
