"""What of scipy a ``pdwg`` process loads, and when, in fresh interpreters.

``import pdwg``, problems, meshes and the Cordes check load numpy only;
the first assembly imports ``scipy.sparse``.  ``pdwg`` never imports
``scipy.special`` (the triangle rules come from a fixed table), and
``pdwg.solver`` reads ``scipy.sparse.linalg`` through a proxy that
imports it at the first solve.  The pytest process has imported all of
these already, so each check runs a script in a new interpreter.  The
checks that take a bare ``import scipy.sparse`` as their baseline count
only the modules beyond it, so they hold on a scipy whose
``scipy.sparse`` imports more by itself.
"""

import json

import pytest

from conftest import run_fresh

FOOTPRINT = """
import json, sys
import scipy.sparse
baseline = set(sys.modules)
loaded = lambda: sorted(set(sys.modules) - baseline)

import pdwg
problem = pdwg.builtin("p1")
mesh = pdwg.build_initial_mesh(problem.domain)
after_import = loaded()
pdwg.solve(pdwg.build_saddle(pdwg.refine_uniform(mesh), pdwg.SpaceConfig(k=2), problem))
print(json.dumps([after_import, loaded()]))
"""


def test_import_and_solve_load_only_what_they_use():
    after_import, after_solve = json.loads(run_fresh(FOOTPRINT))
    assert "scipy.sparse.linalg._dsolve" not in after_import
    assert "scipy.sparse.linalg._dsolve" in after_solve
    # after_solve holds after_import too.
    assert not [m for m in after_solve if m.startswith("scipy.special")]


@pytest.mark.parametrize("user_import", [
    "import scipy.sparse.linalg\nspsolve = scipy.sparse.linalg.spsolve",
    "from scipy.sparse.linalg import spsolve",
], ids=["import", "from-import"])
def test_user_code_imports_sparse_linalg_after_pdwg(user_import):
    script = f"""
import numpy as np
import scipy.sparse
import pdwg
{user_import}
x = spsolve(scipy.sparse.csc_matrix(np.diag([2.0, 4.0])), np.array([2.0, 4.0]))
print(x.tolist(), spsolve is pdwg.solver.spla.spsolve)
"""
    assert run_fresh(script) == "[1.0, 1.0] True"


def test_assembly_leaves_sparse_linalg_out_of_sys_modules():
    script = """
import sys
import pdwg
problem = pdwg.builtin("p1")
mesh = pdwg.refine_uniform(pdwg.build_initial_mesh(problem.domain))
system = pdwg.build_saddle(mesh, pdwg.SpaceConfig(k=2), problem)
assembled = "scipy.sparse.linalg" in sys.modules
pdwg.solve(system)
print(assembled, "scipy.sparse.linalg" in sys.modules)
"""
    assert run_fresh(script) == "False True"


def test_import_problems_meshes_and_bad_flags_load_no_scipy():
    script = """
import json, sys
import pdwg
import pdwg.cli
for name in pdwg.catalog_names():
    problem = pdwg.builtin(name)
    pdwg.build_initial_mesh(problem.domain)
    pdwg.cordes_check(problem.coeff, *pdwg.cordes_samples(problem.domain))
code = pdwg.cli.main(["--problem", "nope"])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""
    assert json.loads(run_fresh(script)) == [2, []]


def test_first_assembly_loads_sparse_but_not_sparse_linalg():
    script = """
import sys
import pdwg
problem = pdwg.builtin("p1")
mesh = pdwg.build_initial_mesh(problem.domain)
before = "scipy.sparse" in sys.modules
pdwg.build_saddle(mesh, pdwg.SpaceConfig(k=2), problem)
print(before, "scipy.sparse" in sys.modules, "scipy.sparse.linalg" in sys.modules)
"""
    assert run_fresh(script) == "False True False"
