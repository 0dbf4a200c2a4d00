"""Saddle-point solver: exactness, residual contract, failure modes."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import pdwg.solver
from pdwg.assembly import build_saddle, constant_coefficients
from pdwg.mesh import DomainSpec, build_initial_mesh, refine_uniform
from pdwg.polyquad import get_element_rule
from pdwg.problems import ProblemSpec, builtin
from pdwg.solver import RESIDUAL_RTOL, SolverError, WgSolution, _eliminate, solve
from pdwg.wgspace import SpaceConfig, build_dof_map

from conftest import SUPERLU_ALLOCATION_FAILURES, assert_csr_bitwise_equal, quadratic_problem

ALL_VARIANTS = [
    SpaceConfig(k=2, multiplier_space="pkm1", c0_type=True),
    SpaceConfig(k=2, multiplier_space="pkm2", c0_type=True),
    SpaceConfig(k=2, multiplier_space="pkm1", c0_type=False),
    SpaceConfig(k=2, multiplier_space="pkm2", c0_type=False),
]


def l2_error_u0(sol, mesh, exact, degree=8):
    pts, w = get_element_rule(mesh, degree)
    diff = sol.eval_u0(pts) - exact(pts[..., 0], pts[..., 1])
    return float(np.sqrt(np.sum(diff**2 * w)))


# -- exact reproduction --------------------------------------------------------

@pytest.mark.parametrize("config", ALL_VARIANTS, ids=lambda c: f"{c.multiplier_space}-{'c0' if c.c0_type else 'gen'}")
def test_quadratic_reproduced_exactly(unit_meshes, config):
    # A quadratic solution lies in every discrete space involved, so the
    # solver must reproduce it to solver tolerance and the multiplier
    # must vanish.
    mesh = unit_meshes[1]
    prob = quadratic_problem()
    sol = solve(build_saddle(mesh, config, prob))
    assert l2_error_u0(sol, mesh, prob.exact_u) <= 1e-9
    assert np.linalg.norm(sol.lam_vec) <= 1e-9


def test_quadratic_gradient_reproduced(unit_meshes):
    mesh = unit_meshes[1]
    prob = quadratic_problem()
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=True)
    sol = solve(build_saddle(mesh, config, prob))
    pts, w = get_element_rule(mesh, 8)
    for dx, dy, comp in ((1, 0, 0), (0, 1, 1)):
        grad = sol.eval_u0(pts, dx=dx, dy=dy)
        exact = prob.exact_grad_u(pts[..., 0], pts[..., 1])[comp]
        assert float(np.sqrt(np.sum((grad - exact) ** 2 * w))) <= 1e-8


def test_zero_data_zero_solution(unit_meshes):
    mesh = unit_meshes[1]
    zero = lambda x, y, region=None: np.zeros(np.broadcast(x, y).shape)
    prob = ProblemSpec(
        name="null",
        domain=DomainSpec("unit_square"),
        coeff=constant_coefficients([[1.0, 0.0], [0.0, 1.0]]),
        f=zero,
        g=lambda x, y: np.zeros(np.broadcast(x, y).shape),
    )
    for config in ALL_VARIANTS:
        sol = solve(build_saddle(mesh, config, prob))
        assert np.all(sol.primal == 0.0)
        assert np.all(sol.lam_vec == 0.0)


# -- residual contract and solution record -------------------------------------

def test_residual_contract(unit_meshes):
    mesh = unit_meshes[2]
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=True)
    system = build_saddle(mesh, config, builtin("p1"))
    sol = solve(system)
    assert isinstance(sol, WgSolution)
    assert np.isfinite(sol.residual_norm)
    rhs_norm = np.linalg.norm(system.F)
    assert sol.residual_norm <= RESIDUAL_RTOL * max(rhs_norm, 1.0)


def test_solution_fields_shapes(unit_meshes):
    mesh = unit_meshes[1]
    prob = builtin("p1")
    general = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=False)
    sol = solve(build_saddle(mesh, general, prob))
    assert sol.u0.shape == (mesh.n_triangles, 6)
    assert sol.ub.shape == (mesh.n_edges, 3)
    assert sol.ug.shape == (mesh.n_edges, 2, 2)
    assert sol.lam_vec.shape == (mesh.n_triangles * 3,)

    c0 = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=True)
    sol = solve(build_saddle(mesh, c0, prob))
    assert sol.ub is None
    assert sol.u0.shape == (mesh.n_triangles, 6)


@pytest.mark.parametrize("c0", [True, False], ids=["c0", "general"])
def test_solution_fields_are_views_of_primal(unit_meshes, c0):
    # The solution stores the solved system and its two unknowns once;
    # the trace fields are read from ``primal``, never copied.
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=c0)
    system = build_saddle(unit_meshes[1], config, builtin("p1"))
    sol = solve(system)
    assert sol.system is system
    assert np.shares_memory(sol.ug, sol.primal)
    if not c0:
        assert np.shares_memory(sol.ub, sol.primal)
        assert np.shares_memory(sol.u0, sol.primal)


def test_error_decreases_under_refinement(unit_meshes):
    prob = builtin("p1")
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=True)
    errs = [
        l2_error_u0(solve(build_saddle(mesh, config, prob)), mesh, prob.exact_u)
        for mesh in unit_meshes[1:4]
    ]
    assert errs[0] > errs[1] > errs[2]
    # cubic interior convergence: each halving should shrink the error
    # by far more than the factor 4 of a merely second-order method
    assert errs[1] / errs[2] > 4.0


# -- elimination ---------------------------------------------------------------

def _coo_reduced_system(system):
    """``K_red`` and the free DOFs by one ``sp.bmat`` call with a missing block.

    The missing block sends scipy through COO, which sorts each column
    and sums duplicates: a route independent of compressed stacking.
    """
    free_idx = np.flatnonzero(np.isin(np.arange(system.n_primal), system.constrained, invert=True))
    S, B = system.S, system.B
    B_f = B[:, free_idx]
    K = sp.bmat([[S[free_idx][:, free_idx], B_f.T], [B_f, None]], format="csc")
    return K, free_idx


@pytest.mark.parametrize("config", ALL_VARIANTS, ids=lambda c: f"{c.multiplier_space}-{'c0' if c.c0_type else 'gen'}")
@pytest.mark.parametrize("name", ["p1", "p2", "p4"])
def test_reduced_system_is_the_stacked_blocks(config, name):
    # Compressed stacking gives the bits, index dtypes included, of
    # scipy's COO route.
    problem = builtin(name)
    mesh = build_initial_mesh(problem.domain)
    for _ in range(2):
        mesh = refine_uniform(mesh)
    system = build_saddle(mesh, config, problem)
    K_red, _, free_idx = _eliminate(system)
    want, want_free = _coo_reduced_system(system)
    assert K_red.format == "csc"
    for attr in ("indptr", "indices"):
        assert getattr(K_red, attr).dtype == getattr(want, attr).dtype, attr
    # The transpose of a CSC matrix is the CSR matrix of the same arrays.
    assert_csr_bitwise_equal(K_red.T, want.T)
    np.testing.assert_array_equal(free_idx, want_free)


# -- failure modes and determinism ---------------------------------------------

@pytest.mark.parametrize("c0", [True, False])
def test_singular_system_raises_solver_error(unit_meshes, c0):
    # With S = 0 nothing penalizes the primal directions in the kernel of
    # B, which has fewer rows than there are free primal unknowns, so the
    # factorization meets an exactly zero pivot.
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=c0)
    system = build_saddle(unit_meshes[1], config, builtin("p1"))
    with pytest.raises(SolverError, match="sparse factorization failed"):
        solve(replace(system, S=0 * system.S))


def test_solver_errors_name_their_sizes(unit_meshes, monkeypatch):
    # Each failure keeps its opening words and adds the order and nonzeros
    # of K_red; once factorized, also the nonzeros of L and U.
    system = build_saddle(unit_meshes[1], SpaceConfig(k=2), builtin("p1"))
    K_red = _eliminate(system)[0]
    order = system.n_primal - system.constrained.size + system.n_mult
    assert K_red.shape == (order, order)
    sizes = f"K_red order {order}, nnz {K_red.nnz}"
    factored = f"{sizes}, L+U nnz {spla.splu(K_red).nnz}"

    with pytest.raises(SolverError, match="^sparse factorization failed: ") as info:
        solve(replace(system, S=0 * system.S))  # same pattern, so the same K_red nnz
    assert str(info.value).endswith(f"; {sizes}")

    with pytest.raises(SolverError, match="^solver produced non-finite values: ") as info:
        solve(replace(system, F=np.full_like(system.F, np.nan)))
    assert str(info.value).endswith(f"; {factored}")

    rel = solve(system).residual_norm
    assert rel > 0.0
    monkeypatch.setattr(pdwg.solver, "RESIDUAL_RTOL", rel / 2)
    with pytest.raises(SolverError, match=f"^relative residual {rel:.3e} exceeds tolerance ") as info:
        solve(system)
    assert str(info.value).endswith(f"; {factored}")


def test_out_of_memory_factorization_is_a_solver_error(unit_meshes, splu_out_of_memory):
    system = build_saddle(unit_meshes[1], SpaceConfig(k=2), builtin("p1"))
    K_red = _eliminate(system)[0]
    with pytest.raises(SolverError, match="^sparse factorization ran out of memory: ") as info:
        solve(system)
    assert str(info.value).endswith(f"; K_red order {K_red.shape[0]}, nnz {K_red.nnz}")
    assert isinstance(info.value.__cause__, MemoryError)


@pytest.mark.parametrize("exc", SUPERLU_ALLOCATION_FAILURES, ids=str)
def test_superlu_allocation_failure_is_out_of_memory(unit_meshes, splu_raises, exc):
    splu_raises(exc)
    with pytest.raises(SolverError, match="^sparse factorization ran out of memory: ") as info:
        solve(build_saddle(unit_meshes[1], SpaceConfig(k=2), builtin("p1")))
    assert info.value.__cause__ is exc


def test_exactly_singular_factor_is_not_out_of_memory(unit_meshes, splu_raises):
    exc = RuntimeError("Factor is exactly singular")
    splu_raises(exc)
    with pytest.raises(SolverError, match="^sparse factorization failed: the saddle system is singular ") as info:
        solve(build_saddle(unit_meshes[1], SpaceConfig(k=2), builtin("p1")))
    assert info.value.__cause__ is exc


def test_failed_load_of_sparse_linalg_is_not_a_factorization_error(unit_meshes, monkeypatch):
    # ``spla`` is loaded at the first solve; a MemoryError while loading it
    # must reach the caller as it is, not as a factorization that ran out
    # of memory.
    class Unloadable:
        def __getattr__(self, name):
            raise MemoryError

    monkeypatch.setattr(pdwg.solver, "spla", Unloadable())
    with pytest.raises(MemoryError):
        solve(build_saddle(unit_meshes[1], SpaceConfig(k=2), builtin("p1")))


def test_solve_deterministic(unit_meshes):
    mesh = unit_meshes[2]
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=True)
    a = solve(build_saddle(mesh, config, builtin("p1")))
    b = solve(build_saddle(mesh, config, builtin("p1")))
    assert np.array_equal(a.primal, b.primal)
    assert np.array_equal(a.lam_vec, b.lam_vec)


def test_array_records_compare_by_identity():
    # Field-wise == on their arrays used to raise "truth value ... is ambiguous".
    problem, config = builtin("p1"), SpaceConfig(k=2)
    meshes = [build_initial_mesh(problem.domain) for _ in range(2)]
    dofmaps = [build_dof_map(m, config) for m in meshes]
    systems = [build_saddle(m, config, problem) for m in meshes]
    solutions = [solve(s) for s in systems]
    nodes = [dm.nodes for dm in dofmaps]
    for a, b in (meshes, nodes, dofmaps, systems, solutions):
        assert (a == b) is False
        assert a == a
