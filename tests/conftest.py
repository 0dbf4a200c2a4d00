"""Shared fixtures (mesh hierarchies, a session-wide study cache) and helpers."""

import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import pdwg.polyquad
import pdwg.solver
from pdwg.analysis import run_study
from pdwg.assembly import constant_coefficients, stabilizer_local_parts
from pdwg.mesh import DomainSpec, build_initial_mesh, refine_uniform
from pdwg.polyquad import (
    GEOMETRY_EDGE_DEGREE,
    edge_basis,
    get_edge_rule,
    get_tri_basis,
    project_element,
)
from pdwg.problems import ProblemSpec, builtin
from pdwg.wgspace import (
    SpaceConfig,
    apply_weak_hessian,
    build_dof_map,
    nodal_to_modal,
    project_weak,
    weak_hessian_local,
)

# When a hypothesis test fails, the hypothesis plugin imports this module to
# write a patch for the failing example.  With libcst installed, that import
# raises a DeprecationWarning (from mypy_extensions), which
# ``filterwarnings = ["error"]`` turns into an INTERNALERROR that ends the
# session instead of reporting the failure.  Importing it once here, with
# that warning ignored, leaves the plugin a module that is already loaded.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def assert_csr_bitwise_equal(got, want):
    """Assert two CSR matrices hold the same bits.

    Compares shape, nnz, the dtypes and values of ``indptr`` and
    ``indices``, and the int64 view of ``data``, so a flipped sign of
    zero or a NaN payload counts as a difference.
    """
    assert got.format == want.format == "csr"
    assert got.shape == want.shape
    assert got.nnz == want.nnz
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        if name == "data":
            a, b = a.view(np.int64), b.view(np.int64)
        np.testing.assert_array_equal(a, b, err_msg=name)


def assert_bitwise_equal(got, want):
    """Assert two float arrays hold the same bits (shape, dtype, int64 view)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def owned_size(arr):
    """Entries of the array that holds the memory of ``arr``."""
    return (arr if arr.base is None else arr.base).size


def run_fresh(script, **env):
    """The last stdout line of ``script``, run by a new interpreter with ``src`` on the path.

    ``env`` entries are added to this process's environment for the run.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, check=True, env={**os.environ, **env, "PYTHONPATH": path})
    return done.stdout.splitlines()[-1]


def quadratic_problem():
    """u = x^2 + y^2 with the identity tensor, so f = 4."""
    return ProblemSpec(
        name="quadratic",
        domain=DomainSpec("unit_square"),
        coeff=constant_coefficients([[1.0, 0.0], [0.0, 1.0]]),
        f=lambda x, y, region=None: np.full(np.broadcast(x, y).shape, 4.0),
        g=lambda x, y: x**2 + y**2,
        exact_u=lambda x, y: x**2 + y**2,
        exact_grad_u=lambda x, y: np.stack([2.0 * x, 2.0 * y]),
    )


def weak_hessian_commutation_error(mesh, multiplier_space):
    """Largest ``|D_ij Q w - P d_ij w|`` for ``w = sin x sin y``, general variant, k = 2.

    ``Q w`` is the projected weak function of ``w`` and ``P`` the L2
    projection onto the multiplier space; the second derivatives are
    written out here, independently of the problem catalog.
    """
    w = lambda x, y: np.sin(x) * np.sin(y)
    grad = lambda x, y: np.stack([np.cos(x) * np.sin(y), np.sin(x) * np.cos(y)])
    second = {
        (1, 1): lambda x, y: -np.sin(x) * np.sin(y),
        (1, 2): lambda x, y: np.cos(x) * np.cos(y),
        (2, 1): lambda x, y: np.cos(x) * np.cos(y),
        (2, 2): lambda x, y: -np.sin(x) * np.sin(y),
    }
    config = SpaceConfig(k=2, multiplier_space=multiplier_space, c0_type=False)
    hess = weak_hessian_local(mesh, config)
    local = build_dof_map(mesh, config).local_vectors(project_weak(mesh, config, w, grad))
    return max(
        float(np.max(np.abs(apply_weak_hessian(local, hess, i, j)
                            - project_element(d2, config.mult_degree, mesh))))
        for (i, j), d2 in second.items()
    )


def c0_to_general_operator(mesh, k):
    """Per-element ``P_T`` (nt, nloc general, nloc C0) taking C0 local vectors to general ones.

    ``v0`` is the modal form of the nodal values, each ``vb`` block the
    L2 projection of the ``v0`` trace on that edge in the global edge
    orientation, and each ``vg`` block is copied.
    """
    c0, gen = SpaceConfig(k=k, c0_type=True), SpaceConfig(k=k, c0_type=False)
    trans = nodal_to_modal(mesh, k)
    g = mesh.tri_edges
    pe, we, t = get_edge_rule(mesh, GEOMETRY_EDGE_DEGREE(k), g)
    trace = np.einsum("etqm,etq,etqn->etmn", edge_basis(mesh, k, t, g), we,
                      get_tri_basis(mesh, k).eval(pe), optimize=True)
    P = np.zeros((mesh.n_triangles, gen.nloc, c0.nloc))
    P[:, gen.v0, c0.v0] = trans
    for ledge in range(3):
        P[:, gen.vb(ledge), c0.v0] = trace[:, ledge] @ trans
        for comp in (0, 1):
            P[:, gen.vg(ledge, comp), c0.vg(ledge, comp)] = np.eye(c0.ng)
    return P


def assert_c0_operators_are_general_on_traces(mesh, k, multiplier_space, rtol=1e-12):
    """Assert ``S_c0 = P^T S_gen P`` and ``H_c0 = H_gen P`` to ``rtol`` relative.

    The C0 space is the general space with ``vb`` the trace of ``v0``, so
    its local stabilizer and weak Hessians are the general ones seen
    through ``P_T`` (:func:`c0_to_general_operator`).
    """
    c0 = SpaceConfig(k=k, multiplier_space=multiplier_space, c0_type=True)
    gen = SpaceConfig(k=k, multiplier_space=multiplier_space, c0_type=False)
    P = c0_to_general_operator(mesh, k)

    def assert_close(got, want):
        assert np.abs(got - want).max() <= rtol * np.abs(want).max()

    S_gen = stabilizer_local_parts(mesh, build_dof_map(mesh, gen))
    S_c0 = stabilizer_local_parts(mesh, build_dof_map(mesh, c0))
    assert_close(np.swapaxes(P, 1, 2) @ S_gen @ P, S_c0)
    h_gen, h_c0 = weak_hessian_local(mesh, gen), weak_hessian_local(mesh, c0)
    for ij in ((1, 1), (1, 2), (2, 1), (2, 2)):
        assert_close(h_gen[ij] @ P, h_c0[ij])


def mesh_hierarchy(kind, levels):
    mesh = build_initial_mesh(DomainSpec(kind))
    out = [mesh]
    for _ in range(levels):
        mesh = refine_uniform(mesh)
        out.append(mesh)
    return out


@pytest.fixture(scope="session")
def unit_meshes():
    """Unit-square meshes, levels 0..4."""
    return mesh_hierarchy("unit_square", 4)


@pytest.fixture(scope="session")
def ref_meshes():
    """(-1,1)^2 meshes, levels 0..3."""
    return mesh_hierarchy("ref_square", 3)


@pytest.fixture(scope="session")
def lshape_meshes():
    """L-shape meshes, levels 0..3."""
    return mesh_hierarchy("l_shape", 3)


@pytest.fixture(scope="session")
def study_cache():
    """Memoized convergence studies shared across the whole session."""
    cache = {}

    def get(problem, multiplier="pkm1", c0=True, levels=6):
        key = (problem, multiplier, c0, levels)
        if key not in cache:
            config = SpaceConfig(k=2, multiplier_space=multiplier, c0_type=c0)
            cache[key] = run_study(builtin(problem), config, levels=levels)
        return cache[key]

    return get


#: Element-chunk sizes for the chunk-invariance tests: 700 leaves a partial
#: last chunk on ``chunked_mesh``; the other holds the whole mesh.
CHUNKS = (700, 1 << 20)


@pytest.fixture(scope="session")
def chunked_mesh():
    """Unit-square level-5 mesh, 2,048 elements: chunks of 700 leave a partial one."""
    mesh = mesh_hierarchy("unit_square", 5)[-1]
    assert mesh.n_triangles % 700
    return mesh


@pytest.fixture()
def set_chunk(monkeypatch):
    """Set the element-chunk size of every quadrature-resolution loop for one test."""
    return lambda size: monkeypatch.setattr(pdwg.polyquad, "_GRAM_CHUNK", size)


@pytest.fixture()
def set_workers(monkeypatch):
    """Set the number of threads that run the chunks of one loop, for one test."""
    return lambda n: monkeypatch.setattr(pdwg.polyquad, "_WORKERS", n)


#: What SuperLU raises when an allocation fails: the texts of its
#: allocation aborts, and the ``SystemError`` that follows "Can't expand
#: MemType" under a tight address-space limit.
SUPERLU_ALLOCATION_FAILURES = [
    RuntimeError("SUPERLU_MALLOC fails for buf in intCalloc()"),
    RuntimeError("dLUWorkInit: malloc fails for local iworkptr[]"),
    RuntimeError("Malloc fails for local work[]."),
    SystemError("gstrf was called with invalid arguments"),
]


@pytest.fixture()
def splu_raises(monkeypatch):
    """Make every factorization raise the exception passed to the returned function."""

    def install(exc):
        def splu(K):
            raise exc

        monkeypatch.setattr(pdwg.solver, "spla", types.SimpleNamespace(splu=splu))

    return install


@pytest.fixture()
def splu_out_of_memory(splu_raises):
    """Make every factorization raise ``MemoryError``, as SuperLU does when out of memory."""
    splu_raises(MemoryError())


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
