"""Coefficient fields, stabilizer, constraint block, and saddle systems."""

import gc
import io
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from pdwg.assembly import (
    _GRAM_CHUNK,
    CoefficientField,
    _edge_jumps,
    apply_dirichlet,
    assemble_constraint,
    assemble_stabilizer,
    build_saddle,
    constant_coefficients,
    dump_system,
    stabilizer_energy,
    stabilizer_local_parts,
)
from pdwg.mesh import DomainSpec, build_initial_mesh, refine_uniform
from pdwg.polyquad import get_edge_basis, get_element_rule, get_tri_basis, project_element
from pdwg.problems import builtin
from pdwg.wgspace import (
    SpaceConfig,
    apply_weak_hessian,
    build_dof_map,
    project_weak,
    weak_hessian_local,
)

from conftest import assert_csr_bitwise_equal, mesh_hierarchy

A_CONST = [[3.0, 1.0], [1.0, 2.0]]


def sin_sin():
    w = lambda x, y: np.sin(x) * np.sin(y)
    grad = lambda x, y: np.stack([np.cos(x) * np.sin(y), np.sin(x) * np.cos(y)])
    return w, grad


# -- coefficient fields ------------------------------------------------------

def test_constant_coefficients_validation():
    with pytest.raises(ValueError):
        constant_coefficients([[1.0, 2.0], [0.5, 1.0]])
    c = constant_coefficients(A_CONST)
    x = np.linspace(0, 1, 5)
    a = c.entries(x, x)
    assert np.array_equal(a["12"], a["21"])
    assert np.all(a["11"] == 3.0)
    # Recorded ellipticity bounds are the eigenvalue range.
    lo, hi = c.bounds
    eig = np.linalg.eigvalsh(np.asarray(A_CONST))
    assert lo == pytest.approx(eig[0]) and hi == pytest.approx(eig[1])


def test_coefficient_symmetry_pointwise():
    p = builtin("p5")
    x = np.array([0.3, 0.7, 0.1])
    y = np.array([0.9, 0.2, 0.5])
    a = p.coeff.entries(x, y)
    assert np.allclose(a["12"], a["21"])


def test_nonfinite_coefficient_rejected(unit_meshes):
    bad = CoefficientField(
        a11=lambda x, y, region=None: np.where(x > 0.4, np.inf, 1.0),
        a12=lambda x, y, region=None: np.zeros(np.broadcast(x, y).shape),
        a22=lambda x, y, region=None: np.ones(np.broadcast(x, y).shape),
    )
    with pytest.raises(ValueError, match="non-finite"):
        bad.entries(np.array([0.5]), np.array([0.5]))


def test_off_diagonal_entry_is_a12_alone():
    # One a12 call serves both off-diagonal entries; there is no separate
    # a21 that could make the tensor non-symmetric.
    calls = []

    def a12(x, y, region=None):
        calls.append(region)
        return 0.5 + 0.0 * x

    one = lambda x, y, region=None: np.ones(np.broadcast(x, y).shape)
    coeff = CoefficientField(a11=one, a12=a12, a22=one)
    a = coeff.entries(np.array([0.1, 0.2]), np.array([0.3, 0.4]))
    assert len(calls) == 1
    assert np.array_equal(a["12"], a["21"])
    with pytest.raises(TypeError):
        CoefficientField(a11=one, a12=a12, a22=one, a21=a12)


# -- stabilizer ---------------------------------------------------------------

@pytest.mark.parametrize("c0", [False, True])
def test_stabilizer_symmetric_psd(unit_meshes, rng, c0):
    mesh = unit_meshes[1]
    dm = build_dof_map(mesh, SpaceConfig(k=2, c0_type=c0))
    S = assemble_stabilizer(mesh, dm)
    assert (S != S.T).nnz == 0  # exact symmetry
    for _ in range(200):
        v = rng.standard_normal(dm.n_primal)
        assert v @ (S @ v) >= -1e-12 * np.abs(v @ (S @ v) + 1.0)


def test_stabilizer_zero_on_projected_quadratic(unit_meshes):
    # Projecting a global quadratic yields conforming traces, so the
    # boundary mismatches vanish identically.  The pointwise-jump
    # evaluation squares the (tiny) mismatch values before summing and
    # resolves that zero; the assembled quadratic form only sees it at
    # the cancellation floor of the matrix-vector route.
    mesh = unit_meshes[1]
    q = lambda x, y: 1.0 + x - 2.0 * y + x**2 + 3.0 * x * y + 2.0 * y**2
    gq = lambda x, y: np.stack([1.0 + 2.0 * x + 3.0 * y, -2.0 + 3.0 * x + 4.0 * y])
    for mult in ("pkm1", "pkm2"):
        config = SpaceConfig(k=2, multiplier_space=mult, c0_type=False)
        dm = build_dof_map(mesh, config)
        v = project_weak(mesh, config, q, gq)
        scale = v @ v
        energy = stabilizer_energy(mesh, dm, v)
        assert energy >= 0.0
        assert energy <= 1e-20 * scale
        S = assemble_stabilizer(mesh, dm)
        assert abs(v @ (S @ v)) <= 1e-12 * scale


def test_stabilizer_energy_matches_matrix_form(unit_meshes, rng):
    # On generic (non-conforming) inputs the pointwise evaluation and the
    # assembled quadratic form agree to roundoff.
    mesh = unit_meshes[1]
    for k, c0 in ((2, False), (2, True), (3, False), (3, True)):
        config = SpaceConfig(k=k, multiplier_space="pkm1", c0_type=c0)
        dm = build_dof_map(mesh, config)
        S = assemble_stabilizer(mesh, dm)
        v = rng.standard_normal(dm.n_primal)
        direct = stabilizer_energy(mesh, dm, v)
        via_matrix = v @ (S @ v)
        assert direct == pytest.approx(via_matrix, rel=1e-12)


def test_stabilizer_decay_on_smooth_data(unit_meshes):
    # Projected smooth data: stabilizer energy decays at order 2(k-1).
    w, grad = sin_sin()
    vals = []
    for mesh in unit_meshes[:4]:
        config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=False)
        dm = build_dof_map(mesh, config)
        v = project_weak(mesh, config, w, grad)
        S = assemble_stabilizer(mesh, dm)
        vals.append(v @ (S @ v))
    rates = np.log2(np.array(vals[:-1]) / np.array(vals[1:]))
    assert rates[-1] == pytest.approx(2.0, abs=0.25)


def stabilizer_whole_array(mesh, dm):
    """S by the whole-array formula: one einsum per mismatch over every
    element, an int64 COO scatter and the global ``0.5 * (S + S.T)``."""
    we, jumps = _edge_jumps(mesh, dm)
    nloc = dm.layout.nloc
    jump0, jump1 = None, np.zeros((mesh.n_triangles, nloc, nloc))
    for p, J in jumps:
        gram = np.einsum("etql,etqm,etq->elm", J, J, we, optimize=True)
        if p == 1:
            jump1 += gram
        else:
            jump0 = gram
    h = mesh.h_t[:, None, None]
    local = jump1 / h if jump0 is None else jump0 / h**3 + jump1 / h
    local = 0.5 * (local + np.transpose(local, (0, 2, 1)))
    nt, a, b = local.shape
    rows = np.repeat(dm.element_primal[:, :, None], b, axis=2)
    cols = np.repeat(dm.element_primal[:, None, :], a, axis=1)
    n = dm.n_primal
    scattered = sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))
    scattered = scattered.tocsr()
    return (0.5 * (scattered + scattered.T)).tocsr()


@pytest.mark.parametrize("c0", [True, False])
def test_stabilizer_bitwise_equals_whole_array_formula(c0):
    # More elements than one Gram chunk: the chunked contractions and the
    # in-place averaging must give the whole-array S bit for bit,
    # including the exact zeros that the sparse sum drops.
    mesh = mesh_hierarchy("unit_square", 5)[-1]  # p5's domain, fresh memo
    assert mesh.n_triangles > _GRAM_CHUNK
    config = SpaceConfig(k=2, multiplier_space="pkm1" if c0 else "pkm2", c0_type=c0)
    dm = build_dof_map(mesh, config)
    S = assemble_stabilizer(mesh, dm)
    assert_csr_bitwise_equal(S, stabilizer_whole_array(mesh, dm))
    assert (S != S.T).nnz == 0


def test_stabilizer_scratch_memory_bounded():
    # Peak traced allocation while building S, in units of its finished
    # local blocks (nt * nloc**2 float64): 9.2 with whole-array Gram
    # blocks, combination, int64 scatter indices and sparse sum; 3.9
    # with chunked Gram blocks, in-place arithmetic and int32 indices.
    mesh = mesh_hierarchy("unit_square", 5)[-1]  # p5's domain, fresh memo
    dm = build_dof_map(mesh, SpaceConfig(k=2, multiplier_space="pkm2", c0_type=False))
    stabilizer_local_parts(mesh, dm)  # builds the bases and rules S reads
    tracemalloc.start()
    try:
        assemble_stabilizer(mesh, dm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blocks = mesh.n_triangles * dm.layout.nloc**2 * 8
    assert peak <= 5.0 * blocks


# -- constraint block ----------------------------------------------------------

def test_zero_coefficients_zero_rhs(unit_meshes):
    mesh = unit_meshes[1]
    dm = build_dof_map(mesh, SpaceConfig(k=2, c0_type=False))
    zero = lambda x, y, region=None: np.zeros(np.broadcast(x, y).shape)
    coeff = CoefficientField(a11=zero, a12=zero, a22=zero)
    B, F = assemble_constraint(mesh, dm, coeff, zero)
    assert B.nnz == 0 or np.abs(B.data).max() == 0.0
    assert np.all(F == 0.0)


def test_constraint_consistency_constant_tensor(unit_meshes):
    # With projected exact data and element-wise constant tensor, B maps
    # the projected triplet to the multiplier moments of the strong
    # operator applied to the data.
    mesh = unit_meshes[2]
    w, grad = sin_sin()
    lop = lambda x, y: (
        -3.0 * np.sin(x) * np.sin(y)
        + 2.0 * np.cos(x) * np.cos(y)
        - 2.0 * np.sin(x) * np.sin(y)
    )
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=False)
    dm = build_dof_map(mesh, config)
    coeff = constant_coefficients(A_CONST)
    B, _ = assemble_constraint(mesh, dm, coeff, lambda x, y, region=None: 0.0 * x)
    v = project_weak(mesh, config, w, grad)
    got = (B @ v).reshape(mesh.n_triangles, dm.ns)
    ref = project_element(lop, config.mult_degree, mesh, quad_degree=16)
    assert np.abs(got - ref).max() < 1e-10


def test_constraint_row_p0_is_element_integral(unit_meshes, rng):
    mesh = unit_meshes[1]
    config = SpaceConfig(k=2, multiplier_space="pkm2", c0_type=False)
    dm = build_dof_map(mesh, config)
    coeff = constant_coefficients(A_CONST)
    B, _ = assemble_constraint(mesh, dm, coeff, lambda x, y, region=None: 0.0 * x)
    hess = weak_hessian_local(mesh, config)
    a = np.asarray(A_CONST)
    for _ in range(20):
        v = rng.standard_normal(dm.n_primal)
        loc = dm.local_vectors(v)
        integral = np.zeros(mesh.n_triangles)
        for i in (1, 2):
            for j in (1, 2):
                dij = apply_weak_hessian(loc, hess, i, j)  # P0 coefficient
                integral += a[i - 1, j - 1] * dij[:, 0] * np.sqrt(mesh.areas)
        got = B @ v
        assert np.allclose(got, integral / np.sqrt(mesh.areas), atol=1e-11)


def test_coefficient_without_region_keyword_rejected(unit_meshes):
    # Entries are called as fn(x, y, region=region); a third parameter with
    # another name must fail loudly, not receive the region tags as ``s``.
    mesh = unit_meshes[1]
    dm = build_dof_map(mesh, SpaceConfig(k=2, multiplier_space="pkm1", c0_type=True))
    coeff = CoefficientField(
        a11=lambda x, y, s=3.0: s + 0 * x,
        a12=lambda x, y, s=1.0: s + 0 * x,
        a22=lambda x, y, s=2.0: s + 0 * x,
    )
    with pytest.raises(TypeError):
        assemble_constraint(mesh, dm, coeff, builtin("p1").f)


# -- saddle system ---------------------------------------------------------------

def test_saddle_block_structure(unit_meshes):
    mesh = unit_meshes[2]
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=True)
    system = build_saddle(mesh, config, builtin("p1"))
    assert system.n_primal == 305
    assert system.n_mult == 96
    K = system.block_matrix()
    assert K.shape == (401, 401)
    assert np.abs((K - K.T).data).max() if (K - K.T).nnz else 0.0 == 0.0
    # Multiplier-multiplier block is empty.
    lower = K[system.n_primal :, system.n_primal :]
    assert lower.nnz == 0 or np.abs(lower.data).max() == 0.0


def test_rhs_layout(unit_meshes):
    mesh = unit_meshes[1]
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=True)
    system = build_saddle(mesh, config, builtin("p1"))
    rhs = system.rhs()
    assert rhs.shape == (system.n_primal + system.n_mult,)
    assert np.all(rhs[: system.n_primal] == 0.0)
    assert np.any(rhs[system.n_primal :] != 0.0)


def test_problem_quad_degree_reaches_load_and_boundary_data(unit_meshes):
    # ProblemSpec.quad_degree is the one data degree build_saddle uses for
    # the load vector and the boundary projection.
    mesh = unit_meshes[2]
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=False)
    loads = []
    for d in (12, 20):
        p = replace(builtin("p5"), quad_degree=d)
        system = build_saddle(mesh, config, p)
        dm = system.dofmap
        _, F = assemble_constraint(mesh, dm, p.coeff, p.f, quad_degree=d)
        assert np.array_equal(system.F, F)
        values = apply_dirichlet(dm, mesh, p.g, quad_degree=d)
        assert np.array_equal(system.constrained_values, values)
        loads.append(system.F)
    assert not np.array_equal(loads[0], loads[1])


def test_dirichlet_zero_g(unit_meshes):
    mesh = unit_meshes[1]
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=True)
    system = build_saddle(mesh, config, builtin("p1"))
    zero = lambda x, y: np.zeros(np.shape(x))
    values = apply_dirichlet(system.dofmap, mesh, zero)
    assert np.all(values == 0.0)
    fixed = replace(system, constrained_values=values)
    assert np.array_equal(fixed.rhs(), system.rhs())


def test_dirichlet_nodal_reproduction(unit_meshes):
    mesh = unit_meshes[1]
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=True)
    p = builtin("p1")
    system = build_saddle(mesh, config, p)
    values = apply_dirichlet(system.dofmap, mesh, p.g)
    nodes = system.dofmap.nodes
    coords = nodes.coords[nodes.boundary_nodes]
    assert np.abs(values - p.exact_u(coords[:, 0], coords[:, 1])).max() < 1e-14


def test_eliminated_system_symmetric(unit_meshes):
    from pdwg.solver import _eliminate

    mesh = unit_meshes[1]
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=False)
    p = builtin("p1")
    system = build_saddle(mesh, config, p)
    assert np.array_equal(system.constrained_values, apply_dirichlet(system.dofmap, mesh, p.g))
    K_red, rhs_red, free_idx = _eliminate(system)
    d = (K_red - K_red.T).tocoo()
    assert d.nnz == 0 or np.abs(d.data).max() < 1e-14
    # Constrained DOFs are gone from the reduced operator.
    assert K_red.shape[0] == system.n_total - system.constrained.size


def test_mesh_freed_without_cycle_collection():
    # Bases, DOF maps and operators memoized on a mesh hold no reference
    # back to it, so a level of a study is freed as soon as the next level
    # replaces it, without waiting for the cyclic garbage collector.
    gc.disable()
    try:
        mesh = refine_uniform(build_initial_mesh(DomainSpec("unit_square")))
        get_tri_basis(mesh, 2)
        get_edge_basis(mesh, 1)
        system = build_saddle(mesh, SpaceConfig(k=2), builtin("p1"))
        alive = weakref.ref(mesh)
        del mesh, system
        assert alive() is None
    finally:
        gc.enable()


def test_dump_system_roundtrip(unit_meshes, tmp_path):
    mesh = unit_meshes[1]
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=True)
    system = build_saddle(mesh, config, builtin("p1"))
    buf = io.StringIO()
    dump_system(system, buf)
    path = tmp_path / "system.txt"
    dump_system(system, path)
    assert path.read_bytes() == buf.getvalue().encode()
    lines = buf.getvalue().strip().split("\n")
    n_primal, n_mult, nnz = map(int, lines[0].split())
    assert (n_primal, n_mult) == (system.n_primal, system.n_mult)
    assert len(lines) == 1 + nnz
    rows, cols, vals = [], [], []
    for ln in lines[1:]:
        r, c, v = ln.split()
        rows.append(int(r))
        cols.append(int(c))
        vals.append(float(v))
    n = n_primal + n_mult
    K2 = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    d = (K2 - system.block_matrix()).tocoo()
    assert d.nnz == 0 or np.abs(d.data).max() < 1e-15


def test_per_mesh_cache(unit_meshes):
    mesh = unit_meshes[2]
    config = SpaceConfig(k=2, c0_type=False)
    for get in (
        lambda m: get_tri_basis(m, 2),
        lambda m: get_element_rule(m, 6),
        lambda m: build_dof_map(m, config),
        lambda m: weak_hessian_local(m, config),
        lambda m: m.h_t,
    ):
        assert get(mesh) is get(mesh)
        assert get(mesh) is not get(unit_meshes[1])
    # S is not cached: each call builds a new matrix with the same bits.
    dm = build_dof_map(mesh, config)
    S1, S2 = assemble_stabilizer(mesh, dm), assemble_stabilizer(mesh, dm)
    assert S1 is not S2
    assert_csr_bitwise_equal(S1, S2)
