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
    CoefficientField,
    _coupled_pairs,
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
from pdwg.polyquad import (
    _GRAM_CHUNK,
    DATA_DEGREE_DEFAULT,
    GEOMETRY_TRI_DEGREE,
    edge_basis,
    get_edge_rule,
    get_element_rule,
    get_tri_basis,
    project_element,
)
from pdwg.problems import builtin
from pdwg.solver import _eliminate
from pdwg.wgspace import (
    SpaceConfig,
    apply_weak_hessian,
    build_dof_map,
    project_weak,
    weak_hessian_local,
)

from conftest import assert_bitwise_equal, assert_csr_bitwise_equal, mesh_hierarchy, owned_size

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
    assert a["11"].shape == x.shape and np.all(a["11"] == 3.0)


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
    we, jumps = _edge_jumps(mesh, dm.config)
    nloc = dm.config.nloc
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
def test_stabilizer_bitwise_equals_whole_array_formula(set_chunk, c0):
    # More elements than one Gram chunk: the chunked contractions and the
    # in-place averaging must give the whole-array S bit for bit,
    # including the exact zeros that the sparse sum drops, also when the
    # last chunk is partial.
    mesh = mesh_hierarchy("unit_square", 5)[-1]  # p5's domain, fresh memo
    assert mesh.n_triangles > _GRAM_CHUNK
    assert mesh.n_triangles % 700
    config = SpaceConfig(k=2, multiplier_space="pkm1" if c0 else "pkm2", c0_type=c0)
    dm = build_dof_map(mesh, config)
    want = stabilizer_whole_array(mesh, dm)
    for chunk in (_GRAM_CHUNK, 700):
        set_chunk(chunk)
        S = assemble_stabilizer(mesh, dm)
        assert_csr_bitwise_equal(S, want)
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
    blocks = mesh.n_triangles * dm.config.nloc**2 * 8
    assert peak <= 5.0 * blocks


@pytest.mark.parametrize("c0", [False, True])
def test_stabilizer_streams_by_chunks(c0):
    # At level 6 (8,192 elements, 8 chunks) S is built one chunk of Gram
    # blocks at a time and keeps only the coupled local pairs, so the peak
    # stays well below two whole-mesh sets of blocks: 3.84-3.87 blocks
    # with whole-mesh Gram arrays, 1.64 (general) and 2.22 (C0) streamed.
    mesh = mesh_hierarchy("unit_square", 6)[-1]  # p5's domain, fresh memo
    assert mesh.n_triangles >= 8 * _GRAM_CHUNK
    config = SpaceConfig(k=2, multiplier_space="pkm1" if c0 else "pkm2", c0_type=c0)
    dm = build_dof_map(mesh, config)
    stabilizer_local_parts(mesh, dm, slice(0, 1))  # builds the bases and rules S reads
    tracemalloc.start()
    try:
        assemble_stabilizer(mesh, dm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blocks = mesh.n_triangles * dm.config.nloc**2 * 8
    assert peak <= 2.5 * blocks


@pytest.mark.parametrize("c0", [False, True])
def test_stabilizer_peak_within_its_csr_size(c0):
    # Peak traced allocation while building S at level 6, in units of the
    # finished S's bytes: 2.83 (general) and 3.34 (C0) through a COO
    # stage, 2.18 and 2.43 with the entries written straight into the
    # unsummed CSR arrays.
    mesh = mesh_hierarchy("unit_square", 6)[-1]  # p5's domain, fresh memo
    config = SpaceConfig(k=2, multiplier_space="pkm1" if c0 else "pkm2", c0_type=c0)
    dm = build_dof_map(mesh, config)
    stabilizer_local_parts(mesh, dm, slice(0, 1))  # builds the bases and rules S reads
    tracemalloc.start()
    try:
        S = assemble_stabilizer(mesh, dm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * (S.data.nbytes + S.indices.nbytes + S.indptr.nbytes)


@pytest.mark.parametrize("c0", [False, True])
def test_assembled_blocks_own_exactly_nnz_entries(c0):
    # S and B keep the memory of their unsummed arrays, shrunk in place
    # to nnz entries; a COO stage left S views of arrays of 1.22 (general)
    # and 1.43 (C0) times nnz entries at level 6.
    mesh = mesh_hierarchy("unit_square", 6)[-1]
    config = SpaceConfig(k=2, multiplier_space="pkm1" if c0 else "pkm2", c0_type=c0)
    dm = build_dof_map(mesh, config)
    p = builtin("p1")
    S = assemble_stabilizer(mesh, dm)
    B, _ = assemble_constraint(mesh, dm, p.coeff, p.f, p.quad_degree)
    for M in (S, B):
        assert owned_size(M.data) == owned_size(M.indices) == M.nnz


@pytest.mark.parametrize("c0, mult", [(True, "pkm1"), (False, "pkm2")], ids=["c0", "general"])
def test_int64_index_path_keeps_the_bits(monkeypatch, c0, mult):
    # S first needs int64 indices at 2**31 unsummed entries (level 11 of
    # the unit square); forced on a small mesh, S and B keep the int32 bits.
    problem = builtin("p4")
    mesh = refine_uniform(refine_uniform(build_initial_mesh(problem.domain)))
    config = SpaceConfig(k=2, multiplier_space=mult, c0_type=c0)
    want = build_saddle(mesh, config, problem)
    widened = []
    monkeypatch.setattr("pdwg.assembly._index_dtype", lambda m: widened.append(m) or np.int64)
    got = build_saddle(mesh, config, problem)
    assert len(widened) == 2  # the S slot map and the B columns
    assert_csr_bitwise_equal(got.S, want.S)
    assert_csr_bitwise_equal(got.B, want.B)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("c0", [False, True])
def test_coupled_pairs_hold_every_nonzero_of_the_local_blocks(unit_meshes, k, c0):
    # assemble_stabilizer scatters only the pairs of _coupled_pairs; every
    # other entry of the h-weighted local blocks must be an exact zero.
    mesh = unit_meshes[1]
    dm = build_dof_map(mesh, SpaceConfig(k=k, c0_type=c0))
    local = stabilizer_local_parts(mesh, dm)
    nloc = dm.config.nloc
    mask = np.zeros((nloc, nloc), dtype=bool)
    mask[_coupled_pairs(dm.config)] = True
    assert np.array_equal(mask, mask.T)
    assert 0 < mask.sum() < nloc**2
    assert np.all(local[:, ~mask] == 0.0)


# -- constraint block ----------------------------------------------------------

def constraint_whole_array(mesh, dm, problem):
    """B and F by the whole-array formula: coefficients, load and bases at
    every element's points at once, one contraction per (i, j), an int64
    COO scatter and ``np.add.at``."""
    config = dm.config
    qd = max(problem.quad_degree, GEOMETRY_TRI_DEGREE(config.k))
    pts, w = get_element_rule(mesh, qd)
    x, y = pts[..., 0], pts[..., 1]
    region = mesh.region_tags[:, None]
    VS = get_tri_basis(mesh, config.mult_degree).eval(pts)
    a = problem.coeff.entries(x, y, region)
    ns, nloc = dm.config.ns, dm.config.nloc
    B_local = np.zeros((mesh.n_triangles, ns, nloc))
    for (i, j), H in weak_hessian_local(mesh, config).items():
        M = np.einsum("eqn,eqm,eq,eq->enm", VS, VS, a[f"{i}{j}"], w, optimize=True)
        B_local += M @ H
    fvals = np.broadcast_to(problem.f(x, y, region=region), x.shape)
    F_local = np.einsum("eqn,eq,eq->en", VS, fvals, w, optimize=True)
    element_mult = np.arange(dm.n_mult).reshape(-1, ns)
    rows = np.repeat(element_mult[:, :, None], nloc, axis=2)
    cols = np.repeat(dm.element_primal[:, None, :], ns, axis=1)
    B = sp.coo_matrix((B_local.ravel(), (rows.ravel(), cols.ravel())),
                      shape=(dm.n_mult, dm.n_primal)).tocsr()
    F = np.zeros(dm.n_mult)
    np.add.at(F, element_mult.ravel(), F_local.ravel())
    return B, F


@pytest.mark.parametrize("c0", [True, False])
def test_constraint_csr_is_canonical_as_built(unit_meshes, c0):
    # Each element's columns are written in ascending global order, so B
    # is sorted and free of duplicates as built: scipy's sort and sum of
    # the same arrays change no bit.
    mesh = unit_meshes[3]
    config = SpaceConfig(k=3, multiplier_space="pkm1" if c0 else "pkm2", c0_type=c0)
    dm = build_dof_map(mesh, config)
    p = builtin("p4")
    B, _ = assemble_constraint(mesh, dm, p.coeff, p.f, p.quad_degree)
    assert B.has_canonical_format
    M = sp.csr_matrix((B.data.copy(), B.indices.copy(), B.indptr.copy()), shape=B.shape)
    M.has_canonical_format = False  # so that sum_duplicates sorts and sums
    M.sum_duplicates()
    assert_csr_bitwise_equal(M, B)


@pytest.mark.parametrize("chunk", [_GRAM_CHUNK, 700])
@pytest.mark.parametrize("c0", [True, False])
def test_constraint_bitwise_equals_whole_array_formula(set_chunk, chunk, c0):
    # B and F are built one chunk of elements at a time, with one
    # contraction shared by D_12 and D_21; on p4 (region-tagged jumping
    # tensor, degree-20 data) they equal the whole-array formula bit for
    # bit, also when the last chunk is partial.
    problem = builtin("p4")
    mesh = mesh_hierarchy(problem.domain.kind, 4)[-1]  # 2,048 elements
    set_chunk(chunk)
    assert mesh.n_triangles > chunk
    config = SpaceConfig(k=2, multiplier_space="pkm1" if c0 else "pkm2", c0_type=c0)
    dm = build_dof_map(mesh, config)
    B, F = assemble_constraint(mesh, dm, problem.coeff, problem.f, problem.quad_degree)
    B_ref, F_ref = constraint_whole_array(mesh, dm, problem)
    assert_csr_bitwise_equal(B, B_ref)
    np.testing.assert_array_equal(F.view(np.int64), F_ref.view(np.int64))


def test_zero_coefficients_zero_rhs(unit_meshes):
    mesh = unit_meshes[1]
    dm = build_dof_map(mesh, SpaceConfig(k=2, c0_type=False))
    zero = lambda x, y, region=None: np.zeros(np.broadcast(x, y).shape)
    coeff = CoefficientField(a11=zero, a12=zero, a22=zero)
    B, F = assemble_constraint(mesh, dm, coeff, zero, DATA_DEGREE_DEFAULT)
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
    B, _ = assemble_constraint(mesh, dm, coeff, lambda x, y, region=None: 0.0 * x,
                               DATA_DEGREE_DEFAULT)
    v = project_weak(mesh, config, w, grad)
    got = (B @ v).reshape(mesh.n_triangles, dm.config.ns)
    ref = project_element(lop, config.mult_degree, mesh, quad_degree=16)
    assert np.abs(got - ref).max() < 1e-10


def test_constraint_row_p0_is_element_integral(unit_meshes, rng):
    mesh = unit_meshes[1]
    config = SpaceConfig(k=2, multiplier_space="pkm2", c0_type=False)
    dm = build_dof_map(mesh, config)
    coeff = constant_coefficients(A_CONST)
    B, _ = assemble_constraint(mesh, dm, coeff, lambda x, y, region=None: 0.0 * x,
                               DATA_DEGREE_DEFAULT)
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
        assemble_constraint(mesh, dm, coeff, builtin("p1").f, DATA_DEGREE_DEFAULT)


# -- saddle system ---------------------------------------------------------------

def test_saddle_block_structure(unit_meshes):
    mesh = unit_meshes[2]
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=True)
    system = build_saddle(mesh, config, builtin("p1"))
    assert system.n_primal == 305
    assert system.n_mult == 96
    assert system.S.shape == (305, 305)
    assert system.B.shape == (96, 305)
    assert system.F.shape == (96,)
    assert (system.S != system.S.T).nnz == 0
    # The reduced system is symmetric and its multiplier block is empty.
    K_red, _, free_idx = _eliminate(system)
    assert K_red.shape == (free_idx.size + 96,) * 2
    assert (K_red != K_red.T).nnz == 0
    assert K_red[free_idx.size :, free_idx.size :].nnz == 0


def test_rhs_layout(unit_meshes):
    # rhs_red = [0; F] - [S_fc g; B_c g], against dense blocks.
    mesh = unit_meshes[1]
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=True)
    system = build_saddle(mesh, config, builtin("p1"))
    _, rhs_red, free_idx = _eliminate(system)
    con, g = system.constrained, system.constrained_values
    assert np.any(g != 0.0)
    S, B = system.S.toarray(), system.B.toarray()
    want = np.concatenate([-S[free_idx][:, con] @ g, system.F - B[:, con] @ g])
    assert rhs_red.shape == (free_idx.size + system.n_mult,)
    np.testing.assert_allclose(rhs_red, want, rtol=1e-14, atol=1e-14 * np.abs(want).max())
    assert np.any(rhs_red[free_idx.size :] != 0.0)


def _block_matrix_elimination(system):
    """Elimination through the whole block matrix: the bitwise oracle of ``_eliminate``."""
    con = system.constrained
    free = np.ones(system.n_total, dtype=bool)
    free[con] = False
    free_idx = np.flatnonzero(free)
    K_csc = sp.bmat([[system.S, system.B.T], [system.B, None]], format="csr").tocsc()
    rhs = np.concatenate([np.zeros(system.n_primal), system.F])
    rhs_red = rhs[free_idx] - K_csc[:, con][free_idx, :] @ system.constrained_values
    K_red = K_csc[:, free_idx][free_idx, :].tocsc()
    return K_red, rhs_red, free_idx


@pytest.mark.parametrize("c0", [True, False], ids=["c0", "general"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("mult", ["pkm1", "pkm2"])
def test_elimination_from_blocks_is_bitwise_the_block_matrix_one(unit_meshes, c0, k, mult):
    system = build_saddle(
        unit_meshes[2], SpaceConfig(k=k, multiplier_space=mult, c0_type=c0), builtin("p1")
    )
    assert np.any(system.constrained_values != 0.0)
    K_red, rhs_red, free_idx = _eliminate(system)
    want_K, want_rhs, want_idx = _block_matrix_elimination(system)
    np.testing.assert_array_equal(free_idx, want_idx[want_idx < system.n_primal])
    assert K_red.format == want_K.format == "csc"
    assert K_red.shape == want_K.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(K_red, name), getattr(want_K, name)
        assert got.dtype == want.dtype, name
        if name == "data":
            got, want = got.view(np.int64), want.view(np.int64)
        np.testing.assert_array_equal(got, want, err_msg=name)
    assert_bitwise_equal(rhs_red, want_rhs)


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
    values = apply_dirichlet(system.dofmap, mesh, zero, DATA_DEGREE_DEFAULT)
    assert np.all(values == 0.0)
    # Zero boundary data moves nothing to the right-hand side: [0; F].
    _, rhs_red, free_idx = _eliminate(replace(system, constrained_values=values))
    assert_bitwise_equal(rhs_red, np.concatenate([np.zeros(free_idx.size), system.F]))


@pytest.mark.parametrize("c0", [True, False])
def test_nonfinite_boundary_data_rejected(unit_meshes, c0):
    # Boundary nodes (C0) or edge quadrature points (general) with x > 0.9
    # get an infinite value.
    mesh = unit_meshes[1]
    dm = build_dof_map(mesh, SpaceConfig(k=2, c0_type=c0))
    bad = lambda x, y: np.where(x > 0.9, np.inf, 1.0)
    with pytest.raises(ValueError, match="^boundary data evaluation returned a non-finite value$"):
        apply_dirichlet(dm, mesh, bad, DATA_DEGREE_DEFAULT)


def test_dirichlet_nodal_reproduction(unit_meshes):
    mesh = unit_meshes[1]
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=True)
    p = builtin("p1")
    system = build_saddle(mesh, config, p)
    values = apply_dirichlet(system.dofmap, mesh, p.g, p.quad_degree)
    nodes = system.dofmap.nodes
    coords = nodes.coords[nodes.boundary_nodes]
    assert np.abs(values - p.exact_u(coords[:, 0], coords[:, 1])).max() < 1e-14


def test_dirichlet_maps_its_edge_rule_on_boundary_edges_only():
    # The degree-20 rule is mapped on the boundary edges alone and not
    # cached; the values are the rows of the whole-mesh rule, bit for bit.
    problem = builtin("p5")
    mesh = mesh_hierarchy(problem.domain.kind, 3)[-1]  # fresh cache
    dm = build_dof_map(mesh, SpaceConfig(k=2, multiplier_space="pkm2", c0_type=False))
    values = apply_dirichlet(dm, mesh, problem.g, quad_degree=problem.quad_degree)
    assert ("get_edge_rule", 20) not in mesh._cache
    pts, w, t = get_edge_rule(mesh, 20)
    b = mesh.boundary_edges
    gvals = problem.g(pts[b][..., 0], pts[b][..., 1])
    X = edge_basis(mesh, 2, t, b)
    want = np.einsum("eqn,eq,eq->en", X, gvals, w[b], optimize=True).ravel()
    assert_bitwise_equal(values, want)


def test_eliminated_system_symmetric(unit_meshes):
    mesh = unit_meshes[1]
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=False)
    p = builtin("p1")
    system = build_saddle(mesh, config, p)
    assert np.array_equal(system.constrained_values, apply_dirichlet(system.dofmap, mesh, p.g, p.quad_degree))
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
    K = sp.bmat([[system.S, system.B.T], [system.B, None]], format="csr")
    d = (K2 - K).tocoo()
    assert d.nnz == 0 or np.abs(d.data).max() < 1e-15


def test_dump_system_writes_each_stored_entry_once_in_order(unit_meshes):
    # Every stored entry of S, B and B^T, sorted by row then column, B's
    # explicit zeros included: the general variant's B stores some.
    config = SpaceConfig(k=2, multiplier_space="pkm2", c0_type=False)
    system = build_saddle(unit_meshes[1], config, builtin("p1"))
    assert np.any(system.B.data == 0.0)
    buf = io.StringIO()
    dump_system(system, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == f"{system.n_primal} {system.n_mult} {system.S.nnz + 2 * system.B.nnz}"
    entries = [tuple(map(int, ln.split()[:2])) for ln in lines[1:]]
    assert entries == sorted(set(entries))
    assert len(entries) == system.S.nnz + 2 * system.B.nnz


def test_per_mesh_cache(unit_meshes):
    mesh = unit_meshes[2]
    config = SpaceConfig(k=2, c0_type=False)
    for get in (
        lambda m: get_tri_basis(m, 2),
        lambda m: build_dof_map(m, config),
        lambda m: m.h_t,
    ):
        assert get(mesh) is get(mesh)
        assert get(mesh) is not get(unit_meshes[1])
    # Quadrature-resolution arrays and S are not cached: each call builds
    # new arrays with the same bits.
    P1, P2 = get_element_rule(mesh, 6), get_element_rule(mesh, 6)
    assert P1[0] is not P2[0]
    for a, b in zip(P1, P2):
        assert_bitwise_equal(a, b)
    H1, H2 = weak_hessian_local(mesh, config), weak_hessian_local(mesh, config)
    assert H1[1, 1] is not H2[1, 1]
    for ij in H1:
        assert_bitwise_equal(H1[ij], H2[ij])
    dm = build_dof_map(mesh, config)
    S1, S2 = assemble_stabilizer(mesh, dm), assemble_stabilizer(mesh, dm)
    assert S1 is not S2
    assert_csr_bitwise_equal(S1, S2)


def _cached_arrays(obj):
    """Every ndarray reachable from a ``mesh._cache`` value."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _cached_arrays(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _cached_arrays(item)
    elif hasattr(obj, "__dict__"):
        yield from _cached_arrays(vars(obj))


def test_mesh_cache_holds_no_quadrature_resolution_array():
    # build_saddle streams everything at quadrature resolution by element
    # chunks; what it leaves on the mesh is per element or per edge.  A
    # cached whole-mesh rule, basis table or weak Hessian (general pkm1:
    # 81 entries per element) breaks the bound.
    problem = builtin("p5")  # degree-20 data rule, 121 points per element
    mesh = mesh_hierarchy(problem.domain.kind, 4)[-1]
    nt = mesh.n_triangles
    for mult, c0 in (("pkm1", True), ("pkm1", False), ("pkm2", False)):
        build_saddle(mesh, SpaceConfig(k=2, multiplier_space=mult, c0_type=c0), problem)
    sizes = {key: max((a.size for a in _cached_arrays(value)), default=0)
             for key, value in mesh._cache.items()}
    assert sizes and max(sizes.values()) > 0
    assert {key: size for key, size in sizes.items() if size > 64 * nt} == {}
    # Besides per-entity geometry, only what is costly to rebuild is kept;
    # edge rules and edge bases are computed per call, as element rules are.
    kinds = {key[0] for key in mesh._cache if not key[0].startswith("Mesh.")}
    assert kinds <= {"outward_normals", "get_tri_basis", "lagrange_nodes",
                     "nodal_to_modal", "build_dof_map"}
