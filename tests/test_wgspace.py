"""Weak-triplet spaces, DOF maps, and the discrete weak Hessian."""

import numpy as np
import pytest

from pdwg.assembly import stabilizer_local_parts
from pdwg.mesh import Mesh, build_initial_mesh, DomainSpec
from pdwg.polyquad import (
    GEOMETRY_EDGE_DEGREE,
    _chunks,
    edge_basis,
    get_edge_rule,
    get_element_rule,
    get_tri_basis,
    project_element,
)
from pdwg.wgspace import (
    LocalLayout,
    SpaceConfig,
    apply_weak_hessian,
    build_dof_map,
    interpolate_weak,
    lagrange_nodes,
    nodal_to_modal,
    project_weak,
    weak_hessian_local,
)

from conftest import CHUNKS, assert_bitwise_equal


def one_triangle_mesh():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return Mesh(v, np.array([[0, 1, 2]]), np.zeros(1, dtype=int))


# -- configuration and layout ---------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        SpaceConfig(k=1)
    with pytest.raises(ValueError):
        SpaceConfig(multiplier_space="p7")
    assert SpaceConfig(multiplier_space="pkm1").mult_degree == 1
    assert SpaceConfig(multiplier_space="pkm2").mult_degree == 0
    assert SpaceConfig(k=3, multiplier_space="pkm2").mult_degree == 1


@pytest.mark.parametrize("k", [2.5, 3.0, "3", None])
def test_config_rejects_a_non_integral_degree(k):
    with pytest.raises(ValueError, match=f"must be an integer, got {k!r}"):
        SpaceConfig(k=k)


def test_config_accepts_numpy_integer_degrees():
    config = SpaceConfig(k=np.int64(3))
    assert config.mult_degree == 2
    with pytest.raises(ValueError, match=">= 2"):
        SpaceConfig(k=np.int32(1))


def test_local_layout_general():
    lo = LocalLayout(2, False)
    assert lo.n0 == 6 and lo.nb == 3 and lo.ng == 2
    assert lo.nloc == 6 + 3 * 3 + 3 * 4
    # Slices tile the local vector without overlap.
    seen = np.zeros(lo.nloc, dtype=int)
    seen[lo.v0] += 1
    for ledge in range(3):
        seen[lo.vb(ledge)] += 1
        for comp in (0, 1):
            seen[lo.vg(ledge, comp)] += 1
    assert np.all(seen == 1)


def test_dof_counts_one_triangle_general():
    mesh = one_triangle_mesh()
    dm = build_dof_map(mesh, SpaceConfig(k=2, multiplier_space="pkm1", c0_type=False))
    assert dm.n_primal == 27  # 6 interior + 3x3 value trace + 3x4 gradient trace
    assert dm.n_mult == 3
    dm0 = build_dof_map(mesh, SpaceConfig(k=2, multiplier_space="pkm2", c0_type=False))
    assert dm0.n_mult == 1


def test_dof_counts_c0_two_triangles(unit_meshes):
    mesh = unit_meshes[0]
    dm = build_dof_map(mesh, SpaceConfig(k=2, multiplier_space="pkm1", c0_type=True))
    assert dm.nodes.n_nodes == 9  # 4 vertices + 5 edge midpoints
    assert dm.n_primal == 9 + 4 * 5
    assert dm.constrained.size == 8  # every node except the diagonal midpoint
    assert dm.n_mult == 2 * 3


def test_dof_counts_c0_level2(unit_meshes):
    mesh = unit_meshes[2]
    dm = build_dof_map(mesh, SpaceConfig(k=2, multiplier_space="pkm1", c0_type=True))
    assert mesh.n_triangles == 32
    assert dm.n_primal == 305
    assert dm.n_mult == 96


def test_gradient_blocks_never_constrained(unit_meshes):
    mesh = unit_meshes[1]
    for c0 in (True, False):
        dm = build_dof_map(mesh, SpaceConfig(k=2, c0_type=c0))
        assert dm.constrained.size > 0
        assert np.all(dm.constrained < dm.vg_base)


# -- Lagrange nodes ---------------------------------------------------------

def test_lagrange_nodes_consistency(unit_meshes):
    mesh = unit_meshes[1]
    nodes = lagrange_nodes(mesh, 2)
    assert nodes.n_nodes == mesh.n_vertices + mesh.n_edges
    # Local order: the three corners, then the midpoint of local edge l
    # (joining corners l and l + 1).
    xy = nodes.coords[nodes.element_nodes]
    c = mesh.corners
    assert np.array_equal(xy[:, :3], c)
    assert np.allclose(xy[:, 3:], 0.5 * (c + np.roll(c, -1, axis=1)))
    # Shared edge node ids appear in both adjacent elements.
    ids, counts = np.unique(nodes.element_nodes, return_counts=True)
    interior = ~mesh.is_boundary_edge
    # Each interior edge's midpoint node occurs exactly twice.
    mid_ids = mesh.n_vertices + np.flatnonzero(interior)
    assert np.all(counts[np.isin(ids, mid_ids)] == 2)


def test_lagrange_boundary_nodes(unit_meshes):
    mesh = unit_meshes[1]
    nodes = lagrange_nodes(mesh, 2)
    pts = nodes.coords[nodes.boundary_nodes]
    on_edge = (
        np.isclose(pts[:, 0], 0) | np.isclose(pts[:, 0], 1)
        | np.isclose(pts[:, 1], 0) | np.isclose(pts[:, 1], 1)
    )
    assert np.all(on_edge)
    assert nodes.boundary_nodes.size == 16  # 8 boundary vertices + 8 midpoints


def test_lagrange_nodes_cubic(unit_meshes):
    mesh = unit_meshes[1]
    nodes = lagrange_nodes(mesh, 3)
    expect = mesh.n_vertices + 2 * mesh.n_edges + mesh.n_triangles
    assert nodes.n_nodes == expect
    assert nodes.element_nodes.shape == (mesh.n_triangles, 10)


def test_nodal_to_modal_is_chunk_invariant(chunked_mesh, set_chunk):
    for k in (2, 3):
        maps = []
        for size in CHUNKS:
            set_chunk(size)
            maps.append(nodal_to_modal.__wrapped__(chunked_mesh, k))  # not the cached map
        assert_bitwise_equal(*maps)


# -- weak Hessian --------------------------------------------------------------

@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("c0", [True, False])
@pytest.mark.parametrize("ms", ["pkm1", "pkm2"])
def test_weak_hessian_of_a_chunk_is_the_whole_mesh_rows(chunked_mesh, set_chunk, k, c0, ms):
    config = SpaceConfig(k=k, multiplier_space=ms, c0_type=c0)
    whole = weak_hessian_local(chunked_mesh, config)
    for size in CHUNKS:
        set_chunk(size)
        for e in _chunks(chunked_mesh.n_triangles):
            part = weak_hessian_local(chunked_mesh, config, e)
            assert part.keys() == whole.keys()
            for ij, H in whole.items():
                assert_bitwise_equal(part[ij], H[e])


def test_weak_hessian_zero_and_linearity(unit_meshes, rng):
    mesh = unit_meshes[1]
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=False)
    dm = build_dof_map(mesh, config)
    hess = weak_hessian_local(mesh, config)
    zero = np.zeros((mesh.n_triangles, dm.layout.nloc))
    v = rng.standard_normal(zero.shape)
    w = rng.standard_normal(zero.shape)
    for i in (1, 2):
        for j in (1, 2):
            assert np.all(apply_weak_hessian(zero, hess, i, j) == 0)
            lhs = apply_weak_hessian(2.0 * v - 3.0 * w, hess, i, j)
            rhs = 2.0 * apply_weak_hessian(v, hess, i, j) - 3.0 * apply_weak_hessian(
                w, hess, i, j
            )
            assert np.allclose(lhs, rhs, atol=1e-13)


def quadratic_triplet(mesh, config):
    q = lambda x, y: x**2 + 3.0 * x * y + 2.0 * y**2
    gq = lambda x, y: np.stack([2.0 * x + 3.0 * y, 3.0 * x + 4.0 * y])
    if config.c0_type:
        return interpolate_weak(mesh, config, q, gq)
    return project_weak(mesh, config, q, gq)


@pytest.mark.parametrize("c0", [False, True])
@pytest.mark.parametrize("ms", ["pkm1", "pkm2"])
def test_weak_hessian_quadratic_exactness(unit_meshes, c0, ms):
    mesh = unit_meshes[1]
    config = SpaceConfig(k=2, multiplier_space=ms, c0_type=c0)
    dm = build_dof_map(mesh, config)
    hess = weak_hessian_local(mesh, config)
    local = dm.local_vectors(quadratic_triplet(mesh, config))
    const = {(1, 1): 2.0, (1, 2): 3.0, (2, 1): 3.0, (2, 2): 4.0}
    for (i, j), c in const.items():
        got = apply_weak_hessian(local, hess, i, j)
        ref = project_element(lambda x, y, _c=c: np.full(np.shape(x), _c), config.mult_degree, mesh)
        assert np.abs(got - ref).max() < 1e-11


@pytest.mark.parametrize("ms", ["pkm1", "pkm2"])
def test_weak_hessian_commutativity(ms):
    # Projected smooth data: weak Hessian of the projection equals the
    # projected true Hessian, coefficient by coefficient.
    mesh = build_initial_mesh(DomainSpec("unit_square"))
    for _ in range(3):
        mesh = refine(mesh)
    w = lambda x, y: np.sin(x) * np.sin(y)
    grad = lambda x, y: np.stack([np.cos(x) * np.sin(y), np.sin(x) * np.cos(y)])
    d2 = {
        (1, 1): lambda x, y: -np.sin(x) * np.sin(y),
        (1, 2): lambda x, y: np.cos(x) * np.cos(y),
        (2, 1): lambda x, y: np.cos(x) * np.cos(y),
        (2, 2): lambda x, y: -np.sin(x) * np.sin(y),
    }
    config = SpaceConfig(k=2, multiplier_space=ms, c0_type=False)
    dm = build_dof_map(mesh, config)
    hess = weak_hessian_local(mesh, config)
    local = dm.local_vectors(project_weak(mesh, config, w, grad))
    for (i, j), fn in d2.items():
        got = apply_weak_hessian(local, hess, i, j)
        ref = project_element(fn, config.mult_degree, mesh)
        assert np.abs(got - ref).max() <= 1e-10


def refine(mesh):
    from pdwg.mesh import refine_uniform

    return refine_uniform(mesh)


def c0_to_general_local(mesh, primal, config_c0):
    """Re-express a C0 primal vector as general-variant local vectors."""
    k = config_c0.k
    dm = build_dof_map(mesh, config_c0)
    u0 = dm.u0_coefficients(primal, mesh)
    ug = dm.ug_coefficients(primal)
    layout = LocalLayout(k, False)
    loc = np.zeros((mesh.n_triangles, layout.nloc))
    loc[:, layout.v0] = u0

    tb = get_tri_basis(mesh, k)
    epts, ew, t = get_edge_rule(mesh, GEOMETRY_EDGE_DEGREE(k))
    Xb = edge_basis(mesh, k, t)
    g = mesh.tri_edges
    vals = np.einsum("etqn,en->etq", tb.eval(epts[g]), u0, optimize=True)
    trace = np.einsum("etq,etqm,etq->etm", vals, Xb[g], ew[g], optimize=True)
    for ledge in range(3):
        loc[:, layout.vb(ledge)] = trace[:, ledge]
        for comp in (0, 1):
            loc[:, layout.vg(ledge, comp)] = ug[g[:, ledge], comp]
    return loc


def test_weak_hessian_c0_general_agreement(unit_meshes, rng):
    # With the value trace set to the actual trace of v0, the reduced
    # formula and the full formula define the same operator.
    mesh = unit_meshes[2]
    cfg_c0 = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=True)
    cfg_gen = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=False)
    dm_c0 = build_dof_map(mesh, cfg_c0)
    h_c0 = weak_hessian_local(mesh, cfg_c0)
    h_gen = weak_hessian_local(mesh, cfg_gen)
    for _ in range(50):
        primal = rng.standard_normal(dm_c0.n_primal)
        loc_c0 = dm_c0.local_vectors(primal)
        loc_gen = c0_to_general_local(mesh, primal, cfg_c0)
        for i in (1, 2):
            for j in (1, 2):
                a = apply_weak_hessian(loc_c0, h_c0, i, j)
                b = apply_weak_hessian(loc_gen, h_gen, i, j)
                assert np.abs(a - b).max() < 1e-11


def test_weak_hessian_geometry_only(unit_meshes):
    # The operator depends on geometry and configuration, never on the
    # coefficient tensor: assembling different problems must reuse it.
    mesh = unit_meshes[1]
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=True)
    h1 = weak_hessian_local(mesh, config)
    snapshot = {key: m.copy() for key, m in h1.items()}

    from pdwg.assembly import build_saddle, constant_coefficients
    from pdwg.problems import ProblemSpec, builtin

    build_saddle(mesh, config, builtin("p1"))
    alt = ProblemSpec(
        name="alt",
        domain=DomainSpec("unit_square"),
        coeff=constant_coefficients([[10.0, 0.0], [0.0, 1.0]]),
        f=lambda x, y, region=None: np.zeros(np.broadcast(x, y).shape),
        g=lambda x, y: np.zeros(np.broadcast(x, y).shape),
    )
    build_saddle(mesh, config, alt)
    h2 = weak_hessian_local(mesh, config)
    for key in snapshot:
        assert np.array_equal(h2[key], snapshot[key])


def bound_constants(mesh, config):
    """Exact per-level constant of the weak-Hessian energy bound.

    For each element and index pair, the sharp constant in
    ``|D_ij v|_T^2 <= C (|d2_ij v0|_T^2 + s_T(v, v))`` is the largest
    generalized eigenvalue of the two local quadratic forms (restricted
    to where the denominator form is positive; its null space is
    contained in the numerator's, by exactness on linear triplets).
    """
    dm = build_dof_map(mesh, config)
    hess = weak_hessian_local(mesh, config)
    S_loc = stabilizer_local_parts(mesh, dm)
    pts, w = get_element_rule(mesh, 6)
    tb = get_tri_basis(mesh, config.k)
    out = {}
    for i in (1, 2):
        for j in (1, 2):
            H = hess[(i, j)]
            num = np.einsum("enl,enm->elm", H, H, optimize=True)
            Vd = tb.eval(pts, dx=(i == 1) + (j == 1), dy=(i == 2) + (j == 2))
            A00 = np.einsum("eqn,eqm,eq->enm", Vd, Vd, w, optimize=True)
            den = S_loc.copy()
            den[:, dm.layout.v0, dm.layout.v0] += A00
            worst = 0.0
            for e in range(mesh.n_triangles):
                wd, U = np.linalg.eigh(den[e])
                keep = wd > 1e-10 * wd[-1]
                W = U[:, keep] / np.sqrt(wd[keep])
                M = W.T @ num[e] @ W
                worst = max(worst, float(np.linalg.eigvalsh(M)[-1]))
            out[(i, j)] = worst
    return max(out.values())


def test_weak_hessian_bound_constant_under_refinement(rng):
    # Bound check: per-element weak-Hessian energy is controlled by the
    # strong Hessian of v0 plus the stabilizer, with a constant that does
    # not grow under refinement (element shapes are preserved, so the
    # sharp constant is level-independent).
    mesh = build_initial_mesh(DomainSpec("unit_square"))
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=False)
    constants = []
    for lvl in range(4):
        if lvl:
            mesh = refine(mesh)
        constants.append(bound_constants(mesh, config))
    for prev, cur in zip(constants, constants[1:]):
        assert cur <= prev * 1.01

    # Random triplets respect the sharp constant on the finest level.
    dm = build_dof_map(mesh, config)
    hess = weak_hessian_local(mesh, config)
    S_loc = stabilizer_local_parts(mesh, dm)
    pts, w = get_element_rule(mesh, 6)
    tb = get_tri_basis(mesh, config.k)
    C = constants[-1]
    for _ in range(100):
        loc = rng.standard_normal((mesh.n_triangles, dm.layout.nloc))
        sT = np.einsum("elm,el,em->e", S_loc, loc, loc)
        u0 = loc[:, dm.layout.v0]
        for i in (1, 2):
            for j in (1, 2):
                num = np.sum(apply_weak_hessian(loc, hess, i, j) ** 2, axis=1)
                Vd = tb.eval(pts, dx=(i == 1) + (j == 1), dy=(i == 2) + (j == 2))
                den = np.sum(w * np.einsum("eqn,en->eq", Vd, u0) ** 2, axis=1) + sT
                assert np.max(num / den) <= C * (1.0 + 1e-9)


# -- triplet construction -------------------------------------------------------

def test_project_weak_components(unit_meshes):
    from pdwg.polyquad import project_edge

    mesh = unit_meshes[1]
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=False)
    dm = build_dof_map(mesh, config)
    w = lambda x, y: np.exp(x) * np.cos(y)
    grad = lambda x, y: np.stack([np.exp(x) * np.cos(y), -np.exp(x) * np.sin(y)])
    vec = project_weak(mesh, config, w, grad)
    assert np.allclose(dm.u0_coefficients(vec, mesh), project_element(w, 2, mesh))
    assert np.allclose(dm.ub_coefficients(vec), project_edge(w, 2, mesh))
    assert np.allclose(dm.ug_coefficients(vec), project_edge(grad, 1, mesh))


def test_interpolate_weak_nodal_values(unit_meshes):
    mesh = unit_meshes[1]
    config = SpaceConfig(k=2, multiplier_space="pkm1", c0_type=True)
    dm = build_dof_map(mesh, config)
    w = lambda x, y: np.sin(x + 2 * y)
    grad = lambda x, y: np.stack([np.cos(x + 2 * y), 2 * np.cos(x + 2 * y)])
    vec = interpolate_weak(mesh, config, w, grad)
    nodes = dm.nodes
    assert np.allclose(vec[: nodes.n_nodes], w(nodes.coords[:, 0], nodes.coords[:, 1]))
