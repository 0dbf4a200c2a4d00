"""Quadrature rules, orthonormal bases, and L2 projections."""

import re
import tracemalloc
from math import factorial, perm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdwg
from pdwg.mesh import Mesh
from pdwg.polyquad import (
    GEOMETRY_EDGE_DEGREE,
    MAX_EXACT_DEGREE,
    TriangleBasis,
    _affine_map,
    _chunks,
    _edge_points,
    _einsum,
    edge_quadrature,
    eval_edge_poly,
    eval_element_poly,
    edge_basis,
    get_edge_rule,
    get_element_rule,
    get_tri_basis,
    monomial_exponents,
    project_edge,
    project_element,
    space_dim,
    triangle_quadrature,
)

from conftest import CHUNKS, assert_bitwise_equal, mesh_hierarchy


def ref_triangle_moment(a, b):
    """Exact integral of x^a y^b over the unit reference triangle."""
    return factorial(a) * factorial(b) / factorial(a + b + 2)


# -- triangle rules ------------------------------------------------------------

def test_triangle_rule_weight_sum():
    for d in (0, 1, 2, 7, 13, MAX_EXACT_DEGREE):
        rule = triangle_quadrature(d)
        assert np.sum(rule.weights) == pytest.approx(0.5, rel=1e-14)


def test_triangle_rule_monomial_exactness():
    for d in (2, 3, 5, 8, 12, 20, MAX_EXACT_DEGREE):
        rule = triangle_quadrature(d)
        for a in range(d + 1):
            for b in range(d + 1 - a):
                exact = ref_triangle_moment(a, b)
                got = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
                assert got == pytest.approx(exact, rel=1e-13), (d, a, b)


def test_triangle_rule_points_interior_weights_positive():
    for d in (1, 4, 9, 16, MAX_EXACT_DEGREE):
        rule = triangle_quadrature(d)
        x, y = rule.points[:, 0], rule.points[:, 1]
        assert np.all(rule.weights > 0)
        assert np.all(x > 0) and np.all(y > 0) and np.all(x + y < 1)


def test_triangle_rule_degree_validation():
    with pytest.raises(ValueError):
        triangle_quadrature(-1)
    with pytest.raises(ValueError):
        triangle_quadrature(MAX_EXACT_DEGREE + 1)
    # A non-integral degree is an error, not a silently truncated rule.
    for rule in (triangle_quadrature, edge_quadrature):
        for bad in (2.5, 3.0, "3"):
            with pytest.raises(ValueError, match=repr(bad).replace(".", r"\.")):
                rule(bad)
        # One cached rule per degree, whatever integer type names it.
        assert rule(np.int64(3)) is rule(3)


# -- edge rules ------------------------------------------------------------

def test_edge_rule_exactness():
    for d in (1, 3, 7, 15, MAX_EXACT_DEGREE):
        rule = edge_quadrature(d)
        assert np.sum(rule.weights) == pytest.approx(2.0, rel=1e-14)
        for m in range(d + 1):
            exact = 2.0 / (m + 1) if m % 2 == 0 else 0.0
            got = np.sum(rule.weights * rule.points**m)
            assert got == pytest.approx(exact, abs=1e-14)


def test_edge_rule_minimal_point_count():
    # n Gauss points integrate degree 2n-1: the rule must not waste points.
    for d in (1, 5, 10):
        rule = edge_quadrature(d)
        n = len(rule.weights)
        assert 2 * n - 1 >= d
        assert 2 * (n - 1) - 1 < d


# -- bases ----------------------------------------------------------------

def test_space_dims():
    assert [space_dim(d) for d in range(4)] == [1, 3, 6, 10]
    assert len(monomial_exponents(2)) == 6


def test_element_basis_orthonormal(unit_meshes):
    mesh = unit_meshes[1]
    for deg in (0, 1, 2, 3):
        basis = get_tri_basis(mesh, deg)
        pts, w = get_element_rule(mesh, 2 * deg + 2)
        V = basis.eval(pts)
        gram = np.einsum("eqm,eqn,eq->emn", V, V, w)
        eye = np.broadcast_to(np.eye(space_dim(deg)), gram.shape)
        assert np.allclose(gram, eye, atol=1e-12)


def test_edge_basis_orthonormal(unit_meshes):
    mesh = unit_meshes[1]
    for deg in (0, 1, 2):
        pts, w, t = get_edge_rule(mesh, 2 * deg + 2)
        X = edge_basis(mesh, deg, t)
        gram = np.einsum("eqm,eqn,eq->emn", X, X, w)
        eye = np.broadcast_to(np.eye(deg + 1), gram.shape)
        assert np.allclose(gram, eye, atol=1e-12)


DERIVATIVES = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_vander_bitwise_equals_power_formula(unit_meshes):
    """The power tables reproduce the one-``pow``-per-column formula bit for bit.

    Guards against a numpy upgrade moving the ``pow`` route (its SIMD loop,
    libm, or the ``square`` fast path) under one of the two spellings.
    """

    def formula(basis, pts, dx, dy):
        extra = pts.ndim - 2
        c = basis.centers.reshape((-1,) + (1,) * extra + (2,))
        s = basis.scales.reshape((-1,) + (1,) * extra)
        xi = (pts[..., 0] - c[..., 0]) / s
        eta = (pts[..., 1] - c[..., 1]) / s
        a, b = basis.exps[:, 0], basis.exps[:, 1]
        fac = np.array([perm(i, dx) * perm(j, dy) for i, j in basis.exps], dtype=float)
        V = fac * xi[..., None] ** np.maximum(a - dx, 0) * eta[..., None] ** np.maximum(b - dy, 0)
        if dx or dy:
            V = V / s[..., None] ** (dx + dy)
        return V

    mesh = unit_meshes[4]
    point_sets = [get_element_rule(mesh, qd)[0] for qd in (6, 12, 20)]
    for k in (2, 5):
        point_sets.append(get_edge_rule(mesh, GEOMETRY_EDGE_DEGREE(k))[0][mesh.tri_edges])
    for deg in range(6):
        basis = get_tri_basis(mesh, deg)
        for pts in point_sets:
            for dx, dy in DERIVATIVES:
                got = basis._vander(pts, dx=dx, dy=dy)
                want = formula(basis, pts, dx, dy)
                assert got.shape == want.shape and got.dtype == want.dtype
                np.testing.assert_array_equal(
                    got.view(np.int64), want.view(np.int64), err_msg=f"{deg} {dx} {dy} {pts.shape}"
                )


@pytest.mark.parametrize("deg", [1, 2, 3, 4])
def test_element_poly_derivatives_analytic(unit_meshes, deg):
    mesh = unit_meshes[2]
    exps = monomial_exponents(deg)
    c = np.random.default_rng(deg).standard_normal(len(exps))

    def poly(x, y, dx=0, dy=0):
        out = np.zeros(np.shape(x))
        for (a, b), ca in zip(exps, c):
            if a >= dx and b >= dy:
                out += ca * perm(a, dx) * perm(b, dy) * x ** (a - dx) * y ** (b - dy)
        return out

    coeffs = project_element(poly, deg, mesh)
    pts, _ = get_element_rule(mesh, 7)
    x, y = pts[..., 0], pts[..., 1]
    for dx, dy in DERIVATIVES:
        got = eval_element_poly(mesh, deg, coeffs, pts, dx=dx, dy=dy)
        want = poly(x, y, dx, dy)
        scale = np.max(np.abs(want))
        if scale == 0.0:
            assert np.all(got == 0.0), (dx, dy)
        else:
            assert np.max(np.abs(got - want)) <= 1e-10 * scale, (dx, dy)
    for dx, dy in [(deg + 1, 0), (0, deg + 1), (deg, 1)]:
        assert np.all(eval_element_poly(mesh, deg, coeffs, pts, dx=dx, dy=dy) == 0.0), (dx, dy)


def test_flat_element_named_by_global_index(set_chunk):
    # 1,500 disjoint right triangles, one of them flattened; with chunks of
    # 1,024 it lies in the second chunk and is named by its mesh index.
    from pdwg.mesh import Mesh

    n, flat = 1500, 1100
    x0 = 2.0 * np.arange(n)
    corners = np.stack([np.c_[x0, 0 * x0], np.c_[x0 + 1, 0 * x0], np.c_[x0, 0 * x0 + 1]], axis=1)
    corners[flat, 2] = [x0[flat] + 0.5, 1e-6]
    mesh = Mesh(corners.reshape(-1, 2), np.arange(3 * n).reshape(n, 3), np.zeros(n, dtype=int))
    set_chunk(1024)
    with pytest.raises(ValueError, match=f"element {flat}, Cholesky diagonal ratio"):
        TriangleBasis(mesh, 2)
    TriangleBasis(mesh, 0)  # a constant basis is fine on any element


def test_degenerate_element_rejected():
    from pdwg.mesh import Mesh
    from pdwg.polyquad import TriangleBasis

    eps = 1e-16
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, eps]])
    m = Mesh(v, np.array([[0, 1, 2]]), np.zeros(1, dtype=int))
    with pytest.raises((ValueError, np.linalg.LinAlgError)):
        TriangleBasis(m, 2)


# -- element projection ---------------------------------------------------------

def test_project_element_reproduces_polynomials(unit_meshes):
    mesh = unit_meshes[1]
    f = lambda x, y: x + y
    coeffs = project_element(f, 2, mesh)
    pts, _ = get_element_rule(mesh, 5)
    got = eval_element_poly(mesh, 2, coeffs, pts)
    assert np.allclose(got, f(pts[..., 0], pts[..., 1]), atol=1e-13)


def test_project_element_constant_degree_zero(unit_meshes):
    mesh = unit_meshes[1]
    coeffs = project_element(lambda x, y: np.full(np.shape(x), 5.0), 0, mesh)
    got = eval_element_poly(mesh, 0, coeffs, mesh.centroids[:, None, :])
    assert np.allclose(got, 5.0, atol=1e-13)


def test_project_element_smooth_rate(unit_meshes):
    f = lambda x, y: np.sin(x) * np.sin(y)
    errs = []
    for mesh in unit_meshes[:4]:
        coeffs = project_element(f, 2, mesh)
        pts, w = get_element_rule(mesh, 10)
        diff = eval_element_poly(mesh, 2, coeffs, pts) - f(pts[..., 0], pts[..., 1])
        errs.append(np.sqrt(np.sum(w * diff**2)))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert rates[-1] == pytest.approx(3.0, abs=0.1)


def test_projection_orthogonality(unit_meshes):
    # The residual f - Q f is L2-orthogonal to the projection space.
    mesh = unit_meshes[1]
    f = lambda x, y: np.sin(3 * x + y)
    coeffs = project_element(f, 2, mesh, quad_degree=20)
    pts, w = get_element_rule(mesh, 20)
    resid = f(pts[..., 0], pts[..., 1]) - eval_element_poly(mesh, 2, coeffs, pts)
    V = get_tri_basis(mesh, 2).eval(pts)
    moments = np.einsum("eqn,eq,eq->en", V, resid, w)
    assert np.abs(moments).max() < 1e-13


def test_tri_basis_eval_on_element_slices_is_bitwise_the_whole_mesh(unit_meshes):
    # Assembly evaluates bases one chunk of elements at a time: an
    # element's values must not depend on the others evaluated with it.
    mesh = unit_meshes[3]
    epts = get_edge_rule(mesh, 6)[0][mesh.tri_edges]
    for pts in (get_element_rule(mesh, 20)[0], epts):
        for degree in (1, 2, 3):
            basis = get_tri_basis(mesh, degree)
            for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2)):
                whole = basis.eval(pts, dx=dx, dy=dy)
                for e in (slice(0, 37), slice(37, 300), slice(300, None)):
                    part = basis.eval(pts[e], dx=dx, dy=dy, elements=e)
                    np.testing.assert_array_equal(part.view(np.int64), whole[e].view(np.int64))


def test_edge_basis_on_chosen_edges(unit_meshes):
    # Edge rules and bases are mapped per call on the edges asked: each
    # edge's rows are bitwise those of the whole mesh, for any id shape.
    mesh = unit_meshes[2]
    for d in (6, 20):
        pts, w, t = get_edge_rule(mesh, d)
        X = edge_basis(mesh, 2, t)
        for edges in (mesh.tri_edges, mesh.tri_edges[5:9], mesh.boundary_edges):
            got_pts, got_w, got_t = get_edge_rule(mesh, d, edges)
            assert_bitwise_equal(got_pts, pts[edges])
            assert_bitwise_equal(got_w, w[edges])
            assert_bitwise_equal(got_t, t)
            assert_bitwise_equal(edge_basis(mesh, 2, t, edges), X[edges])


# -- kernels against their broadcast formulas ----------------------------------
# The point maps write one coordinate plane at a time and the contractions
# reuse a cached path; each must hold the bits of the plain numpy
# expression it replaces.

def broadcast_affine_map(p, ref):
    """``p0 + x (p1 - p0) + y (p2 - p0)`` broadcast over a trailing axis of length 2."""
    x, y = ref[:, 0], ref[:, 1]
    return (
        p[:, None, 0, :]
        + x[None, :, None] * (p[:, 1, :] - p[:, 0, :])[:, None, :]
        + y[None, :, None] * (p[:, 2, :] - p[:, 0, :])[:, None, :]
    )


def broadcast_edge_points(mesh, t, edges):
    """``mid + t half`` of each edge broadcast over a trailing axis of length 2."""
    lo = mesh.vertices[mesh.edges[edges, 0]]
    hi = mesh.vertices[mesh.edges[edges, 1]]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid[..., None, :] + t[:, None] * half[..., None, :]


@st.composite
def far_triangles(draw):
    """Up to 7 disjoint random CCW triangles of diameter 1e-4 to 10, up to 1e6 from the origin."""
    nt = draw(st.integers(1, 7))
    shift = np.array([draw(st.floats(-1e6, 1e6)) for _ in "xy"])
    scale = draw(st.floats(1e-4, 10.0))
    corners = []
    for i in range(nt):
        p = np.array([[draw(st.floats(-1.0, 1.0)) for _ in "xy"] for _ in range(3)])
        d1, d2 = p[1] - p[0], p[2] - p[0]
        cross = d1[0] * d2[1] - d1[1] * d2[0]
        if abs(cross) < 1e-3:
            p = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])
        elif cross < 0:
            p = p[[0, 2, 1]]
        corners.append(shift + scale * (p + [3.0 * i, 0.0]))
    vertices = np.concatenate(corners)
    return Mesh(vertices=vertices, triangles=np.arange(3 * nt).reshape(nt, 3),
                region_tags=np.zeros(nt, dtype=int))


@settings(max_examples=60, deadline=None, database=None)
@given(far_triangles(), st.sampled_from([0, 4, 8, 20]), st.sampled_from([1, 3]))
def test_point_maps_are_bitwise_the_broadcast_formula(mesh, degree, size):
    # On chunks of one element and of three (the last one partial unless
    # the mesh has 3 or 6 elements), the mapped rules of elements and of
    # their edges hold the bits of the broadcast formulas.
    ref = triangle_quadrature(degree).points
    t = get_edge_rule(mesh, degree)[2]
    for start in range(0, mesh.n_triangles, size):
        e = slice(start, start + size)
        want = broadcast_affine_map(mesh.corners[e], ref)
        assert_bitwise_equal(_affine_map(mesh.corners[e], ref), want)
        assert_bitwise_equal(get_element_rule(mesh, degree, e)[0], want)
        edges = mesh.tri_edges[e]
        assert_bitwise_equal(_edge_points(mesh, t, edges), broadcast_edge_points(mesh, t, edges))
        assert_bitwise_equal(get_edge_rule(mesh, degree, edges)[0],
                             broadcast_edge_points(mesh, t, edges))
    whole = slice(None)
    assert_bitwise_equal(_edge_points(mesh, t), broadcast_edge_points(mesh, t, whole))


SRC_TEXTS = [path.read_text() for path in Path(pdwg.__file__).parent.glob("*.py")]

#: Every contraction spelled in ``src/pdwg``.
SRC_EINSUM_SPECS = sorted({spec for text in SRC_TEXTS
                           for spec in re.findall(r'_einsum\(\s*"([^"]+)"', text)})


def test_einsum_is_bitwise_numpy_einsum_with_optimize():
    # The cached path gives the bits of np.einsum(..., optimize=True) for
    # every contraction of the package, on one element, on a few, and
    # with any ellipsis, whether the path is new or cached.
    assert "e...m,emn->e...n" in SRC_EINSUM_SPECS and len(SRC_EINSUM_SPECS) >= 12
    # No other call: only _einsum's docstring and its body name np.einsum.
    assert sum(text.count("np.einsum(") for text in SRC_TEXTS) == 2
    rng = np.random.default_rng(23)
    for spec in SRC_EINSUM_SPECS:
        inputs = spec.replace("...", "*").split("->")[0].split(",")
        for ne in (1, 3, 7):
            for extra in (((), (3,), (2, 4)) if "*" in "".join(inputs) else ((),)):
                sizes = {ch: int(rng.choice([1, 2, 3, 6, 25])) for ch in set("".join(inputs))}
                sizes["e"] = ne
                ops = [rng.standard_normal(tuple(d for ch in term
                                                 for d in (extra if ch == "*" else (sizes[ch],))))
                       * 10.0 ** rng.integers(-8, 8)
                       for term in inputs]
                want = np.einsum(spec, *ops, optimize=True)
                for _ in range(2):
                    assert_bitwise_equal(_einsum(spec, *ops), want)


# -- chunk invariance ----------------------------------------------------------
# Work at quadrature resolution runs over chunks of elements; chunks of 700
# on 2,048 elements (the last one partial) and one chunk holding the whole
# mesh give the same bits.

def test_tri_basis_coeff_is_chunk_invariant(chunked_mesh, set_chunk):
    for degree in (0, 2, 3):
        coeffs = []
        for size in CHUNKS:
            set_chunk(size)
            coeffs.append(TriangleBasis(chunked_mesh, degree).coeff)
        assert_bitwise_equal(*coeffs)


def test_element_rule_of_a_chunk_is_the_whole_mesh_rule(chunked_mesh, set_chunk):
    for degree in (6, 20):
        whole = get_element_rule(chunked_mesh, degree)
        for size in CHUNKS:
            set_chunk(size)
            for e in _chunks(chunked_mesh.n_triangles):
                for got, want in zip(get_element_rule(chunked_mesh, degree, e), whole):
                    assert_bitwise_equal(got, want[e])


def test_project_element_is_chunk_invariant(chunked_mesh, set_chunk):
    f = lambda x, y: np.exp(x) * np.sin(3.0 * y)
    for degree in (1, 2):
        coeffs = []
        for size in CHUNKS:
            set_chunk(size)
            coeffs.append(project_element(f, degree, chunked_mesh))
        assert_bitwise_equal(*coeffs)


def test_project_element_streams_by_chunks():
    # At level 6 (8,192 elements, 8 chunks) the projection holds one
    # chunk's basis values at a time.  Peak traced allocation in units of
    # the whole-mesh basis table (nt * nq * dim float64): 4.0 when the
    # whole mesh was evaluated at once, 0.52 by chunks.  8 chunks are too
    # few to share between threads, on any host.
    mesh = mesh_hierarchy("unit_square", 6)[-1]
    f = lambda x, y: np.exp(x) * np.sin(3.0 * y)
    project_element(f, 2, mesh)  # builds the basis and mesh geometry it reads
    tracemalloc.start()
    try:
        project_element(f, 2, mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = mesh.n_triangles * triangle_quadrature(12).weights.size * space_dim(2) * 8
    assert peak <= 1.0 * table


# -- edge projection ---------------------------------------------------------

def test_project_edge_linear_exact(unit_meshes):
    mesh = unit_meshes[1]
    f = lambda x, y: 2 * x - 3 * y + 1
    coeffs = project_edge(f, 1, mesh)
    _, _, t = get_edge_rule(mesh, 4)
    got = eval_edge_poly(mesh, 1, coeffs, t)
    pts, _, _ = get_edge_rule(mesh, 4)
    assert np.allclose(got, f(pts[..., 0], pts[..., 1]), atol=1e-13)


def test_project_edge_gradient_of_quadratic(unit_meshes):
    mesh = unit_meshes[1]
    grad = lambda x, y: np.stack([2 * x, np.zeros_like(y)])
    coeffs = project_edge(grad, 1, mesh)
    assert coeffs.shape == (mesh.n_edges, 2, 2)
    _, _, t = get_edge_rule(mesh, 4)
    pts, _, _ = get_edge_rule(mesh, 4)
    got = eval_edge_poly(mesh, 1, coeffs, t)  # (ne, 2, nq)
    ref = grad(pts[..., 0], pts[..., 1])
    assert np.allclose(got, np.transpose(ref, (1, 0, 2)), atol=1e-13)


def test_project_edge_smooth_rate(unit_meshes):
    # Weighted aggregate (sum_T h_T over boundary) converges at k + 1.
    f = lambda x, y: np.sin(2 * x) * np.cos(y)
    errs = []
    for mesh in unit_meshes[:4]:
        coeffs = project_edge(f, 2, mesh, quad_degree=14)
        pts, w, t = get_edge_rule(mesh, 14)
        diff = eval_edge_poly(mesh, 2, coeffs, t) - f(pts[..., 0], pts[..., 1])
        per_edge = np.sum(w * diff**2, axis=1)
        wsum = np.zeros(mesh.n_edges)
        np.add.at(wsum, mesh.tri_edges.ravel(), np.repeat(mesh.h_t, 3))
        errs.append(np.sqrt(np.sum(wsum * per_edge)))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert rates[-1] == pytest.approx(3.0, abs=0.1)
