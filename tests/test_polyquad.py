"""Quadrature rules, orthonormal bases, and L2 projections."""

from math import factorial, perm

import numpy as np
import pytest

from pdwg.polyquad import (
    GEOMETRY_EDGE_DEGREE,
    MAX_EXACT_DEGREE,
    edge_quadrature,
    eval_edge_poly,
    eval_element_poly,
    get_edge_rule,
    get_element_rule,
    get_tri_basis,
    monomial_exponents,
    project_edge,
    project_element,
    space_dim,
    triangle_quadrature,
)


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
    from pdwg.polyquad import get_edge_basis

    for deg in (0, 1, 2):
        basis = get_edge_basis(mesh, deg)
        pts, w, t = get_edge_rule(mesh, 2 * deg + 2)
        X = basis.eval_ref(t)
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
