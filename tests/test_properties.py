"""Properties of the shared conventions on random non-degenerate affine triangles.

Each test draws a one-triangle mesh (a random affine image of the
reference triangle) and checks a convention of :mod:`pdwg.polyquad`
against an independent reference: rule exactness against Green's
theorem on 1D Gauss rules, and the orthonormality and reproduction
properties the bases promise.  Refinement invariants are checked on the
built-in domains and on random triangles.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from pdwg.analysis import edge_gradient_interpolant
from pdwg.mesh import DomainSpec, Mesh, build_initial_mesh, refine_uniform
from pdwg.polyquad import (
    MAX_EXACT_DEGREE,
    edge_basis,
    get_edge_rule,
    get_element_rule,
    get_tri_basis,
    project_edge,
)

PROPERTY = settings(max_examples=25, deadline=None, database=None)


def _cross(p):
    """Twice the signed areas of triangles with corners ``p`` (..., 3, 2)."""
    d1, d2 = p[..., 1, :] - p[..., 0, :], p[..., 2, :] - p[..., 0, :]
    return d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]


def _diameter(p):
    return max(np.hypot(*(p[i] - p[j])) for i, j in ((0, 1), (1, 2), (2, 0)))


@st.composite
def triangles(draw):
    """A one-triangle mesh on a random non-degenerate affine image of the reference triangle.

    The map is a shift, a scale, a rotation and the shear ``[[1, s], [0,
    a]]`` with ``|s| <= 1/2`` and ``a >= 1/2``, so the triangle is CCW and
    ``2 |T| >= h**2 / 5``.
    """
    scale = draw(st.floats(1e-2, 10.0))
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    shear = np.array([[1.0, draw(st.floats(-0.5, 0.5))], [0.0, draw(st.floats(0.5, 1.0))]])
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    shift = np.array([draw(st.floats(-5.0, 5.0)) for _ in "xy"])
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    p = shift + scale * ref @ (rot @ shear).T
    return Mesh(vertices=p, triangles=[[0, 1, 2]], region_tags=[0])


def _green_monomial_integrals(p, degree):
    """``int_T xi^a eta^b`` for ``a + b <= degree`` by Green's theorem.

    ``xi, eta`` are the coordinates relative to corner 0, divided by the
    diameter ``h``.  With ``Q = h xi^(a+1) eta^b / (a+1)``, ``dQ/dx`` is
    the integrand, so the integral is the sum over the CCW edges of
    ``int Q dy``, a polynomial of degree ``a + b + 1`` along each edge,
    which a 1D Gauss rule integrates exactly.
    """
    h = _diameter(p)
    q = (p - p[0]) / h
    s, w = np.polynomial.legendre.leggauss(degree // 2 + 2)
    s, w = 0.5 * (s + 1.0), 0.5 * w
    out = {}
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            total = 0.0
            for i in range(3):
                lo, hi = q[i], q[(i + 1) % 3]
                xy = lo + s[:, None] * (hi - lo)
                Q = h * xy[:, 0] ** (a + 1) * xy[:, 1] ** b / (a + 1)
                total += np.sum(w * Q) * (hi[1] - lo[1]) * h
            out[a, b] = total
    return out


@PROPERTY
@given(triangles(), st.integers(0, MAX_EXACT_DEGREE))
def test_mapped_triangle_rule_exact_on_random_triangles(mesh, degree):
    p = mesh.vertices
    h = _diameter(p)
    pts, w = get_element_rule(mesh, degree)
    xi, eta = (pts[0, :, 0] - p[0, 0]) / h, (pts[0, :, 1] - p[0, 1]) / h
    for (a, b), want in _green_monomial_integrals(p, degree).items():
        got = np.sum(w[0] * xi**a * eta**b)
        assert abs(got - want) <= 1e-12 * h**2, (a, b, got, want)


@PROPERTY
@given(triangles(), st.integers(0, 4))
def test_element_basis_orthonormal_on_random_triangles(mesh, degree):
    pts, w = get_element_rule(mesh, 2 * degree)
    V = get_tri_basis(mesh, degree).eval(pts)
    gram = np.einsum("eqm,eqn,eq->emn", V, V, w)
    np.testing.assert_allclose(gram[0], np.eye(V.shape[-1]), atol=1e-9)


@PROPERTY
@given(triangles(), st.integers(0, 8))
def test_edge_basis_orthonormal_on_random_edges(mesh, degree):
    _, w, t = get_edge_rule(mesh, 2 * degree)
    X = edge_basis(mesh, degree, t)
    gram = np.einsum("eqm,eqn,eq->emn", X, X, w)
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(degree + 1), gram.shape), atol=1e-12)


@PROPERTY
@given(triangles(), st.integers(1, 3), st.data())
def test_edge_gradient_interpolant_reproduces_polynomial_gradients(mesh, degree, data):
    # u is a polynomial of degree ``degree + 1`` in coordinates relative to
    # a corner, so its gradient has degree ``degree`` and every edge
    # interpolant of it equals its L2 projection onto the edge basis.
    p0, h = mesh.vertices[0], _diameter(mesh.vertices)
    n = degree + 2
    coef = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n)))
    coef = coef.reshape(n, n) * (np.add.outer(np.arange(n), np.arange(n)) < n)

    def grad_u(x, y):
        xi, eta = (x - p0[0]) / h, (y - p0[1]) / h
        return np.stack([npoly.polyval2d(xi, eta, npoly.polyder(coef, axis=axis)) / h
                         for axis in (0, 1)])

    got = edge_gradient_interpolant(grad_u, mesh, degree)
    want = project_edge(grad_u, degree, mesh)
    bound = n**3 * np.sqrt(h) / h  # bounds |grad u| * sqrt(edge length)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * bound)


DOMAIN_MESHES = st.sampled_from(["unit_square", "ref_square", "l_shape"]).map(
    lambda kind: build_initial_mesh(DomainSpec(kind))
)


@PROPERTY
@given(st.one_of(DOMAIN_MESHES, triangles()), st.integers(1, 4))
def test_refinement_invariants(mesh, levels):
    # h_max halves exactly on the built-in domains, whose coordinates are
    # dyadic, and to the rounding of the midpoints on a random triangle.
    atol = 0.0 if mesh.domain else 8 * np.finfo(float).eps * np.abs(mesh.vertices).max()
    for _ in range(levels):
        fine = refine_uniform(mesh)
        assert np.all(_cross(fine.vertices[fine.triangles]) > 0.0)  # CCW
        np.testing.assert_allclose(fine.h_max, mesh.h_max / 2, rtol=0.0, atol=atol)
        assert fine.n_vertices - fine.n_edges + fine.n_triangles == 1
        mesh = fine
