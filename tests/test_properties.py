"""Properties of the shared conventions on random non-degenerate affine triangles.

Each test draws a one-triangle mesh (a random affine image of the
reference triangle) and checks a convention of :mod:`pdwg.polyquad`
against an independent reference: rule exactness against Green's
theorem on 1D Gauss rules, and the orthonormality and reproduction
properties the bases promise.  On the same triangles, the weak Hessian
of a quadratic's weak function is its constant Hessian, the stabilizer
vanishes on polynomials of degree k, and the C0 operators are the
general ones seen through the C0-to-general map.  Refinement invariants
are checked on the built-in domains and on random triangles, and the
one evaluator of problem data on random point shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from pdwg.analysis import edge_gradient_interpolant
from pdwg.assembly import stabilizer_energy
from pdwg.mesh import DomainSpec, Mesh, build_initial_mesh, refine_uniform
from pdwg.polyquad import (
    MAX_EXACT_DEGREE,
    _evaluate,
    edge_basis,
    get_edge_rule,
    get_element_rule,
    get_tri_basis,
    project_edge,
)
from pdwg.wgspace import (
    SpaceConfig,
    apply_weak_hessian,
    build_dof_map,
    interpolate_weak,
    project_weak,
    weak_hessian_local,
)

from conftest import assert_c0_operators_are_general_on_traces

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


# Both variants, k = 2 and 3, both multiplier spaces.
SPACES = st.builds(
    SpaceConfig,
    k=st.integers(2, 3),
    multiplier_space=st.sampled_from(["pkm1", "pkm2"]),
    c0_type=st.booleans(),
)


def _random_polynomial(mesh, degree, data):
    """Coefficients, value and gradient of a random polynomial of degree ``degree``.

    The polynomial has coefficients in [-1, 1] in the coordinates relative
    to corner 0 divided by the diameter ``h``.
    """
    p0, h = mesh.vertices[0], _diameter(mesh.vertices)
    n = degree + 1
    coef = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n)))
    coef = coef.reshape(n, n) * (np.add.outer(np.arange(n), np.arange(n)) < n)

    def u(x, y):
        return npoly.polyval2d((x - p0[0]) / h, (y - p0[1]) / h, coef)

    def grad_u(x, y):
        xi, eta = (x - p0[0]) / h, (y - p0[1]) / h
        return np.stack([npoly.polyval2d(xi, eta, npoly.polyder(coef, axis=axis)) / h
                         for axis in (0, 1)])

    return coef, u, grad_u


def _weak_function(mesh, config, u, grad_u):
    """The C0 weak interpolant or the general projection of ``u``."""
    weak = interpolate_weak if config.c0_type else project_weak
    return weak(mesh, config, u, grad_u)


@PROPERTY
@given(triangles(), SPACES, st.data())
def test_weak_hessian_exact_on_quadratics(mesh, config, data):
    # The weak function of a quadratic q holds q, its traces and its
    # gradient traces exactly, so integrating by parts gives D_ij = d_ij q,
    # a constant, at every quadrature point of the element.
    h = _diameter(mesh.vertices)
    coef, q, grad_q = _random_polynomial(mesh, 2, data)
    local = build_dof_map(mesh, config).local_vectors(_weak_function(mesh, config, q, grad_q))
    hess = weak_hessian_local(mesh, config)
    pts, _ = get_element_rule(mesh, 2 * config.k)
    VS = get_tri_basis(mesh, config.mult_degree).eval(pts)[0]
    for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
        want = npoly.polyder(npoly.polyder(coef, axis=i - 1), axis=j - 1)[0, 0] / h**2
        got = VS @ apply_weak_hessian(local, hess, i, j)[0]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10 / h**2, err_msg=f"D_{i}{j}")


@PROPERTY
@given(triangles(), SPACES, st.data())
def test_stabilizer_vanishes_on_polynomials_of_degree_k(mesh, config, data):
    # The weak function of a polynomial of degree <= k is conforming: each
    # trace is the trace of v0 and each gradient trace that of grad v0, so
    # every jump is round-off.  The jumps carry weights h^-3 and h^-1.
    h = _diameter(mesh.vertices)
    _, u, grad_u = _random_polynomial(mesh, config.k, data)
    v = _weak_function(mesh, config, u, grad_u)
    energy = stabilizer_energy(mesh, build_dof_map(mesh, config), v)
    assert 0.0 <= energy <= 1e-20 * (v @ v) / h**2


@PROPERTY
@given(triangles(), st.integers(2, 3), st.sampled_from(["pkm1", "pkm2"]))
def test_c0_operators_are_general_operators_on_random_triangles(mesh, k, multiplier_space):
    # S_c0 = P^T S_gen P and H_c0 = H_gen P, with P_T the C0-to-general map.
    # Rules and bases are evaluated at absolute coordinates, so H loses the
    # digits of |x| / h: about 6e-15 |x| / h relative on small triangles far
    # from the origin (2e-12 at |x| / h = 364).  S keeps 1e-15.
    offset = np.abs(mesh.vertices).max() / mesh.h_max
    rtol = max(1e-12, 100 * np.finfo(float).eps * offset)
    assert_c0_operators_are_general_on_traces(mesh, k, multiplier_space, rtol)


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


POINT_SHAPES = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)
VALUES = st.floats(-1e3, 1e3)


@PROPERTY
@given(POINT_SHAPES, VALUES, st.data())
def test_data_evaluation_broadcasts_scalars_rows_and_arrays(shape, value, data):
    x = np.linspace(-1.0, 1.0, int(np.prod(shape))).reshape(shape)
    y = 1.0 - x
    row = np.array(data.draw(st.lists(VALUES, min_size=shape[-1], max_size=shape[-1])))
    for returned, want in (
        (value, np.full(shape, value)),
        (np.full(shape[-1:], value), np.full(shape, value)),
        (np.full(shape, value), np.full(shape, value)),
        (row, row + np.zeros(shape)),
    ):
        got = _evaluate(lambda x, y: returned, x, y)
        assert got.shape == shape
        np.testing.assert_array_equal(got, want)
    assert _evaluate(lambda x, y: np.stack([x, y]), x, y).shape == (2,) + shape


@PROPERTY
@given(POINT_SHAPES, VALUES, st.sampled_from([np.nan, np.inf, -np.inf]),
       st.sampled_from(["coefficient a12", "right-hand side", "boundary data"]), st.data())
def test_data_evaluation_rejects_any_nonfinite_value(shape, value, bad, what, data):
    x = y = np.zeros(shape)
    values = np.full(shape, value)
    values[tuple(data.draw(st.integers(0, n - 1)) for n in shape)] = bad
    message = f"^{what} evaluation returned a non-finite value$"
    for returned in (values, bad):
        with pytest.raises(ValueError, match=message):
            _evaluate(lambda x, y: returned, x, y, what)
