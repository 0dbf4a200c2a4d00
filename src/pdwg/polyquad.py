"""Polynomial bases, quadrature, and L2 projections on triangles and edges.

Triangle rules are conical products (Gauss-Jacobi in one direction,
Gauss-Legendre in the other, through the Duffy map), so every point is
strictly interior and every weight positive for any requested exactness
degree.  Strictly interior points matter here because right-hand sides
like ``|x|**(alpha - 2)`` blow up at mesh vertices while remaining
integrable.

Each element carries its own orthonormal basis of ``P_k``: monomials are
centered at the centroid, scaled by the element diameter, and
Gram-Schmidt-ed through a Cholesky factorization of the quadrature Gram
matrix.  With orthonormal bases every L2 projection reduces to plain
moment evaluation and coefficient vectors carry the L2 norm directly.
Edge bases are Legendre polynomials in the arclength parameter of the
edge, normalized by edge length, hence orthonormal analytically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .mesh import _per_mesh

__all__ = [
    "QuadratureRule",
    "triangle_quadrature",
    "edge_quadrature",
    "monomial_exponents",
    "space_dim",
    "TriangleBasis",
    "EdgeBasis",
    "get_tri_basis",
    "get_edge_basis",
    "get_element_rule",
    "get_edge_rule",
    "project_element",
    "project_edge",
    "eval_element_poly",
    "eval_edge_poly",
]

MAX_EXACT_DEGREE = 25

#: Exactness used for integrands that are themselves piecewise polynomial
#: (Gram matrices, operator moments, stabilizer traces) at space degree k.
GEOMETRY_TRI_DEGREE = lambda k: 2 * k + 4  # noqa: E731
GEOMETRY_EDGE_DEGREE = lambda k: 2 * k + 2  # noqa: E731

#: Default exactness for data-dependent integrands (projections of given
#: functions, right-hand sides, error norms).  Rough problems pin 20.
DATA_DEGREE_DEFAULT = 12


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on the reference triangle or reference edge.

    For triangles, ``points`` has shape (n, 2) on the reference triangle
    ``{x, y >= 0, x + y <= 1}`` and weights sum to its measure 1/2.  For
    edges, ``points`` has shape (n,) in the open interval (-1, 1) and
    weights sum to 2.
    """

    points: np.ndarray
    weights: np.ndarray
    exact_degree: int


def _check_degree(exact_degree):
    d = int(exact_degree)
    if d < 0 or d > MAX_EXACT_DEGREE:
        raise ValueError(
            f"exact_degree must be in [0, {MAX_EXACT_DEGREE}], got {exact_degree}"
        )
    return d


@functools.lru_cache(maxsize=None)
def triangle_quadrature(exact_degree):
    """Positive-weight interior rule on the reference triangle.

    Exact for all polynomials of total degree ``exact_degree``.
    """
    d = _check_degree(exact_degree)
    n = max(1, (d + 2) // 2)  # ceil((d + 1) / 2)
    tj, wj = roots_jacobi(n, 1.0, 0.0)  # weight (1 - t) on [-1, 1]
    tl, wl = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (tj + 1.0)
    wu = 0.25 * wj
    v = 0.5 * (tl + 1.0)
    wv = 0.5 * wl
    x = np.repeat(u, n)
    y = np.tile(v, n) * (1.0 - x)
    w = np.repeat(wu, n) * np.tile(wv, n)
    pts = np.column_stack([x, y])
    pts.setflags(write=False)
    w.setflags(write=False)
    return QuadratureRule(points=pts, weights=w, exact_degree=d)


@functools.lru_cache(maxsize=None)
def edge_quadrature(exact_degree):
    """Gauss-Legendre rule on [-1, 1]; endpoints are never nodes."""
    d = _check_degree(exact_degree)
    n = max(1, (d + 2) // 2)
    t, w = np.polynomial.legendre.leggauss(n)
    t.setflags(write=False)
    w.setflags(write=False)
    return QuadratureRule(points=t, weights=w, exact_degree=d)


def monomial_exponents(degree):
    """Exponent pairs of the scalar monomial basis of total degree <= degree."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return np.array(
        [(a, d - a) for d in range(degree + 1) for a in range(d, -1, -1)],
        dtype=np.int64,
    )


def space_dim(degree):
    """dim P_degree on a triangle."""
    return (degree + 1) * (degree + 2) // 2


def _falling(exps, order):
    out = np.ones(exps.shape, dtype=float)
    for m in range(order):
        out *= np.maximum(exps - m, 0)
    return out


def _powers(z, top):
    """``z**p`` for ``p = 0..top`` along a new last axis.

    The entries are bitwise those of ``z[..., None] ** p`` with an integer
    exponent array, which numpy evaluates in its vectorized float ``pow``
    loop.  ``p = 0`` and ``p = 1`` are exact without ``pow`` (``1.0`` and
    ``z``).  Every ``p >= 2`` passes a full float exponent array: a scalar
    or one-element exponent (``z**2``) takes numpy's ``square`` fast path,
    which is not ``pow`` and rounds about 1 % of the entries differently.
    """
    out = np.empty(z.shape + (top + 1,))
    out[..., 0] = 1.0
    if top >= 1:
        out[..., 1] = z
    for p in range(2, top + 1):
        out[..., p] = np.power(z, np.full(z.shape, float(p)))
    return out


class TriangleBasis:
    """Per-element orthonormal bases of ``P_degree`` over a whole mesh.

    The basis of element ``T`` spans polynomials of total degree
    ``degree`` in monomials ``((x - c_T) / h_T)^a ((y - c_T) / h_T)^b``,
    orthonormalized in ``L2(T)``.  All elements are processed in batch.
    """

    def __init__(self, mesh, degree):
        self.degree = int(degree)
        self.exps = monomial_exponents(self.degree)
        self.dim = self.exps.shape[0]
        self.centers = mesh.centroids
        self.scales = mesh.h_t
        rule = triangle_quadrature(min(2 * self.degree + 2, MAX_EXACT_DEGREE))
        pts, w = _physical_element_rule(mesh, rule)
        V = self._vander(pts)
        gram = np.einsum("eqi,eqj,eq->eij", V, V, w, optimize=True)
        cause = (
            f"Gram matrix of the scaled-monomial basis of degree {self.degree} "
            "is too ill-conditioned: an element is too flat or the degree too high"
        )
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError as exc:
            raise ValueError(cause) from exc
        # The Cholesky diagonal bounds the Gram conditioning in the scaled
        # monomial basis; on shape-regular elements the ratio is O(1) for
        # low degrees, but it decays with the degree on any element.
        diag = np.diagonal(chol, axis1=1, axis2=2)
        worst = np.min(diag, axis=1) / np.max(diag, axis=1)
        if np.any(worst**2 < 1e-14):
            bad = int(np.argmin(worst))
            raise ValueError(
                f"{cause} (element {bad}, Cholesky diagonal ratio {worst[bad]:.1e})"
            )
        # coeff[e] maps orthonormal coefficients to monomial coefficients.
        self.coeff = np.transpose(np.linalg.inv(chol), (0, 2, 1))

    def _vander(self, pts, dx=0, dy=0):
        """Scaled-monomial (derivative) values, ``(nt, ..., dim)``.

        Column ``(a, b)`` is ``fac * xi**(a - dx) * eta**(b - dy)`` divided
        by ``h**(dx + dy)``, with exponents clipped at 0 where ``fac`` is 0.
        Each power is looked up in one table per axis (see ``_powers``)
        instead of being recomputed for every column; the bits are those of
        the one-``pow``-per-column formula.
        """
        extra = pts.ndim - 2
        c = self.centers.reshape((-1,) + (1,) * extra + (2,))
        s = self.scales.reshape((-1,) + (1,) * extra)
        xi = (pts[..., 0] - c[..., 0]) / s
        eta = (pts[..., 1] - c[..., 1]) / s
        a = np.maximum(self.exps[:, 0] - dx, 0)
        b = np.maximum(self.exps[:, 1] - dy, 0)
        X = _powers(xi, a.max())[..., a]
        Y = _powers(eta, b.max())[..., b]
        if not (dx or dy):
            return X * Y  # the factor is all ones
        fac = _falling(self.exps[:, 0], dx) * _falling(self.exps[:, 1], dy)
        return fac * X * Y / s[..., None] ** (dx + dy)

    def eval(self, pts, dx=0, dy=0):
        """Basis (derivative) values at points.

        Parameters
        ----------
        pts : (nt, ..., 2) array
            Physical points, leading axis aligned with elements.
        dx, dy : int
            Derivative orders.

        Returns
        -------
        (nt, ..., dim) array
        """
        V = self._vander(pts, dx=dx, dy=dy)
        return np.einsum("e...m,emn->e...n", V, self.coeff, optimize=True)


class EdgeBasis:
    """Orthonormal Legendre bases of ``P_degree`` on every mesh edge.

    The parameter ``t`` runs over [-1, 1] from the lower-id endpoint to
    the higher-id endpoint (the global edge orientation); both elements
    adjacent to an edge therefore see identical basis functions.
    """

    def __init__(self, mesh, degree):
        self.degree = int(degree)
        self.dim = self.degree + 1
        lengths = mesh.edge_lengths
        self.norms = np.sqrt((2.0 * np.arange(self.dim) + 1.0)[None, :] / lengths[:, None])

    def eval_ref(self, t):
        """Values at reference parameters ``t``; shape (ne, len(t), dim)."""
        P = np.polynomial.legendre.legvander(np.asarray(t, dtype=float), self.degree)
        return P[None, :, :] * self.norms[:, None, :]


def _physical_element_rule(mesh, rule):
    p = mesh.corners
    x, y = rule.points[:, 0], rule.points[:, 1]
    pts = (
        p[:, None, 0, :]
        + x[None, :, None] * (p[:, 1, :] - p[:, 0, :])[:, None, :]
        + y[None, :, None] * (p[:, 2, :] - p[:, 0, :])[:, None, :]
    )
    w = rule.weights[None, :] * (2.0 * mesh.areas)[:, None]
    return pts, w


def _edge_points(mesh, t):
    """Physical points of reference parameters ``t`` on every edge, (ne, len(t), 2)."""
    lo = mesh.vertices[mesh.edges[:, 0]]
    hi = mesh.vertices[mesh.edges[:, 1]]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid[:, None, :] + t[None, :, None] * half[:, None, :]


def _physical_edge_rule(mesh, rule):
    t = rule.points
    w = rule.weights[None, :] * (0.5 * mesh.edge_lengths)[:, None]
    return _edge_points(mesh, t), w, t


# -- memoized per-mesh accessors -----------------------------------------

@_per_mesh
def get_tri_basis(mesh, degree):
    return TriangleBasis(mesh, degree)


@_per_mesh
def get_edge_basis(mesh, degree):
    return EdgeBasis(mesh, degree)


@_per_mesh
def get_element_rule(mesh, degree):
    """Physical points/weights of the degree-``degree`` triangle rule."""
    return _physical_element_rule(mesh, triangle_quadrature(degree))


@_per_mesh
def get_edge_rule(mesh, degree):
    """Physical points/weights and reference parameters on all edges."""
    return _physical_edge_rule(mesh, edge_quadrature(degree))


# -- projections ----------------------------------------------------------

def project_element(f, degree, mesh, quad_degree=None):
    """L2 projection of ``f`` onto ``P_degree`` of every element.

    Parameters
    ----------
    f : callable
        Vectorized ``f(x, y)`` over coordinate arrays.
    degree : int
    mesh : Mesh
    quad_degree : int, optional
        Exactness of the moment rule; defaults to
        ``max(2 * degree + 2, DATA_DEGREE_DEFAULT)``.

    Returns
    -------
    (nt, dim) array
        Coefficients in the per-element orthonormal basis, i.e. the
        solution of the Gram system for each element (the Gram matrix is
        the identity in this basis).
    """
    qd = quad_degree if quad_degree is not None else max(2 * degree + 2, DATA_DEGREE_DEFAULT)
    basis = get_tri_basis(mesh, degree)
    pts, w = get_element_rule(mesh, qd)
    vals = np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("function evaluation returned a non-finite value")
    V = basis.eval(pts)
    return np.einsum("eqn,eq,eq->en", V, vals, w, optimize=True)


def project_edge(f, degree, mesh, quad_degree=None):
    """L2 projection of ``f`` onto ``P_degree`` of every edge.

    ``f(x, y)`` may return values shaped like ``x`` (scalar field) or
    with one extra leading axis of size 2 (vector field, e.g. a
    gradient).  Returns coefficients shaped (ne, dim) or (ne, 2, dim).
    """
    qd = quad_degree if quad_degree is not None else max(2 * degree + 2, DATA_DEGREE_DEFAULT)
    basis = get_edge_basis(mesh, degree)
    pts, w, t = get_edge_rule(mesh, qd)
    vals = np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("function evaluation returned a non-finite value")
    X = basis.eval_ref(t)
    if vals.shape == pts[..., 0].shape:
        return np.einsum("eqn,eq,eq->en", X, vals, w, optimize=True)
    if vals.shape == (2,) + pts[..., 0].shape:
        return np.einsum("eqn,ceq,eq->ecn", X, vals, w, optimize=True)
    raise ValueError(f"unexpected shape {vals.shape} from edge function evaluation")


def eval_element_poly(mesh, degree, coeffs, pts, dx=0, dy=0):
    """Evaluate per-element polynomials given orthonormal coefficients."""
    basis = get_tri_basis(mesh, degree)
    return np.einsum("e...n,en->e...", basis.eval(pts, dx=dx, dy=dy), coeffs, optimize=True)


def eval_edge_poly(mesh, degree, coeffs, t):
    """Evaluate per-edge polynomials at reference parameters ``t``."""
    basis = get_edge_basis(mesh, degree)
    X = basis.eval_ref(t)
    return np.einsum("eqn,e...n->e...q", X, coeffs, optimize=True)
