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
edge, normalized by edge length, hence orthonormal analytically.  Rules and
edge bases are computed per call for the elements or edges asked.

Other modules call, never restate, the conventions owned here: the
reference rules (one per degree), the reference triangle's affine map
(:func:`_affine_map`), the edge bases (:func:`edge_basis`) and the one
call of problem data (:func:`_evaluate`).

Work at quadrature resolution (basis values at element quadrature
points, mapped rules, function values) runs over one chunk of
``_GRAM_CHUNK`` consecutive elements at a time (see :func:`_chunks`), so
no array over the whole mesh times the points of a rule is built or
kept.  Each element's arithmetic does not depend on the other elements
of its chunk, so the chunk size changes no bit of any result.

Every such loop goes through :func:`_for_chunks`, which runs its chunks
on up to one thread per CPU of the process's affinity mask, threads that
live for one call, and inline when the loop has too few chunks to gain.
The caller runs the first chunk alone, which caches every per-mesh input
the others read.  Each chunk does the serial loop's arithmetic and writes
only its own slice of the output, so the results are bitwise the same
for any number of threads; numpy releases the GIL in the einsums,
matmuls and ufuncs that do a chunk's work.
"""

from __future__ import annotations

import functools
import operator
import os
import threading
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
    "get_tri_basis",
    "edge_basis",
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

#: Elements per step of every computation at quadrature resolution.
#: Bounds its temporaries to a few megabytes; each element's sums run in
#: the same order as over the whole mesh, so it changes no bit.
_GRAM_CHUNK = 1024

#: Threads that run the chunks of one loop at most: the caller and
#: ``_WORKERS - 1`` helpers, one per CPU the process may run on.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

#: Fewest chunks per thread of :func:`_for_chunks`.  On two CPUs, two
#: threads took longer than one on 8 chunks (a level-6 mesh) and a third
#: less time on 32 (level 7).
_CHUNKS_PER_THREAD = 16

#: ``_running.chunk`` is True on a thread while it takes chunks from the others.
_running = threading.local()


def _evaluate(fn, x, y, what="function", **region):
    """Values of the problem data ``fn`` at the points ``(x, y)``, broadcast to their shape.

    The one way the package calls a data callable: ``fn(x, y)``, or
    ``fn(x, y, region=tags)`` when ``region`` is given (the tensor
    entries and ``f``).  ``fn`` may return a scalar or any array that
    broadcasts to the points' shape; a gradient stacks its two
    components on a leading axis and is broadcast to ``(2,) + shape``.
    The result is a read-only view, so no value is copied or changed.
    ``ValueError`` naming ``what`` if a value is not finite.
    """
    shape = np.broadcast(x, y).shape
    vals = np.asarray(fn(x, y, **region), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{what} evaluation returned a non-finite value")
    return np.broadcast_to(vals, (2,) + shape if vals.ndim > len(shape) else shape)


def _chunks(nt):
    """Slices of ``_GRAM_CHUNK`` consecutive elements covering ``nt``."""
    return (slice(start, start + _GRAM_CHUNK) for start in range(0, nt, _GRAM_CHUNK))


def _for_chunks(nt, body):
    """Call ``body(e)`` for every slice ``e`` of :func:`_chunks` over ``nt``.

    ``body`` must write only its own chunk's slice of any shared output.
    The loop runs on ``min(_WORKERS, n // _CHUNKS_PER_THREAD)`` threads
    for ``n`` chunks; with fewer than two, or when called from a chunk
    that shares its loop with other threads, the chunks run inline, in
    order.  Otherwise the caller first runs chunk 0 alone: every chunk
    must read the same per-mesh inputs, so the threads then only read
    ``mesh._cache``, and a loop that chunk 0 starts (a basis built on
    first use) may dispatch too.  Then the caller and one helper per
    further thread take the other chunks in order from one counter.  An
    exception in a chunk propagates unchanged; the first failure stops
    the hand-out, and of all failed chunks the lowest one's error is
    raised.  Every lower chunk has run, so this is the serial error.
    """
    chunks = list(_chunks(nt))
    workers = min(_WORKERS, len(chunks) // _CHUNKS_PER_THREAD)
    if workers < 2 or getattr(_running, "chunk", False):
        for e in chunks:
            body(e)
        return

    body(chunks[0])
    lock = threading.Lock()
    todo = enumerate(chunks[1:], start=1)
    failed = {}  # chunk index -> exception

    def work():
        _running.chunk = True
        try:
            while True:
                with lock:
                    i, e = (None, None) if failed else next(todo, (None, None))
                if e is None:
                    return
                try:
                    body(e)
                except BaseException as exc:
                    with lock:
                        failed[i] = exc
        finally:
            _running.chunk = False

    helpers = []
    try:
        for _ in range(workers - 1):
            t = threading.Thread(target=work, daemon=True)
            t.start()
            helpers.append(t)  # joined below even if a later start fails
        work()
    finally:
        for t in helpers:
            t.join()
    if failed:
        raise failed[min(failed)]


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


def _one_rule_per_degree(build):
    """Validate ``exact_degree``, an integer in [0, MAX_EXACT_DEGREE]; one rule per ``int``."""
    cached = functools.lru_cache(maxsize=None)(build)

    @functools.wraps(build)
    def rule(exact_degree):
        try:
            d = operator.index(exact_degree)
        except TypeError:
            raise ValueError(f"exact_degree must be an integer, got {exact_degree!r}") from None
        if not 0 <= d <= MAX_EXACT_DEGREE:
            raise ValueError(
                f"exact_degree must be in [0, {MAX_EXACT_DEGREE}], got {exact_degree}"
            )
        return cached(d)

    return rule


@_one_rule_per_degree
def triangle_quadrature(exact_degree):
    """Positive-weight interior rule on the reference triangle.

    Exact for all polynomials of total degree ``exact_degree``.
    """
    n = max(1, (exact_degree + 2) // 2)  # ceil((exact_degree + 1) / 2)
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
    return QuadratureRule(points=pts, weights=w)


@_one_rule_per_degree
def edge_quadrature(exact_degree):
    """Gauss-Legendre rule on [-1, 1]; endpoints are never nodes."""
    n = max(1, (exact_degree + 2) // 2)
    t, w = np.polynomial.legendre.leggauss(n)
    t.setflags(write=False)
    w.setflags(write=False)
    return QuadratureRule(points=t, weights=w)


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
    orthonormalized in ``L2(T)``.  The Gram matrices are integrated,
    factorized and checked one chunk of elements at a time; a chunk with
    an element too flat for the degree raises ``ValueError`` naming the
    worst such element of the chunk by its global index.
    """

    def __init__(self, mesh, degree):
        self.degree = int(degree)
        self.exps = monomial_exponents(self.degree)
        self.dim = self.exps.shape[0]
        self.centers = mesh.centroids
        self.scales = mesh.h_t
        qd = min(2 * self.degree + 2, MAX_EXACT_DEGREE)
        cause = (
            f"Gram matrix of the scaled-monomial basis of degree {self.degree} "
            "is too ill-conditioned: an element is too flat or the degree too high"
        )
        inv_chol = np.empty((mesh.n_triangles, self.dim, self.dim))

        def chunk(e):
            pts, w = get_element_rule(mesh, qd, e)
            V = self._vander(pts, elements=e)
            gram = np.einsum("eqi,eqj,eq->eij", V, V, w, optimize=True)
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
                    f"{cause} (element {e.start + bad}, Cholesky diagonal ratio "
                    f"{worst[bad]:.1e})"
                )
            inv_chol[e] = np.linalg.inv(chol)

        _for_chunks(mesh.n_triangles, chunk)
        # coeff[e] maps orthonormal coefficients to monomial coefficients.
        self.coeff = np.transpose(inv_chol, (0, 2, 1))

    def _vander(self, pts, dx=0, dy=0, elements=slice(None)):
        """Scaled-monomial (derivative) values, ``(ne, ..., dim)``.

        Column ``(a, b)`` is ``fac * xi**(a - dx) * eta**(b - dy)`` divided
        by ``h**(dx + dy)``, with exponents clipped at 0 where ``fac`` is 0.
        Each power is looked up in one table per axis (see ``_powers``)
        instead of being recomputed for every column; the bits are those of
        the one-``pow``-per-column formula.
        """
        extra = pts.ndim - 2
        c = self.centers[elements].reshape((-1,) + (1,) * extra + (2,))
        s = self.scales[elements].reshape((-1,) + (1,) * extra)
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

    def eval(self, pts, dx=0, dy=0, elements=slice(None)):
        """Basis (derivative) values at points.

        Parameters
        ----------
        pts : (ne, ..., 2) array
            Physical points, leading axis aligned with ``elements``.
        dx, dy : int
            Derivative orders.
        elements : slice
            The elements the points lie in, all of them by default.  Each
            element's values do not depend on which others are evaluated
            with it, so a slice gives bitwise the rows of the whole mesh.

        Returns
        -------
        (ne, ..., dim) array
        """
        V = self._vander(pts, dx=dx, dy=dy, elements=elements)
        return np.einsum("e...m,emn->e...n", V, self.coeff[elements], optimize=True)


@_per_mesh
def get_tri_basis(mesh, degree):
    return TriangleBasis(mesh, degree)


def get_element_rule(mesh, degree, elements=slice(None)):
    """Physical points (ne, nq, 2) and weights (ne, nq) of the degree-``degree`` rule.

    Mapped for ``elements`` (all by default) on every call, not cached:
    callers ask for one chunk at a time.
    """
    rule = triangle_quadrature(degree)
    w = rule.weights[None, :] * (2.0 * mesh.areas[elements])[:, None]
    return _affine_map(mesh.corners[elements], rule.points), w


def _affine_map(p, ref):
    """Images (ne, n, 2) of reference points ``ref`` (n, 2) on corners ``p`` (ne, 3, 2).

    ``(x, y)`` maps to ``p0 + x (p1 - p0) + y (p2 - p0)``.
    """
    x, y = ref[:, 0], ref[:, 1]
    return (
        p[:, None, 0, :]
        + x[None, :, None] * (p[:, 1, :] - p[:, 0, :])[:, None, :]
        + y[None, :, None] * (p[:, 2, :] - p[:, 0, :])[:, None, :]
    )


def _edge_points(mesh, t, edges=slice(None)):
    """Physical points of reference parameters ``t`` on ``edges``, (..., len(t), 2).

    All edges by default, or edge ids of any shape; each edge's points
    do not depend on the others.
    """
    lo = mesh.vertices[mesh.edges[edges, 0]]
    hi = mesh.vertices[mesh.edges[edges, 1]]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid[..., None, :] + t[:, None] * half[..., None, :]


def get_edge_rule(mesh, degree, edges=slice(None)):
    """Points (..., nq, 2), weights (..., nq), parameters (nq,) of the degree-``degree`` edge rule.

    Mapped for ``edges`` (all, or ids of any shape) on every call, not
    cached; ``mesh.tri_edges[elements]`` gives those elements' three edges.
    """
    rule = edge_quadrature(degree)
    t = rule.points
    w = rule.weights * (0.5 * mesh.edge_lengths[edges])[..., None]
    return _edge_points(mesh, t, edges), w, t


def edge_basis(mesh, degree, t, edges=slice(None)):
    """Orthonormal Legendre bases of ``P_degree`` at ``t`` on ``edges``, (..., len(t), dim).

    ``edges`` as in :func:`get_edge_rule`; computed on every call.  ``t``
    runs over [-1, 1] from the lower-id to the higher-id endpoint (the
    global edge orientation), so both elements of an edge see one basis.
    """
    P = np.polynomial.legendre.legvander(np.asarray(t, dtype=float), degree)
    n = 2.0 * np.arange(degree + 1) + 1.0
    return P * np.sqrt(n / mesh.edge_lengths[edges][..., None])[..., None, :]


# -- projections ----------------------------------------------------------

def project_element(f, degree, mesh, quad_degree=None):
    """L2 projection of ``f`` onto ``P_degree`` of every element.

    Parameters
    ----------
    f : callable
        Vectorized ``f(x, y)`` over coordinate arrays; it may return a
        scalar or any array that broadcasts to them.  It is called on
        one chunk of elements at a time, from several threads at once
        (see :func:`_for_chunks`), so it must be pointwise, the value at
        a point depending only on that point's coordinates, and must not
        change shared state.
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
    out = np.empty((mesh.n_triangles, basis.dim))

    def chunk(e):
        pts, w = get_element_rule(mesh, qd, e)
        vals = _evaluate(f, pts[..., 0], pts[..., 1])
        V = basis.eval(pts, elements=e)
        out[e] = np.einsum("eqn,eq,eq->en", V, vals, w, optimize=True)

    _for_chunks(mesh.n_triangles, chunk)
    return out


def project_edge(f, degree, mesh, quad_degree=None):
    """L2 projection of ``f`` onto ``P_degree`` of every edge.

    ``f(x, y)`` may return a scalar field (a scalar or any array that
    broadcasts to ``x``) or a vector field, e.g. a gradient, stacked on
    one extra leading axis of size 2.  Returns coefficients shaped
    (ne, dim) or (ne, 2, dim).
    """
    qd = quad_degree if quad_degree is not None else max(2 * degree + 2, DATA_DEGREE_DEFAULT)
    pts, w, t = get_edge_rule(mesh, qd)
    vals = _evaluate(f, pts[..., 0], pts[..., 1])
    X = edge_basis(mesh, degree, t)
    if vals.ndim == w.ndim:
        return np.einsum("eqn,eq,eq->en", X, vals, w, optimize=True)
    return np.einsum("eqn,ceq,eq->ecn", X, vals, w, optimize=True)


def eval_element_poly(mesh, degree, coeffs, pts, dx=0, dy=0, elements=slice(None)):
    """Evaluate per-element polynomials given orthonormal coefficients.

    ``pts`` and ``coeffs`` are aligned with ``elements`` (all by default).
    """
    V = get_tri_basis(mesh, degree).eval(pts, dx=dx, dy=dy, elements=elements)
    return np.einsum("e...n,en->e...", V, coeffs, optimize=True)


def eval_edge_poly(mesh, degree, coeffs, t):
    """Evaluate per-edge polynomials at reference parameters ``t``."""
    X = edge_basis(mesh, degree, t)
    return np.einsum("eqn,e...n->e...q", X, coeffs, optimize=True)
