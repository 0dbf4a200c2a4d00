"""Polynomial bases, quadrature, and L2 projections on triangles and edges.

Triangle rules are conical products (Gauss-Jacobi in one direction,
Gauss-Legendre in the other, through the Duffy map), so every point is
strictly interior and every weight positive for any requested exactness
degree.  Strictly interior points matter here because right-hand sides
like ``|x|**(alpha - 2)`` blow up at mesh vertices while remaining
integrable.  The Gauss-Jacobi nodes and weights are a fixed table of
hex floats, those of ``scipy.special.roots_jacobi`` in the scipy named
next to it, so the rules are the same bits under any installed scipy and
the package never imports ``scipy.special``; the Gauss-Legendre factor is
numpy's ``leggauss``.

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
(:func:`_affine_map`), the edge bases (:func:`edge_basis`), the one
call of problem data (:func:`_evaluate`) and the one way to contract
(:func:`_einsum`, numpy's ``einsum`` with its path cached per shapes).

Mapped points are coordinate-major: the (..., 2) point arrays are views
of arrays that hold each coordinate as one contiguous plane, so the data
callables and the bases read each coordinate contiguously.  A basis
evaluation forms each power of the scaled coordinates once, as one plane
over the points per axis, and writes each column of its scaled-monomial
matrix as the product of one plane of each axis (see
:meth:`TriangleBasis._vander`).  A power of 2 or more is numpy's float
``pow`` on the signed coordinate, which fixes the bits of every basis
value.

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

#: ``_running.chunk`` is True on a thread while it runs its share of a loop's chunks.
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


def _einsum(spec, *ops):
    """``np.einsum(spec, *ops, optimize=True)``, with numpy's greedy path cached.

    numpy's greedy contraction path depends only on ``spec`` and the
    operand shapes, so it is searched once per such pair (see
    :func:`_einsum_path`) and passed to ``np.einsum``, which then contracts
    along it as ``optimize=True`` would: the same bits, without the search.
    """
    return np.einsum(spec, *ops, optimize=_einsum_path(spec, tuple(op.shape for op in ops)))


@functools.lru_cache(maxsize=256)
def _einsum_path(spec, shapes):
    """numpy's greedy path of ``spec`` on operands of ``shapes``, as a tuple."""
    ops = (np.broadcast_to(0.0, s) for s in shapes)
    return tuple(np.einsum_path(spec, *ops, optimize="greedy")[0])


def _chunks(nt):
    """Slices of ``_GRAM_CHUNK`` consecutive elements covering ``nt``."""
    return (slice(start, start + _GRAM_CHUNK) for start in range(0, nt, _GRAM_CHUNK))


def _for_chunks(nt, body):
    """Call ``body(e)`` for every slice ``e`` of :func:`_chunks` over ``nt``.

    ``body`` must write only its own chunk's slice of any shared output.
    The loop runs on ``w = min(_WORKERS, n // _CHUNKS_PER_THREAD)``
    threads for ``n`` chunks; with fewer than two, or when called from a
    chunk that shares its loop with other threads, the chunks run inline,
    in order.  Otherwise the caller first runs chunk 0 alone: every chunk
    must read the same per-mesh inputs, so the threads then only read
    ``mesh._cache``, and a loop that chunk 0 starts (a basis built on
    first use) may dispatch too.  Then thread ``t`` (the caller is 1, the
    helpers 2 to ``w``) runs chunks ``t, t + w, t + 2w, ...`` in order,
    up to its own first failure.  The lowest failed chunk's error
    propagates unchanged: a thread stops only at its own failure, so
    every lower chunk has run, and this is the serial error.
    """
    chunks = list(_chunks(nt))
    workers = min(_WORKERS, len(chunks) // _CHUNKS_PER_THREAD)
    if workers < 2 or getattr(_running, "chunk", False):
        for e in chunks:
            body(e)
        return

    body(chunks[0])
    failed = {}  # chunk index -> exception, read after the joins

    def work(t):
        _running.chunk = True
        try:
            for i in range(t, len(chunks), workers):
                try:
                    body(chunks[i])
                except BaseException as exc:
                    failed[i] = exc
                    return
        finally:
            _running.chunk = False

    helpers = []
    try:
        for t in range(2, workers + 1):
            helper = threading.Thread(target=work, args=(t,), daemon=True)
            helper.start()
            helpers.append(helper)  # joined below even if a later start fails
        work(1)
    finally:
        for helper in helpers:
            helper.join()
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


#: scipy version whose ``scipy.special.roots_jacobi(n, 1.0, 0.0)`` gave
#: :data:`_GAUSS_JACOBI` bit for bit.
_GAUSS_JACOBI_SCIPY = "1.17.1"

#: Gauss-Jacobi rules for the weight ``1 - t`` on [-1, 1] (alpha = 1,
#: beta = 0): ``n`` maps to its ``n`` (node, weight) pairs as hex floats,
#: nodes ascending, for every ``n`` that :func:`triangle_quadrature` takes.
_GAUSS_JACOBI = {
    1: (("-0x1.5555555555555p-2", "0x1.0000000000000p+1"),),
    2: (("-0x1.613a4dcd41a8cp-1", "0x1.45aca3d575cb5p+0"),
        ("0x1.28db0200e9b81p-2", "0x1.74a6b85514696p-1")),
    3: (("-0x1.a54932ac4b548p-1", "0x1.9b8230f1da299p-1"),
        ("-0x1.72d2df86e6ed9p-3", "0x1.d57c5c75b4cc5p-1"),
        ("0x1.269033b297591p-1", "0x1.1e02e530e2142p-2")),
    4: (("-0x1.c5867a44e5259p-1", "0x1.1584a60c8fa8ep-1"),
        ("-0x1.c90687b262aa5p-2", "0x1.a0b2080bfdb5fp-1"),
        ("0x1.5662ebd487287p-3", "0x1.09ed82d38b97fp-1"),
        ("0x1.70e2ca456677bp-1", "0x1.fede789f384abp-4")),
    5: (("-0x1.d73c15b79f3d3p-1", "0x1.8c6ada4e0dafap-2"),
        ("-0x1.353bf8784132fp-1", "0x1.565fa81ab0087p-1"),
        ("-0x1.fc1c403080601p-4", "0x1.2bccf0d0b5846p-1"),
        ("0x1.904f92acb8e03p-2", "0x1.2ebb113d8a0aep-2"),
        ("0x1.9b199e53f1236p-1", "0x1.02038a7674af7p-4")),
    6: (("-0x1.e1fadfe073df9p-1", "0x1.282ee09a10673p-2"),
        ("-0x1.685e1564bedb5p-1", "0x1.15974e069ecf0p-1"),
        ("-0x1.4ddaf87feb03cp-2", "0x1.2057d8b053386p-1"),
        ("0x1.e0a317ca931cap-4", "0x1.941db707609b1p-2"),
        ("0x1.13b20aa194564p-1", "0x1.6814a9d0f3514p-3"),
        ("0x1.b5313efdf2be1p-1", "0x1.1e5630418a367p-5")),
    7: (("-0x1.e8fb29e9a5764p-1", "0x1.ca7c117182fd3p-3"),
        ("-0x1.8a9193048cf9bp-1", "0x1.c4a55b1d5c43ep-2"),
        ("-0x1.dfa995dc3e923p-2", "0x1.04e584cdadba0p-1"),
        ("-0x1.8248525f48019p-4", "0x1.b6c8c5dbee193p-2"),
        ("0x1.2dd317a1e6c75p-2", "0x1.0fe9664463035p-2"),
        ("0x1.476efbee5396cp-1", "0x1.c10efaf07bac4p-4"),
        ("0x1.c6631b7a04cfep-1", "0x1.55ba7b216c22ap-6")),
    8: (("-0x1.edcb1a17aa69cp-1", "0x1.6cf5cef7c9bf5p-3"),
        ("-0x1.a27c106adee1ap-1", "0x1.753938a8fca06p-2"),
        ("-0x1.248c5166f60afp-1", "0x1.ccd2e195679abp-2"),
        ("-0x1.06486de6465c7p-2", "0x1.b25eb749abef7p-2"),
        ("0x1.722b58ae4088ep-4", "0x1.4466cc9ad01d5p-2"),
        ("0x1.b49538c30d5edp-2", "0x1.743d28e734a5fp-3"),
        ("0x1.6c2b407d6ea60p-1", "0x1.24568ed7e20e6p-4"),
        ("0x1.d24b79f6f42d2p-1", "0x1.afe846f5003fbp-7")),
    9: (("-0x1.f13ddf8f9b284p-1", "0x1.29307cd64afe0p-3"),
        ("-0x1.b3d3cac7db562p-1", "0x1.3799a35c31523p-2"),
        ("-0x1.4ba81345ff092p-1", "0x1.93981e02ec6dep-2"),
        ("-0x1.85cd00fca2779p-2", "0x1.9add68efc7908p-2"),
        ("-0x1.3789d97462c11p-4", "0x1.59881c9782906p-2"),
        ("0x1.e3cee5c1c38f9p-3", "0x1.de6c2efae1a3bp-3"),
        ("0x1.0d2179fb6c65bp-1", "0x1.048b8b8518205p-3"),
        ("0x1.87164ddf01ec5p-1", "0x1.8b2ea5ff1330cp-5"),
        ("0x1.dadf3b5dc4bd3p-1", "0x1.1dd915d26afd1p-7")),
    10: (("-0x1.f3cbde803ee0ep-1", "0x1.ed267ca5b0fdep-4"),
        ("-0x1.c0c94ec8b17ccp-1", "0x1.0751f7a2b5e69p-2"),
        ("-0x1.695b9dbba9d7dp-1", "0x1.611f19b49a33ep-2"),
        ("-0x1.e9251da413eabp-2", "0x1.7bafbcec95f4ep-2"),
        ("-0x1.af8e20bed564ap-3", "0x1.5a588e4c43201p-2"),
        ("0x1.2cf6c6a7d03a8p-4", "0x1.0e8dab7584542p-2"),
        ("0x1.685591e68241cp-2", "0x1.638c651349d9ap-3"),
        ("0x1.3433d17a8e2dep-1", "0x1.75238f5e2d7b1p-4"),
        ("0x1.9b5a200c0298bp-1", "0x1.13e25f8fad621p-5"),
        ("0x1.e14011c3be583p-1", "0x1.88fd9f7011580p-8")),
    11: (("-0x1.f5bdc494383ecp-1", "0x1.9f9e56a91778ap-4"),
        ("-0x1.cab737fcb4618p-1", "0x1.c20d87170d1dap-3"),
        ("-0x1.8063d15e34ff9p-1", "0x1.35bd5e153db6ap-2"),
        ("-0x1.1bcfac021a8d2p-1", "0x1.5ac3d6c95c874p-2"),
        ("-0x1.47a9cd8b11047p-2", "0x1.4f607658f3e91p-2"),
        ("-0x1.050444b81667ap-4", "0x1.1ccd749d57dcfp-2"),
        ("0x1.9371e23584676p-3", "0x1.a6a2ecdaff402p-3"),
        ("0x1.c712840d5d23ap-2", "0x1.0b6648f40e80ep-3"),
        ("0x1.52c3c3325477ep-1", "0x1.11044d70803dep-4"),
        ("0x1.aaf723a825316p-1", "0x1.8c182add6817ep-6"),
        ("0x1.e61eac0bc3b80p-1", "0x1.16d580f407917p-8")),
    12: (("-0x1.f74189b858059p-1", "0x1.62f5033ed0f34p-4"),
        ("-0x1.d27ca0594c726p-1", "0x1.84876a259ba3bp-3"),
        ("-0x1.9294bc80e621ap-1", "0x1.10d23d7a26756p-2"),
        ("-0x1.3b3cc1039c057p-1", "0x1.3af7ee9af2d10p-2"),
        ("-0x1.a30f58d1d44a1p-2", "0x1.3e3e7e3be0b5ep-2"),
        ("-0x1.6e6847eb4c14fp-3", "0x1.1f2af8a6f186ap-2"),
        ("0x1.fb1945653f17cp-5", "0x1.cfc7d5e808aacp-3"),
        ("0x1.3261d363358acp-2", "0x1.4b614437b0a15p-3"),
        ("0x1.09d44a925ae5cp-1", "0x1.9794c79267868p-4"),
        ("0x1.6b0fd270bc6cbp-1", "0x1.9780ce54ce1b3p-5"),
        ("0x1.b73c99233b8fcp-1", "0x1.234b801e911fdp-6"),
        ("0x1.e9eba26f793a5p-1", "0x1.966b324c88602p-9")),
    13: (("-0x1.f87566a2c935ap-1", "0x1.329f460745cb9p-4"),
        ("-0x1.d8ae28878b120p-1", "0x1.527eed7705da2p-3"),
        ("-0x1.a12eb7a89ba93p-1", "0x1.e2f35e6fd0922p-3"),
        ("-0x1.54bc269f66be9p-1", "0x1.1d8bdea5ccfa8p-2"),
        ("-0x1.ee56c7f58b50cp-2", "0x1.2a647180f1853p-2"),
        ("-0x1.1a5ada9e8b444p-2", "0x1.19de5009b23f4p-2"),
        ("-0x1.c12d6b60c5d3cp-5", "0x1.e450a2b891de0p-3"),
        ("0x1.59e1e9fd0f643p-3", "0x1.78cc24b83e89fp-3"),
        ("0x1.896c3fff50f48p-2", "0x1.05a04c0cd4ca7p-3"),
        ("0x1.291eec8c8e4bep-1", "0x1.3acd2d698cc42p-4"),
        ("0x1.7ea9daf0c984ap-1", "0x1.359f52cfa5100p-5"),
        ("0x1.c10c8e4955bd2p-1", "0x1.b590bf9bd6b30p-7"),
        ("0x1.ecf1678ba50d9p-1", "0x1.2f117524bad69p-9")),
}


@_one_rule_per_degree
def triangle_quadrature(exact_degree):
    """Positive-weight interior rule on the reference triangle.

    Exact for all polynomials of total degree ``exact_degree``.  The
    Gauss-Jacobi factor is read from :data:`_GAUSS_JACOBI`, a fixed table
    (the Gauss-Legendre factor is numpy's ``leggauss``), so a rule does
    not depend on the installed scipy.
    """
    n = max(1, (exact_degree + 2) // 2)  # ceil((exact_degree + 1) / 2)
    tj, wj = np.array([[float.fromhex(v) for v in pair] for pair in _GAUSS_JACOBI[n]]).T
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


def _power_planes(z, top):
    """``[z**0, z**1, ..., z**top]``: the scalar ``1.0``, ``z``, then one array per power.

    Each ``p >= 2`` is ``np.power`` with a full float exponent array, so it
    is numpy's vectorized float ``pow`` loop and holds the bits of
    ``z ** p`` with an integer exponent array.  A scalar or one-element
    exponent (``z**2``) would take numpy's ``square`` fast path, which is
    not ``pow`` and rounds about 1 % of the entries differently.  ``p = 0``
    and ``p = 1`` are exact without ``pow``.
    """
    planes = [1.0, z]
    if top >= 2:
        exponent = np.empty(z.shape)
        for p in range(2, top + 1):
            exponent.fill(p)
            planes.append(np.power(z, exponent))
    return planes


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
            gram = _einsum("eqi,eqj,eq->eij", V, V, w)
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
        by ``h**(dx + dy)``, with exponents clipped at 0 where ``fac`` is 0,
        evaluated in that order.  Each power is formed once per call, as one
        plane over the points per axis (see :func:`_power_planes`), and each
        column is written from one plane of each axis; the bits are those of
        the one-``pow``-per-column formula.
        """
        extra = pts.ndim - 2
        c = self.centers[elements].reshape((-1,) + (1,) * extra + (2,))
        s = self.scales[elements].reshape((-1,) + (1,) * extra)
        xi = (pts[..., 0] - c[..., 0]) / s
        eta = (pts[..., 1] - c[..., 1]) / s
        a = np.maximum(self.exps[:, 0] - dx, 0)
        b = np.maximum(self.exps[:, 1] - dy, 0)
        X = _power_planes(xi, a.max())
        Y = _power_planes(eta, b.max())
        V = np.empty(xi.shape + (self.dim,))
        if not (dx or dy):  # the factor is all ones
            for j in range(self.dim):
                np.multiply(X[a[j]], Y[b[j]], out=V[..., j])
            return V
        fac = _falling(self.exps[:, 0], dx) * _falling(self.exps[:, 1], dy)
        scale = s ** (dx + dy)
        for j in range(self.dim):
            col = V[..., j]
            np.multiply(fac[j], X[a[j]], out=col)
            col *= Y[b[j]]
            col /= scale
        return V

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
        return _einsum("e...m,emn->e...n", V, self.coeff[elements])


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

    ``(x, y)`` maps to ``p0 + x (p1 - p0) + y (p2 - p0)``, summed in that
    order.  The result is a view of a coordinate-major (2, ne, n) array,
    so each coordinate is one contiguous (ne, n) plane.
    """
    x, y = ref[:, 0], ref[:, 1]
    out = np.empty((2, p.shape[0], x.size))
    for c, plane in enumerate(out):
        p0 = p[:, 0, c, None]
        np.multiply(p[:, 1, c, None] - p0, x, out=plane)
        plane += p0
        plane += (p[:, 2, c, None] - p0) * y
    return np.moveaxis(out, 0, -1)


def _edge_points(mesh, t, edges=slice(None)):
    """Physical points of reference parameters ``t`` on ``edges``, (..., len(t), 2).

    All edges by default, or edge ids of any shape; each edge's points
    do not depend on the others.  The point of ``t`` is ``mid + t half``
    with the edge's midpoint and half its vector; as in
    :func:`_affine_map`, each coordinate is one contiguous plane.
    """
    lo = mesh.vertices[mesh.edges[edges, 0]]
    hi = mesh.vertices[mesh.edges[edges, 1]]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    out = np.empty((2,) + mid.shape[:-1] + t.shape)
    for c, plane in enumerate(out):
        np.multiply(half[..., c, None], t, out=plane)
        plane += mid[..., c, None]
    return np.moveaxis(out, 0, -1)


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
        out[e] = _einsum("eqn,eq,eq->en", V, vals, w)

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
        return _einsum("eqn,eq,eq->en", X, vals, w)
    return _einsum("eqn,ceq,eq->ecn", X, vals, w)


def eval_element_poly(mesh, degree, coeffs, pts, dx=0, dy=0, elements=slice(None)):
    """Evaluate per-element polynomials given orthonormal coefficients.

    ``pts`` and ``coeffs`` are aligned with ``elements`` (all by default).
    """
    V = get_tri_basis(mesh, degree).eval(pts, dx=dx, dy=dy, elements=elements)
    return _einsum("e...n,en->e...", V, coeffs)


def eval_edge_poly(mesh, degree, coeffs, t):
    """Evaluate per-edge polynomials at reference parameters ``t``."""
    X = edge_basis(mesh, degree, t)
    return _einsum("eqn,e...n->e...q", X, coeffs)
