"""Assembly of the stabilized saddle-point system.

The discrete problem couples the primal weak field ``u`` with an
element-wise polynomial multiplier ``lam`` through

* the stabilizer ``s(u, v)``, a symmetric positive semidefinite form
  penalizing, edge by edge, the mismatch ``u0 - ub`` (weighted
  ``h_T**-3``) and ``grad u0 - ug`` (weighted ``h_T**-1``); in the C0
  variant the first mismatch vanishes identically and only the gradient
  term is assembled;
* the constraint form ``b(v, sigma) = sum_ij (a_ij D_ij(v), sigma)_T``
  built from the discrete weak Hessians and the coefficient tensor.

The assembled block system reads::

    [ S  B^T ] [ u   ]   [ boundary terms ]
    [ B  0   ] [ lam ] = [ F + boundary terms ]

with Dirichlet data imposed strongly: constrained DOFs (boundary ``vb``
blocks, or boundary Lagrange nodes in the C0 variant) are fixed to
projected/interpolated boundary values and eliminated symmetrically at
solve time, their contributions moved to the right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import _write_text
from .polyquad import (
    DATA_DEGREE_DEFAULT,
    GEOMETRY_EDGE_DEGREE,
    GEOMETRY_TRI_DEGREE,
    get_edge_basis,
    get_edge_rule,
    get_element_rule,
    get_tri_basis,
)
from .wgspace import _element_edge_traces, build_dof_map, nodal_to_modal, weak_hessian_local

__all__ = [
    "CoefficientField",
    "constant_coefficients",
    "SaddleSystem",
    "stabilizer_local_parts",
    "stabilizer_energy",
    "assemble_stabilizer",
    "assemble_constraint",
    "apply_dirichlet",
    "build_saddle",
    "dump_system",
]


@dataclass(frozen=True)
class CoefficientField:
    """Symmetric 2x2 coefficient tensor of the operator.

    Entries are vectorized evaluators called as ``a(x, y, region=region)``;
    ``region`` carries the element region tags so that tensors jumping
    across region interfaces are evaluated by tag, never by the sign of a
    near-interface point.  ``a12`` serves as both off-diagonal entries,
    so the tensor is symmetric by construction.

    ``bounds`` optionally records ellipticity constants ``(alpha, beta)``
    with ``alpha |xi|^2 <= xi.a.xi <= beta |xi|^2``.
    """

    a11: object
    a12: object
    a22: object
    bounds: tuple | None = None

    def entries(self, x, y, region=None):
        """Evaluate all four entries, broadcast over the inputs.

        ``"12"`` and ``"21"`` are the same array, from one call of ``a12``.
        """
        shape = np.broadcast(x, y).shape
        a11, a12, a22 = (
            np.broadcast_to(np.asarray(fn(x, y, region=region), dtype=float), shape)
            for fn in (self.a11, self.a12, self.a22)
        )
        if not all(np.all(np.isfinite(v)) for v in (a11, a12, a22)):
            raise ValueError("coefficient evaluation returned a non-finite value")
        return {"11": a11, "12": a12, "21": a12, "22": a22}


def constant_coefficients(matrix):
    """CoefficientField with constant entries from a symmetric 2x2 matrix."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (2, 2) or not np.isclose(m[0, 1], m[1, 0]):
        raise ValueError("expected a symmetric 2x2 matrix")
    eig = np.linalg.eigvalsh(m)

    def entry(v):
        return lambda x, y, region=None: np.full(np.broadcast(x, y).shape, v)

    return CoefficientField(
        a11=entry(m[0, 0]),
        a12=entry(m[0, 1]),
        a22=entry(m[1, 1]),
        bounds=(float(eig[0]), float(eig[1])),
    )


@dataclass(frozen=True, eq=False)
class SaddleSystem:
    """Assembled block system plus Dirichlet bookkeeping.

    ``S`` is exactly symmetric positive semidefinite, ``B`` is the
    constraint block, ``F`` the multiplier right-hand side.  The
    ``constrained`` primal DOFs carry ``constrained_values``, the
    boundary data of :func:`apply_dirichlet`; the solver eliminates them
    symmetrically and moves their columns to the right-hand side.
    :func:`build_saddle` builds a complete system in one step.
    """

    S: sp.csr_matrix
    B: sp.csr_matrix
    F: np.ndarray
    constrained_values: np.ndarray
    dofmap: object
    mesh: object

    @property
    def n_primal(self):
        return self.dofmap.n_primal

    @property
    def n_mult(self):
        return self.dofmap.n_mult

    @property
    def constrained(self):
        return self.dofmap.constrained

    @property
    def n_total(self):
        return self.n_primal + self.n_mult

    def block_matrix(self):
        """Full symmetric block matrix [[S, B^T], [B, 0]] (CSR)."""
        return sp.bmat([[self.S, self.B.T], [self.B, None]], format="csr")

    def rhs(self):
        """Right-hand side before elimination: zeros stacked over F."""
        return np.concatenate([np.zeros(self.n_primal), self.F])


#: Elements per step of the stabilizer's Gram contractions and local
#: transposes.  Bounds their temporaries; each element's sums run in the
#: same order as over the whole mesh, so it does not change a bit of ``S``.
_GRAM_CHUNK = 1024


def _scatter(local, rows, cols, shape):
    """Accumulate per-element dense blocks into one CSR matrix.

    The row and column index arrays are built directly in the index type
    that ``coo_matrix`` keeps (int32 unless ``shape`` needs more), so the
    COO stage holds no wider copy of them.
    """
    idx = np.int32 if max(shape) <= np.iinfo(np.int32).max else np.int64
    r = np.broadcast_to(rows.astype(idx)[:, :, None], local.shape).ravel()
    c = np.broadcast_to(cols.astype(idx)[:, None, :], local.shape).ravel()
    mat = sp.coo_matrix((local.ravel(), (r, c)), shape=shape)
    return mat.tocsr()


def _edge_jumps(mesh, dofmap):
    """Edge weights and the boundary-mismatch operators of the stabilizer.

    Returns ``(we, jumps)``: ``we`` (nt, 3, nq) are the element-edge
    quadrature weights, and ``jumps`` yields ``(p, J)`` pairs in which
    ``J`` (nt, 3, nq, nloc) maps an element-local DOF vector to one
    mismatch at the edge quadrature points, weighted ``h_T**-p`` in the
    stabilizer: ``d_c v0 - vg_c`` for c = x, y (p = 1), then ``v0 - vb``
    (p = 3) outside the C0 variant.  The operators are built one by one
    as the caller iterates, so the three are never held at once.
    """
    config = dofmap.config
    k = config.k
    layout = dofmap.layout
    tb = get_tri_basis(mesh, k)
    pe, we, Xg, Xb = _element_edge_traces(mesh, config)
    shape = we.shape + (layout.nloc,)
    # The C0 variant's v0 block holds nodal values, not modal coefficients.
    trans = nodal_to_modal(mesh, k)[:, None] if config.c0_type else None

    def jumps():
        for comp, (dx, dy) in enumerate(((1, 0), (0, 1))):
            J = np.zeros(shape)
            grad = tb.eval(pe, dx=dx, dy=dy)
            J[:, :, :, layout.v0] = grad if trans is None else grad @ trans
            for ledge in range(3):
                J[:, ledge, :, layout.vg(ledge, comp)] = -Xg[:, ledge]
            yield 1, J
        if not config.c0_type:
            J = np.zeros(shape)
            J[:, :, :, layout.v0] = tb.eval(pe)
            for ledge in range(3):
                J[:, ledge, :, layout.vb(ledge)] = -Xb[:, ledge]
            yield 3, J

    return we, jumps()


def stabilizer_local_parts(mesh, dofmap):
    """Unweighted boundary-mismatch Gram blocks of the stabilizer.

    Returns ``(jump0, jump1)`` of shape (nt, nloc, nloc) such that the
    local stabilizer is ``h_T**-3 * jump0 + h_T**-1 * jump1``; ``jump0``
    is None in the C0 variant, where the value mismatch vanishes.
    """
    we, jumps = _edge_jumps(mesh, dofmap)
    nt, nloc = mesh.n_triangles, dofmap.layout.nloc
    jump0, jump1 = None, np.zeros((nt, nloc, nloc))
    for p, J in jumps:
        if p == 3:
            jump0 = np.empty_like(jump1)
        for start in range(0, nt, _GRAM_CHUNK):
            e = slice(start, start + _GRAM_CHUNK)
            gram = np.einsum("etql,etqm,etq->elm", J[e], J[e], we[e], optimize=True)
            if p == 1:
                jump1[e] += gram
            else:
                jump0[e] = gram
    return jump0, jump1


def stabilizer_energy(mesh, dofmap, primal):
    """Stabilizer energy ``s(v, v)`` evaluated through pointwise jumps.

    Forms the boundary mismatches (interior trace minus independent
    trace unknown) at edge quadrature points, then squares — unlike the
    assembled quadratic form, no cancellation of large terms occurs, so
    conforming inputs give the square of a round-off mismatch, far below
    the cancellation floor of ``v @ (S @ v)``.
    """
    loc = dofmap.local_vectors(np.asarray(primal, dtype=float))
    we, jumps = _edge_jumps(mesh, dofmap)
    energy = 0.0
    for p, J in jumps:
        jump = np.einsum("etql,el->etq", J, loc, optimize=True)
        energy += float(np.sum((jump**2 * we) / mesh.h_t[:, None, None] ** p))
    return energy


def assemble_stabilizer(mesh, dofmap):
    """Global stabilizer matrix S (symmetric PSD, CSR).

    Each element block ``h**-3 * jump0 + h**-1 * jump1`` is averaged
    with its transpose, the blocks are scattered, and the scattered
    matrix is averaged with its transpose; exact zeros of that sum are
    dropped.  Every step runs in place on the Gram blocks of
    :func:`stabilizer_local_parts` or on the scattered matrix, so no
    second set of blocks is ever held: the scratch memory is the
    scatter's int32 index arrays, the COO-to-CSR conversion and one
    transposed copy of S.
    """
    jump0, local = stabilizer_local_parts(mesh, dofmap)
    h = mesh.h_t[:, None, None]
    local /= h
    if jump0 is not None:
        jump0 /= h**3
        jump0 += local
        local = jump0
    for start in range(0, mesh.n_triangles, _GRAM_CHUNK):
        block = local[start : start + _GRAM_CHUNK]
        block += block.transpose(0, 2, 1).copy()
        block *= 0.5
    S = _scatter(local, dofmap.element_primal, dofmap.element_primal,
                 (dofmap.n_primal, dofmap.n_primal))
    del local
    # Rows and columns scatter through the same ids, so S and S.T
    # share one sorted pattern and their data line up entry by entry.
    T = S.T.tocsr()
    T.sort_indices()
    S.data += T.data
    del T
    S.eliminate_zeros()
    S.data *= 0.5
    return S


def assemble_constraint(mesh, dofmap, coeff, f, quad_degree=DATA_DEGREE_DEFAULT):
    """Constraint block ``B`` and load vector ``F``.

    ``B[n, :] v`` equals ``sum_ij (a_ij D_ij(v), sigma_n)_T`` over the
    owning element of multiplier basis function ``sigma_n``;
    ``F[n] = (f, sigma_n)_T``.  Coefficients and ``f`` are evaluated at
    interior quadrature points as ``fn(x, y, region=region)`` with the
    element region tags, by a rule of degree at least ``quad_degree``
    and at least ``GEOMETRY_TRI_DEGREE(k)``.
    """
    config = dofmap.config
    qd = max(quad_degree, GEOMETRY_TRI_DEGREE(config.k))

    hess = weak_hessian_local(mesh, config)
    sb = get_tri_basis(mesh, config.mult_degree)
    pts, w = get_element_rule(mesh, qd)
    region = mesh.region_tags[:, None]
    x, y = pts[..., 0], pts[..., 1]

    VS = sb.eval(pts)
    a = coeff.entries(x, y, region)
    B_local = np.zeros((mesh.n_triangles, dofmap.ns, dofmap.layout.nloc))
    for (i, j), H in hess.items():
        M = np.einsum("eqn,eqm,eq,eq->enm", VS, VS, a[f"{i}{j}"], w, optimize=True)
        B_local += M @ H

    fvals = np.asarray(f(x, y, region=region), dtype=float)
    fvals = np.broadcast_to(fvals, x.shape)
    if not np.all(np.isfinite(fvals)):
        raise ValueError("right-hand side evaluation returned a non-finite value")
    F_local = np.einsum("eqn,eq,eq->en", VS, fvals, w, optimize=True)

    B = _scatter(B_local, dofmap.element_mult, dofmap.element_primal,
                 (dofmap.n_mult, dofmap.n_primal))
    F = np.zeros(dofmap.n_mult)
    np.add.at(F, dofmap.element_mult.ravel(), F_local.ravel())
    return B, F


def apply_dirichlet(dofmap, mesh, g, quad_degree=DATA_DEGREE_DEFAULT):
    """Strongly-imposed boundary values of the constrained DOFs.

    Returns one value per entry of ``dofmap.constrained``.  General
    variant: every boundary-edge ``vb`` block is the edge-wise L2
    projection of ``g``, by a rule of degree at least ``quad_degree``
    and at least ``GEOMETRY_EDGE_DEGREE(k)``; ``constrained`` lists
    these blocks edge by edge in the ascending order of
    ``mesh.boundary_edges``.  C0 variant: boundary Lagrange nodes take
    ``g`` at the node coordinates.  Elimination happens at solve time.
    """
    k = dofmap.config.k
    values = np.zeros(dofmap.constrained.shape[0])
    if dofmap.config.c0_type:
        coords = dofmap.nodes.coords[dofmap.constrained]
        values[:] = np.asarray(g(coords[:, 0], coords[:, 1]), dtype=float)
    else:
        bedges = mesh.boundary_edges
        pts, w, t = get_edge_rule(mesh, max(quad_degree, GEOMETRY_EDGE_DEGREE(k)))
        pts, w = pts[bedges], w[bedges]
        gvals = np.asarray(g(pts[..., 0], pts[..., 1]), dtype=float)
        X = get_edge_basis(mesh, k).eval_ref(t)[bedges]
        values[:] = np.einsum("eqn,eq,eq->en", X, gvals, w, optimize=True).ravel()
    if not np.all(np.isfinite(values)):
        raise ValueError("boundary data evaluation returned a non-finite value")
    return values


def build_saddle(mesh, config, problem):
    """Assemble the full saddle system of a problem on one mesh.

    ``problem`` (a :class:`~pdwg.problems.ProblemSpec`) provides
    ``coeff``, ``f``, ``g`` and ``quad_degree``, the degree of the data
    integrals in ``B``, ``F`` and the boundary projection.  The
    returned system is complete, boundary values included.
    """
    dofmap = build_dof_map(mesh, config)
    S = assemble_stabilizer(mesh, dofmap)
    B, F = assemble_constraint(
        mesh, dofmap, problem.coeff, problem.f, quad_degree=problem.quad_degree
    )
    values = apply_dirichlet(dofmap, mesh, problem.g, quad_degree=problem.quad_degree)
    return SaddleSystem(S=S, B=B, F=F, constrained_values=values, dofmap=dofmap, mesh=mesh)


def dump_system(system, target):
    """Write the full block matrix as ASCII coordinate triplets.

    First line ``n_primal n_multiplier nnz``, then one ``row col value``
    line per stored entry, sorted by row then column, values with 17
    significant digits.
    """
    K = system.block_matrix().tocoo()
    order = np.lexsort((K.col, K.row))
    lines = [f"{system.n_primal} {system.n_mult} {K.nnz}"]
    for r, c, v in zip(K.row[order], K.col[order], K.data[order]):
        lines.append(f"{r} {c} {v:.17g}")
    _write_text("\n".join(lines) + "\n", target)
