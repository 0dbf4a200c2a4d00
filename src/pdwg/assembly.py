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

Only the functions that build sparse matrices import ``scipy.sparse``,
so ``import pdwg``, meshes, spaces and problems load numpy alone and the
first assembly loads ``scipy.sparse``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import _write_text
from .polyquad import (
    GEOMETRY_EDGE_DEGREE,
    GEOMETRY_TRI_DEGREE,
    _einsum,
    _evaluate,
    _for_chunks,
    edge_basis,
    edge_quadrature,
    get_edge_rule,
    get_element_rule,
    get_tri_basis,
)
from .wgspace import (
    _element_edge_traces,
    _v0_columns,
    build_dof_map,
    weak_hessian_local,
)

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
    near-interface point.  An entry may return a scalar or any array that
    broadcasts to ``x``.  ``a12`` serves as both off-diagonal entries,
    so the tensor is symmetric by construction.  Assembly calls the
    entries, and the source ``f``, on one chunk of elements at a time
    from several threads at once, so they must be pointwise, the value
    at a point depending only on its coordinates and region tag and not
    on the other points of the call, and must not change shared state.
    """

    a11: object
    a12: object
    a22: object

    def entries(self, x, y, region=None):
        """Evaluate all four entries, broadcast over the inputs.

        ``"12"`` and ``"21"`` are the same array, from one call of ``a12``.
        """
        a11, a12, a22 = (
            _evaluate(getattr(self, name), x, y, f"coefficient {name}", region=region)
            for name in ("a11", "a12", "a22")
        )
        return {"11": a11, "12": a12, "21": a12, "22": a22}


def constant_coefficients(matrix):
    """CoefficientField with constant entries from a symmetric 2x2 matrix."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (2, 2) or not np.isclose(m[0, 1], m[1, 0]):
        raise ValueError("expected a symmetric 2x2 matrix")

    def entry(v):
        return lambda x, y, region=None: v

    return CoefficientField(a11=entry(m[0, 0]), a12=entry(m[0, 1]), a22=entry(m[1, 1]))


@dataclass(frozen=True, eq=False)
class SaddleSystem:
    """The blocks of ``[[S, B^T], [B, 0]] [u; lam] = [0; F]`` plus Dirichlet data.

    ``S`` is exactly symmetric positive semidefinite, ``B`` is the
    constraint block, ``F`` the multiplier right-hand side.  The
    ``constrained`` primal DOFs carry ``constrained_values``, the
    boundary data of :func:`apply_dirichlet`; the solver eliminates them
    from ``S`` and ``B``.  Only :func:`dump_system` forms the block matrix.
    :func:`build_saddle` builds a complete system in one step.
    """

    S: "scipy.sparse.csr_matrix"
    B: "scipy.sparse.csr_matrix"
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


def _index_dtype(maxval):
    """The index type scipy gives a sparse matrix whose indices reach ``maxval``."""
    return np.int32 if maxval <= np.iinfo(np.int32).max else np.int64


def _slot_map(ids, pairs, n_rows):
    """Where ``coo_matrix(...).tocsr()`` puts each per-element entry.

    With ``(a, b) = pairs`` in row-major order, entry ``i`` of element
    ``e`` lies in row ``ids[e, a[i]]``.  scipy's COO-to-CSR conversion is
    a stable counting sort by row, so among one row's entries it keeps
    the element-major order of the triplets; the slot of entry ``(e, i)``
    in its unsummed arrays is ``base[e, a[i]] + within[i]``.
    ``base[e, l]`` is ``indptr[ids[e, l]]`` plus the entries of that row
    from earlier elements; ``within[i]`` is the rank of pair ``i`` among
    the pairs of local row ``a[i]``.  The DOFs of one element are
    distinct, so no two of its local rows share a row.  The columns must
    lie below ``n_rows``, as in S.  Returns ``(indptr, base, within)`` in
    the index type of the unsummed arrays.
    """
    a = pairs[0]
    nt, nloc = ids.shape
    idx = _index_dtype(max(nt * a.size, n_rows))
    # Entries per incidence (e, l): the pairs of local row l.
    per_row = np.broadcast_to(np.bincount(a, minlength=nloc), ids.shape).ravel()
    flat = ids.ravel()
    order = np.argsort(flat.astype(idx), kind="stable")  # int32 keys sort faster
    ends = np.cumsum(per_row[order])
    base = np.empty(flat.size, dtype=idx)
    base[order] = ends - per_row[order]
    indptr = np.zeros(n_rows + 1, dtype=idx)
    counts = np.bincount(flat, weights=per_row, minlength=n_rows)
    np.cumsum(counts.astype(idx), out=indptr[1:])
    within = (np.arange(a.size) - np.searchsorted(a, a)).astype(idx)
    return indptr, base.reshape(nt, nloc), within


def _summed_csr(data, indices, indptr, shape):
    """CSR matrix of unsummed CSR arrays, duplicates summed and exact zeros dropped in place.

    Each row must hold its entries in the order in which
    ``coo_matrix(...).tocsr()`` holds them before it sums duplicates
    (see :func:`_slot_map`); scipy's own ``sum_duplicates``, then
    ``eliminate_zeros``, then give that conversion's bits.  The matrix
    keeps the memory of ``data`` and ``indices``, shrunk in place to the
    entries kept, so nothing else may hold a view of them.
    """
    import scipy.sparse as sp
    M = sp.csr_matrix((data, indices, indptr), shape=shape)
    M.sum_duplicates()
    M.eliminate_zeros()
    nnz = M.nnz
    for name in ("data", "indices"):
        owner = getattr(M, name).base
        if owner is not None and owner.size > nnz:
            # M holds a view of the first nnz entries of the argument, or
            # of scipy's copy of it.  Hold the array itself, shrunk in
            # place: a copy would hold the unsummed and summed entries at
            # once.
            setattr(M, name, owner)
            owner.resize(nnz, refcheck=False)
    return M


def _mismatches(config):
    """The boundary mismatches of the stabilizer and the columns they read.

    Yields ``(p, (dx, dy), cols)``: on local edge ``ledge`` the mismatch
    is ``d^(dx, dy) v0`` minus the trace block ``cols[ledge]``, weighted
    ``h_T**-p``: ``d_c v0 - vg_c`` for c = x, y (p = 1), then
    ``v0 - vb`` (p = 3) where the space has a value trace.
    """
    for comp, d in enumerate(((1, 0), (0, 1))):
        yield 1, d, [config.vg(ledge, comp) for ledge in range(3)]
    if config.nb:
        yield 3, (0, 0), [config.vb(ledge) for ledge in range(3)]


def _coupled_pairs(config):
    """Local pairs ``(a, b)`` that some mismatch couples, in row-major order.

    A mismatch on one edge reads only ``v0`` and that edge's trace block,
    so every other entry of a local stabilizer block is a structural zero.
    """
    mask = np.zeros((config.nloc, config.nloc), dtype=bool)
    for _, _, cols in _mismatches(config):
        for trace in cols:
            support = np.r_[config.v0, trace]
            mask[np.ix_(support, support)] = True
    return np.nonzero(mask)


def _edge_jumps(mesh, config, elements=slice(None)):
    """Edge weights and the boundary-mismatch operators of the stabilizer.

    Returns ``(we, jumps)`` for ``elements`` (all by default): ``we``
    (ne, 3, nq) are the element-edge quadrature weights, and ``jumps``
    yields one ``(p, J)`` pair per mismatch of :func:`_mismatches`, in
    which ``J`` (ne, 3, nq, nloc) maps an element-local DOF vector to the
    mismatch at the edge quadrature points, weighted ``h_T**-p`` in the
    stabilizer.  The operators are built one by one as the caller
    iterates, so the three are never held at once.
    """
    tb = get_tri_basis(mesh, config.k)
    pe, we, Xg, Xb = _element_edge_traces(mesh, config, elements)

    def jumps():
        for p, (dx, dy), cols in _mismatches(config):
            J = np.zeros(we.shape + (config.nloc,))
            V = tb.eval(pe, dx=dx, dy=dy, elements=elements)
            J[:, :, :, config.v0] = _v0_columns(mesh, config, V, elements)
            X = Xg if p == 1 else Xb
            for ledge in range(3):
                J[:, ledge, :, cols[ledge]] = -X[:, ledge]
            yield p, J

    return we, jumps()


def stabilizer_local_parts(mesh, dofmap, elements=slice(None)):
    """Local stabilizer blocks, (ne, nloc, nloc) for ``elements`` (all by default).

    The block of element ``T`` is the sum over the mismatches of
    :func:`_mismatches` of ``h_T**-p`` times their Gram matrices; the
    Grams of one weight are summed before they are divided by ``h_T**p``.
    :func:`assemble_stabilizer` asks for one chunk of elements at a time.
    """
    we, jumps = _edge_jumps(mesh, dofmap.config, elements)
    h = mesh.h_t[elements, None, None]
    grams = {}
    for p, J in jumps:
        gram = _einsum("etql,etqm,etq->elm", J, J, we)
        if p in grams:
            gram += grams[p]
        grams[p] = gram
    local = None
    for p, gram in grams.items():
        gram /= h**p
        local = gram if local is None else np.add(local, gram, out=local)
    return local


def stabilizer_energy(mesh, dofmap, primal):
    """Stabilizer energy ``s(v, v)`` evaluated through pointwise jumps.

    Forms the boundary mismatches (interior trace minus independent
    trace unknown) at edge quadrature points, then squares — unlike the
    assembled quadratic form, no cancellation of large terms occurs, so
    conforming inputs give the square of a round-off mismatch, far below
    the cancellation floor of ``v @ (S @ v)``.  The mismatches are formed
    one chunk of elements at a time; each one's weighted squares are
    summed over the whole mesh at once.
    """
    loc = dofmap.local_vectors(np.asarray(primal, dtype=float))
    nt = mesh.n_triangles
    h = mesh.h_t[:, None, None]
    nq = edge_quadrature(GEOMETRY_EDGE_DEGREE(dofmap.config.k)).weights.size
    squares = [np.empty((nt, 3, nq)) for _ in _mismatches(dofmap.config)]

    def chunk(e):
        we, jumps = _edge_jumps(mesh, dofmap.config, e)
        for m, (p, J) in enumerate(jumps):
            jump = _einsum("etql,el->etq", J, loc[e])
            squares[m][e] = (jump**2 * we) / h[e] ** p

    _for_chunks(nt, chunk)
    energy = 0.0
    for sq in squares:
        energy += float(np.sum(sq))
    return energy


def assemble_stabilizer(mesh, dofmap):
    """Global stabilizer matrix S (symmetric PSD, CSR).

    Built one chunk of elements at a time: the chunk's local blocks of
    :func:`stabilizer_local_parts` are averaged with their transposes at
    the local pairs of :func:`_coupled_pairs`; every other local entry is
    a structural zero and is never stored.  Each chunk writes its
    averaged entries and their columns straight into the unsummed CSR
    arrays, at the slots of :func:`_slot_map`; chunks write disjoint
    slots.  Summing the duplicates in place gives the bits of a COO
    scatter of the same entries, and the exact zeros are dropped.  S
    needs no global symmetrization: each averaged block is exactly
    symmetric, and two distinct DOFs share at most two elements, so an
    off-diagonal entry sums at most two terms and ``a + b == b + a``.
    The temporaries are one chunk's Gram blocks and the slot map; the
    unsummed arrays become S's own, shrunk in place.
    """
    nt, n, nloc = mesh.n_triangles, dofmap.n_primal, dofmap.config.nloc
    a, b = pairs = _coupled_pairs(dofmap.config)
    indptr, base, within = _slot_map(dofmap.element_primal, pairs, n)
    ids = dofmap.element_primal.astype(indptr.dtype)
    data = np.empty(nt * a.size)
    indices = np.empty(nt * a.size, dtype=indptr.dtype)
    # Flat positions of the pairs (a, b) and (b, a) in one local block.
    ab, ba = a * nloc + b, b * nloc + a

    def chunk(e):
        local = stabilizer_local_parts(mesh, dofmap, e).reshape(-1, nloc * nloc)
        block = np.add(np.take(local, ab, axis=1), np.take(local, ba, axis=1))
        block *= 0.5
        slots = np.take(base[e], a, axis=1)
        slots += within
        data[slots] = block
        indices[slots] = np.take(ids[e], b, axis=1)

    _for_chunks(nt, chunk)
    return _summed_csr(data, indices, indptr, (n, n))


def assemble_constraint(mesh, dofmap, coeff, f, quad_degree):
    """Constraint block ``B`` and load vector ``F``.

    ``B[n, :] v`` equals ``sum_ij (a_ij D_ij(v), sigma_n)_T`` over the
    owning element of multiplier basis function ``sigma_n``;
    ``F[n] = (f, sigma_n)_T``.  Coefficients and ``f`` are evaluated at
    interior quadrature points as ``fn(x, y, region=region)`` with the
    element region tags, by a rule of degree at least ``quad_degree``
    and at least ``GEOMETRY_TRI_DEGREE(k)``, one chunk of elements at a
    time, together with that chunk's weak Hessians.  Multipliers are
    numbered element by element, so the local blocks, in element order
    and each with its columns in ascending global order, are already B's
    CSR data in canonical form (sorted, no duplicates), and B keeps their
    memory.  ``F`` is the local loads in the same order.
    """
    import scipy.sparse as sp
    config = dofmap.config
    qd = max(quad_degree, GEOMETRY_TRI_DEGREE(config.k))
    nt, ns, nloc = mesh.n_triangles, config.ns, config.nloc

    sb = get_tri_basis(mesh, config.mult_degree)
    region = mesh.region_tags[:, None]

    B_local = np.empty((nt, ns, nloc))
    F_local = np.empty((nt, ns))

    def chunk(e):
        pts, w = get_element_rule(mesh, qd, e)
        x, y = pts[..., 0], pts[..., 1]
        VS = sb.eval(pts, elements=e)
        a = coeff.entries(x, y, region[e])
        # a["21"] is a["12"], so D_12 and D_21 share one contraction.
        M = {ij: _einsum("eqn,eqm,eq,eq->enm", VS, VS, a[ij], w)
             for ij in ("11", "12", "22")}
        local = np.zeros(B_local[e].shape)
        for (i, j), H in weak_hessian_local(mesh, config, e).items():
            local += M[f"{min(i, j)}{max(i, j)}"] @ H
        # The DOFs of one element are distinct, so ascending order is unique.
        order = np.argsort(dofmap.element_primal[e], axis=1)
        B_local[e] = np.take_along_axis(local, order[:, None, :], axis=2)

        fvals = _evaluate(f, x, y, "right-hand side", region=region[e])
        F_local[e] = _einsum("eqn,eq,eq->en", VS, fvals, w)

    _for_chunks(nt, chunk)
    # Row n of element e is row e * ns + n; its columns are the element's DOFs, ascending.
    idx = _index_dtype(max(B_local.size, dofmap.n_mult, dofmap.n_primal))
    cols = dofmap.element_primal.astype(idx)
    cols.sort(axis=1)
    indptr = np.arange(0, B_local.size + 1, nloc, dtype=idx)
    B = sp.csr_matrix((B_local.reshape(-1), np.repeat(cols, ns, axis=0).reshape(-1), indptr),
                      shape=(dofmap.n_mult, dofmap.n_primal))
    # + 0.0 turns -0 into +0, as a sum into zeros would.
    F = F_local.ravel() + 0.0
    return B, F


def apply_dirichlet(dofmap, mesh, g, quad_degree):
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
        values[:] = _evaluate(g, coords[:, 0], coords[:, 1], "boundary data")
    else:
        bedges = mesh.boundary_edges
        pts, w, t = get_edge_rule(mesh, max(quad_degree, GEOMETRY_EDGE_DEGREE(k)), bedges)
        gvals = _evaluate(g, pts[..., 0], pts[..., 1], "boundary data")
        X = edge_basis(mesh, k, t, bedges)
        values[:] = _einsum("eqn,eq,eq->en", X, gvals, w).ravel()
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


def _saddle_csr(S, B):
    """``[[S, B^T], [B, 0]]`` in CSR, stacked without COO: ``B`` widened stands for ``[B, 0]``."""
    import scipy.sparse as sp
    lower = sp.csr_matrix((B.data, B.indices, B.indptr), shape=(B.shape[0], sum(B.shape)))
    return sp.vstack([sp.hstack([S, B.T.tocsr()], format="csr"), lower], format="csr")


def dump_system(system, target):
    """Write the block matrix ``[[S, B^T], [B, 0]]`` as ASCII coordinate triplets.

    First line ``n_primal n_multiplier nnz``, then one ``row col value``
    line per stored entry, sorted by row then column, values with 17
    significant digits.
    """
    K = _saddle_csr(system.S, system.B).tocoo()
    lines = [f"{system.n_primal} {system.n_mult} {K.nnz}"]
    for r, c, v in zip(K.row, K.col, K.data):
        lines.append(f"{r} {c} {v:.17g}")
    _write_text("\n".join(lines) + "\n", target)
