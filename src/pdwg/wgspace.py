"""Weak Galerkin spaces, degree-of-freedom maps, and discrete weak Hessians.

A discrete weak function is a triplet ``v = {v0, vb, vg}``: an interior
polynomial of degree ``k`` per element, a polynomial of degree ``k`` per
edge, and a vector polynomial of degree ``k - 1`` per edge approximating
the trace of the gradient.  Two variants are supported:

* the general variant keeps all three blocks independent;
* the C0 variant drops ``vb`` and replaces the per-element interior
  polynomials by one globally continuous Lagrange field of degree ``k``,
  so ``vb`` is implicitly the trace of ``v0``.

The discrete weak second derivative of ``v`` on element ``T`` is the
polynomial ``D_ij(v)`` in the multiplier space ``S(T)`` defined by
testing against all ``phi`` in ``S(T)``::

    (D_ij(v), phi)_T = (v0, d_j d_i phi)_T - <vb n_i, d_j phi>_bnd(T)
                       + <vg_i, phi n_j>_bnd(T)

and in the C0 variant equivalently (after one integration by parts,
using that vb is the trace of v0)::

    (D_ij(v), phi)_T = -(d_i v0, d_j phi)_T + <vg_i, phi n_j>_bnd(T)

The multiplier space per element is either ``P_{k-2}`` or ``P_{k-1}``.
All operators are dense per-element matrices acting on the element-local
DOF vector, built for one chunk of elements at a time.  :class:`SpaceConfig`
is the one description of that vector's layout, and this module alone
turns the C0 variant's nodal ``v0`` values into orthonormal coefficients
(:func:`nodal_to_modal`); the other modules read the layout from the
config and never apply the nodal map.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .mesh import _per_mesh, outward_normals
from .polyquad import (
    GEOMETRY_EDGE_DEGREE,
    GEOMETRY_TRI_DEGREE,
    _affine_map,
    _einsum,
    _evaluate,
    _for_chunks,
    edge_basis,
    get_edge_rule,
    get_element_rule,
    get_tri_basis,
    project_edge,
    project_element,
    space_dim,
)

__all__ = [
    "SpaceConfig",
    "DofMap",
    "build_dof_map",
    "lagrange_nodes",
    "nodal_to_modal",
    "weak_hessian_local",
    "apply_weak_hessian",
    "project_weak",
    "interpolate_weak",
]

_MULTIPLIER_SPACES = ("pkm2", "pkm1")


@dataclass(frozen=True)
class SpaceConfig:
    """Discretization parameters and the layout of the element-local space.

    Parameters
    ----------
    k : int
        Polynomial degree of the primal field, at least 2.
    multiplier_space : {"pkm2", "pkm1"}
        Element multiplier space ``P_{k-2}`` or ``P_{k-1}``.
    c0_type : bool
        Use the continuous (C0) primal variant.

    The element-local primal DOF vector has ``nloc`` columns.  General
    variant: ``[v0 | vb edge0 | vb edge1 | vb edge2 | vg edge0 | vg edge1 |
    vg edge2]`` where each ``vg`` block stores the first component's
    coefficients then the second's.  C0 variant: the ``vb`` blocks are
    absent and the ``v0`` block holds Lagrange nodal values.  Each
    element has ``ns`` multiplier unknowns.
    """

    k: int = 2
    multiplier_space: str = "pkm1"
    c0_type: bool = True

    def __post_init__(self):
        try:
            k = operator.index(self.k)
        except TypeError:
            raise ValueError(f"polynomial degree k must be an integer, got {self.k!r}") from None
        if k < 2:
            raise ValueError(f"polynomial degree k must be >= 2, got {self.k}")
        if self.multiplier_space not in _MULTIPLIER_SPACES:
            raise ValueError(
                f"multiplier_space must be one of {_MULTIPLIER_SPACES}, "
                f"got {self.multiplier_space!r}"
            )

    @property
    def mult_degree(self):
        return self.k - 1 if self.multiplier_space == "pkm1" else self.k - 2

    @property
    def ns(self):
        return space_dim(self.mult_degree)

    @property
    def n0(self):
        return space_dim(self.k)

    @property
    def nb(self):
        return 0 if self.c0_type else self.k + 1

    @property
    def ng(self):
        return self.k  # per component

    @property
    def nloc(self):
        return self.n0 + 3 * self.nb + 6 * self.ng

    @property
    def v0(self):
        return slice(0, self.n0)

    def vb(self, ledge):
        if self.c0_type:
            raise ValueError("C0 variant has no vb block")
        start = self.n0 + ledge * self.nb
        return slice(start, start + self.nb)

    def vg(self, ledge, comp):
        start = self.n0 + 3 * self.nb + ledge * 2 * self.ng + comp * self.ng
        return slice(start, start + self.ng)


def _blocks(base, owners, width):
    """The ``width`` consecutive ids ``base + o * width + i`` of each owner ``o``.

    ``owners`` may have any shape; the ids are ``owners.shape + (width,)``.
    """
    return base + owners[..., None] * width + np.arange(width)


@dataclass(frozen=True, eq=False)
class LagrangeNodes:
    """Principal-lattice Lagrange nodes of degree k over a mesh.

    Node numbering: mesh vertices first, then ``k - 1`` nodes per edge
    ordered from the lower-id endpoint, then per-element interior nodes.
    """

    coords: np.ndarray  # (n_nodes, 2)
    element_nodes: np.ndarray  # (nt, n0) global node ids, local order
    boundary_nodes: np.ndarray  # sorted ids of nodes on the domain boundary

    @property
    def n_nodes(self):
        return self.coords.shape[0]


@_per_mesh
def lagrange_nodes(mesh, k):
    """Construct shared Lagrange nodes of degree ``k`` on a mesh."""
    nv, ne, nt = mesh.n_vertices, mesh.n_edges, mesh.n_triangles
    per_edge = k - 1
    lo = mesh.vertices[mesh.edges[:, 0]]
    hi = mesh.vertices[mesh.edges[:, 1]]
    frac = (np.arange(1, k) / k)[None, :, None]
    edge_coords = lo[:, None, :] + frac * (hi - lo)[:, None, :]

    # Lattice interior points (i, j >= 1, i + j <= k - 1) in fixed order.
    int_list = sorted((i, j) for i in range(1, k) for j in range(1, k - i))
    n_int = len(int_list)
    bary = np.array(int_list, dtype=float).reshape(-1, 2) / k
    int_coords = _affine_map(mesh.corners, bary)

    coords = np.vstack(
        [mesh.vertices, edge_coords.reshape(-1, 2), int_coords.reshape(-1, 2)]
    )
    n_nodes = nv + ne * per_edge + nt * n_int

    blocks = [
        mesh.triangles,
        _blocks(nv, mesh.tri_edges, per_edge).reshape(nt, -1),
        _blocks(nv + ne * per_edge, np.arange(nt), n_int),
    ]
    element_nodes = np.concatenate(blocks, axis=1).astype(np.int64)

    bmask = np.zeros(n_nodes, dtype=bool)
    bmask[: nv][mesh.boundary_vertices] = True
    bmask[_blocks(nv, mesh.boundary_edges, per_edge).ravel()] = True
    return LagrangeNodes(
        coords=coords,
        element_nodes=element_nodes,
        boundary_nodes=np.flatnonzero(bmask),
    )


@_per_mesh
def nodal_to_modal(mesh, k):
    """Per-element map from Lagrange nodal values to orthonormal coefficients."""
    nodes = lagrange_nodes(mesh, k)
    basis = get_tri_basis(mesh, k)
    out = np.empty((mesh.n_triangles, basis.dim, basis.dim))

    def chunk(e):
        out[e] = np.linalg.inv(basis.eval(nodes.coords[nodes.element_nodes[e]], elements=e))

    _for_chunks(mesh.n_triangles, chunk)
    return out


def _v0_columns(mesh, config, modal, elements):
    """An operator's ``v0`` columns from its columns ``modal`` on modal ``v0``.

    ``modal`` is (ne, ..., n0) for ``elements``.  The general variant's
    ``v0`` block holds the orthonormal coefficients, so its columns are
    ``modal``; the C0 variant's holds Lagrange nodal values, so they are
    ``modal`` times the elements' :func:`nodal_to_modal` maps.
    """
    if not config.c0_type:
        return modal
    trans = nodal_to_modal(mesh, config.k)[elements]
    return modal @ np.expand_dims(trans, tuple(range(1, modal.ndim - 2)))


def _modal_coefficients(mesh, k, nodal):
    """Orthonormal coefficients (nt, n0) of per-element Lagrange nodal values (nt, n0)."""
    return _einsum("emn,en->em", nodal_to_modal(mesh, k), nodal)


@dataclass(frozen=True, eq=False)
class DofMap:
    """Global numbering of primal and multiplier unknowns.

    Primal numbering, general variant: per-element interior blocks
    first, then per-edge ``vb`` blocks, then per-edge ``vg`` blocks.
    C0 variant: shared Lagrange nodes first, then per-edge ``vg``
    blocks.  Multiplier unknowns are numbered separately and element
    major: multiplier ``n`` of element ``e`` is ``e * ns + n``, which
    :func:`~pdwg.assembly.assemble_constraint` relies on.  Constrained
    DOFs are the boundary-edge ``vb`` blocks (general) or the boundary
    Lagrange nodes (C0); the gradient blocks ``vg`` are never
    constrained.  Only what cannot be derived is stored; the rest are
    properties.
    """

    config: SpaceConfig
    n_primal: int
    element_primal: np.ndarray  # (nt, nloc)
    constrained: np.ndarray  # sorted global primal ids
    vg_base: int
    nodes: LagrangeNodes | None  # C0 variant only

    @property
    def n_mult(self):
        return self.element_primal.shape[0] * self.config.ns

    @property
    def n_v0(self):
        if self.config.c0_type:
            return self.nodes.n_nodes
        return self.element_primal.shape[0] * self.config.n0

    @property
    def vb_base(self):
        return None if self.config.c0_type else self.n_v0

    def local_vectors(self, primal):
        """Gather (nt, nloc) element-local vectors from a global vector."""
        return np.asarray(primal)[self.element_primal]

    def u0_coefficients(self, primal, mesh):
        """Interior field as per-element orthonormal coefficients."""
        if self.config.c0_type:
            nodal = np.asarray(primal)[self.nodes.element_nodes]
            return _modal_coefficients(mesh, self.config.k, nodal)
        return np.asarray(primal)[: self.n_v0].reshape(-1, self.config.n0)

    def ub_coefficients(self, primal):
        """Per-edge trace coefficients (ne, k + 1); None in the C0 variant."""
        if self.config.c0_type:
            return None
        return np.asarray(primal)[self.vb_base : self.vg_base].reshape(-1, self.config.nb)

    def ug_coefficients(self, primal):
        """Per-edge gradient coefficients (ne, 2, k)."""
        return np.asarray(primal)[self.vg_base :].reshape(-1, 2, self.config.ng)


@_per_mesh
def build_dof_map(mesh, config):
    """Build the :class:`DofMap` of a mesh/config pair (cached on the mesh)."""
    n0, nb, ng = config.n0, config.nb, 2 * config.ng  # ng: per-edge gradient block
    nt, ne = mesh.n_triangles, mesh.n_edges

    if config.c0_type:
        nodes = lagrange_nodes(mesh, config.k)
        vg_base = nodes.n_nodes
        cols = [nodes.element_nodes]
        constrained = nodes.boundary_nodes
    else:
        nodes = None
        vb_base = nt * n0
        vg_base = vb_base + ne * nb
        cols = [np.arange(vb_base, dtype=np.int64).reshape(nt, n0),
                _blocks(vb_base, mesh.tri_edges, nb).reshape(nt, -1)]
        # Ascending because boundary_edges is; apply_dirichlet relies on it.
        constrained = _blocks(vb_base, mesh.boundary_edges, nb).ravel()
    cols.append(_blocks(vg_base, mesh.tri_edges, ng).reshape(nt, -1))
    return DofMap(
        config=config,
        n_primal=vg_base + ne * ng,
        element_primal=np.concatenate(cols, axis=1).astype(np.int64),
        constrained=np.asarray(constrained, dtype=np.int64),
        vg_base=vg_base,
        nodes=nodes,
    )


def _element_edge_traces(mesh, config, elements=slice(None)):
    """Edge quadrature of elements and the edge bases at their points.

    Returns ``(pe, we, Xg, Xb)`` for ``elements`` (all by default):
    points (ne, 3, nq, 2) and weights (ne, 3, nq) of the
    degree-``GEOMETRY_EDGE_DEGREE(k)`` rule on the three edges of each
    element, in local edge order, and the degree ``k - 1`` (``vg``) and
    degree ``k`` (``vb``) edge bases at those points, (ne, 3, nq, dim).
    ``Xb`` is None in the C0 variant, which has no ``vb`` block.
    """
    k = config.k
    g = mesh.tri_edges[elements]
    pe, we, t = get_edge_rule(mesh, GEOMETRY_EDGE_DEGREE(k), g)
    Xg = edge_basis(mesh, k - 1, t, g)
    Xb = None if config.c0_type else edge_basis(mesh, k, t, g)
    return pe, we, Xg, Xb


def weak_hessian_local(mesh, config, elements=slice(None)):
    """Per-element matrices of the four discrete weak second derivatives.

    Returns a dict whose entry ``(i, j)`` has shape (ne, dim S, nloc) for
    ``elements`` (all by default) and maps the element-local primal
    vector to the orthonormal coefficients of ``D_ij`` in the multiplier
    space.  Built on every call, not cached: :func:`assemble_constraint
    <pdwg.assembly.assemble_constraint>` asks for one chunk at a time.
    """
    k = config.k
    tb = get_tri_basis(mesh, k)
    sb = get_tri_basis(mesh, config.mult_degree)
    pts, w = get_element_rule(mesh, GEOMETRY_TRI_DEGREE(k), elements)
    pe, we, Xg, Xb = _element_edge_traces(mesh, config, elements)
    nrm = outward_normals(mesh)[elements]
    ne = nrm.shape[0]

    VS_tr = sb.eval(pe, elements=elements)
    # <vg_i, phi n_j>: moment of every vg basis function against phi.
    Mg = _einsum("etqm,etqr,etq->etmr", VS_tr, Xg, we)

    if config.c0_type:
        VSd_vol = {1: sb.eval(pts, dx=1, elements=elements),
                   2: sb.eval(pts, dy=1, elements=elements)}
        V0d = {1: tb.eval(pts, dx=1, elements=elements),
               2: tb.eval(pts, dy=1, elements=elements)}
    else:
        VS_d = {1: sb.eval(pe, dx=1, elements=elements),
                2: sb.eval(pe, dy=1, elements=elements)}
        Mb = {
            j: _einsum("etqm,etqr,etq->etmr", VS_d[j], Xb, we)
            for j in (1, 2)
        }
        V0 = tb.eval(pts, elements=elements)
        # v0 block by (dx, dy) of the multiplier basis; D_12 and D_21 share one.
        H0 = {}

    matrices = {}
    for i in (1, 2):
        for j in (1, 2):
            H = np.zeros((ne, sb.dim, config.nloc))
            if config.c0_type:
                A = -_einsum("eqm,eql,eq->eml", VSd_vol[j], V0d[i], w)
                H[:, :, config.v0] = _v0_columns(mesh, config, A, elements)
            else:
                dx = (i == 1) + (j == 1)
                dy = (i == 2) + (j == 2)
                if (dx, dy) not in H0:
                    VSd = sb.eval(pts, dx=dx, dy=dy, elements=elements)
                    H0[dx, dy] = _einsum("eqm,eql,eq->eml", VSd, V0, w)
                H[:, :, config.v0] = H0[dx, dy]
                for ledge in range(3):
                    H[:, :, config.vb(ledge)] -= (
                        nrm[:, ledge, i - 1, None, None] * Mb[j][:, ledge]
                    )
            for ledge in range(3):
                H[:, :, config.vg(ledge, i - 1)] += (
                    nrm[:, ledge, j - 1, None, None] * Mg[:, ledge]
                )
            matrices[(i, j)] = H
    return matrices


def apply_weak_hessian(v_local, hess, i, j):
    """Coefficients of ``D_ij(v)`` from element-local DOF vectors.

    ``hess`` is the dict of :func:`weak_hessian_local`; ``v_local`` is
    (nloc,) or (nt, nloc); the result is (nt, dim S).
    """
    H = hess[(i, j)]
    v_local = np.asarray(v_local, dtype=float)
    if v_local.ndim == 1:
        v_local = np.broadcast_to(v_local, (H.shape[0], H.shape[2]))
    return _einsum("enl,el->en", H, v_local)


def project_weak(mesh, config, w, grad_w):
    """Componentwise L2 projection of a smooth function into the general space.

    Returns the global primal vector of ``{Q0 w, Qb w, Qg grad w}``.
    Only meaningful for the general variant, where the three blocks are
    independent.
    """
    if config.c0_type:
        raise ValueError("project_weak requires the general (non-C0) variant")
    dof = build_dof_map(mesh, config)
    k = config.k
    primal = np.zeros(dof.n_primal)
    primal[: dof.n_v0] = project_element(w, k, mesh).ravel()
    primal[dof.vb_base : dof.vg_base] = project_edge(w, k, mesh).ravel()
    primal[dof.vg_base :] = project_edge(grad_w, k - 1, mesh).ravel()
    return primal


def interpolate_weak(mesh, config, w, grad_w):
    """Nodal interpolant of ``w`` plus edge projection of its gradient.

    C0-variant counterpart of :func:`project_weak`: the interior field
    is the continuous Lagrange interpolant, the gradient block is the
    per-edge L2 projection of ``grad w``.
    """
    if not config.c0_type:
        raise ValueError("interpolate_weak requires the C0 variant")
    dof = build_dof_map(mesh, config)
    coords = dof.nodes.coords
    primal = np.zeros(dof.n_primal)
    primal[: dof.n_v0] = _evaluate(w, coords[:, 0], coords[:, 1])
    primal[dof.vg_base :] = project_edge(grad_w, config.k - 1, mesh).ravel()
    return primal
