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
All operators are assembled in batch as dense per-element matrices acting
on the element-local DOF vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import _per_mesh, outward_normals
from .polyquad import (
    GEOMETRY_EDGE_DEGREE,
    GEOMETRY_TRI_DEGREE,
    get_edge_basis,
    get_edge_rule,
    get_element_rule,
    get_tri_basis,
    project_edge,
    project_element,
    space_dim,
)

__all__ = [
    "SpaceConfig",
    "LocalLayout",
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
    """Discretization parameters.

    Parameters
    ----------
    k : int
        Polynomial degree of the primal field, at least 2.
    multiplier_space : {"pkm2", "pkm1"}
        Element multiplier space ``P_{k-2}`` or ``P_{k-1}``.
    c0_type : bool
        Use the continuous (C0) primal variant.
    """

    k: int = 2
    multiplier_space: str = "pkm1"
    c0_type: bool = True

    def __post_init__(self):
        if int(self.k) < 2:
            raise ValueError(f"polynomial degree k must be >= 2, got {self.k}")
        if self.multiplier_space not in _MULTIPLIER_SPACES:
            raise ValueError(
                f"multiplier_space must be one of {_MULTIPLIER_SPACES}, "
                f"got {self.multiplier_space!r}"
            )

    @property
    def mult_degree(self):
        return self.k - 1 if self.multiplier_space == "pkm1" else self.k - 2


@dataclass(frozen=True)
class LocalLayout:
    """Column layout of the element-local primal DOF vector.

    General variant: ``[v0 | vb edge0 | vb edge1 | vb edge2 | vg edge0 |
    vg edge1 | vg edge2]`` where each ``vg`` block stores the first
    component's coefficients then the second's.  C0 variant: the ``vb``
    blocks are absent and the ``v0`` block holds Lagrange nodal values.
    """

    k: int
    c0_type: bool

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
    n_int = (k - 1) * (k - 2) // 2
    lo = mesh.vertices[mesh.edges[:, 0]]
    hi = mesh.vertices[mesh.edges[:, 1]]
    frac = (np.arange(1, k) / k)[None, :, None]
    edge_coords = lo[:, None, :] + frac * (hi - lo)[:, None, :]

    corners = mesh.corners
    # Lattice interior points (i, j >= 1, i + j <= k - 1) in fixed order.
    int_list = sorted((i, j) for i in range(1, k) for j in range(1, k - i))
    assert len(int_list) == n_int
    if n_int:
        bary = np.array(int_list, dtype=float) / k
        int_coords = (
            corners[:, None, 0, :]
            + bary[None, :, 0, None] * (corners[:, 1] - corners[:, 0])[:, None, :]
            + bary[None, :, 1, None] * (corners[:, 2] - corners[:, 0])[:, None, :]
        )
    else:
        int_coords = np.zeros((nt, 0, 2))

    coords = np.vstack(
        [mesh.vertices, edge_coords.reshape(-1, 2), int_coords.reshape(-1, 2)]
    )
    n_nodes = nv + ne * per_edge + nt * n_int

    blocks = [mesh.triangles]
    for ledge in range(3):
        g = mesh.tri_edges[:, ledge]
        blocks.append(nv + g[:, None] * per_edge + np.arange(per_edge)[None, :])
    if n_int:
        ids = nv + ne * per_edge + np.arange(nt)[:, None] * n_int + np.arange(n_int)[None, :]
        blocks.append(ids)
    element_nodes = np.concatenate(blocks, axis=1).astype(np.int64)

    bmask = np.zeros(n_nodes, dtype=bool)
    bmask[: nv][mesh.boundary_vertices] = True
    bedges = mesh.boundary_edges
    ids = nv + bedges[:, None] * per_edge + np.arange(per_edge)[None, :]
    bmask[ids.ravel()] = True
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
    V = basis.eval(nodes.coords[nodes.element_nodes])  # (nt, n0, n0)
    return np.linalg.inv(V)


@dataclass(frozen=True, eq=False)
class DofMap:
    """Global numbering of primal and multiplier unknowns.

    Primal numbering, general variant: per-element interior blocks
    first, then per-edge ``vb`` blocks, then per-edge ``vg`` blocks.
    C0 variant: shared Lagrange nodes first, then per-edge ``vg``
    blocks.  Multiplier unknowns are numbered separately, one block of
    ``dim S`` per element.  Constrained DOFs are the boundary-edge
    ``vb`` blocks (general) or the boundary Lagrange nodes (C0); the
    gradient blocks ``vg`` are never constrained.  Only what cannot be
    derived is stored; the rest are properties.
    """

    config: SpaceConfig
    n_primal: int
    element_primal: np.ndarray  # (nt, nloc)
    constrained: np.ndarray  # sorted global primal ids
    vg_base: int
    nodes: LagrangeNodes | None  # C0 variant only

    @property
    def layout(self):
        """Column layout of the element-local primal vector (a function of ``config``)."""
        return LocalLayout(self.config.k, self.config.c0_type)

    @property
    def ns(self):
        return space_dim(self.config.mult_degree)

    @property
    def n_mult(self):
        return self.element_primal.shape[0] * self.ns

    @property
    def element_mult(self):  # (nt, ns)
        return np.arange(self.n_mult, dtype=np.int64).reshape(-1, self.ns)

    @property
    def n_v0(self):
        if self.config.c0_type:
            return self.nodes.n_nodes
        return self.element_primal.shape[0] * self.layout.n0

    @property
    def vb_base(self):
        return None if self.config.c0_type else self.n_v0

    def local_vectors(self, primal):
        """Gather (nt, nloc) element-local vectors from a global vector."""
        return np.asarray(primal)[self.element_primal]

    def u0_coefficients(self, primal, mesh):
        """Interior field as per-element orthonormal coefficients."""
        k = self.config.k
        if self.config.c0_type:
            nodal = np.asarray(primal)[self.nodes.element_nodes]
            return np.einsum("emn,en->em", nodal_to_modal(mesh, k), nodal, optimize=True)
        n0 = self.layout.n0
        return np.asarray(primal)[: self.n_v0].reshape(-1, n0)

    def ub_coefficients(self, primal):
        """Per-edge trace coefficients (ne, k + 1); None in the C0 variant."""
        if self.config.c0_type:
            return None
        return np.asarray(primal)[self.vb_base : self.vg_base].reshape(-1, self.layout.nb)

    def ug_coefficients(self, primal):
        """Per-edge gradient coefficients (ne, 2, k)."""
        return np.asarray(primal)[self.vg_base :].reshape(-1, 2, self.layout.ng)


@_per_mesh
def build_dof_map(mesh, config):
    """Build the :class:`DofMap` of a mesh/config pair (cached on the mesh)."""
    k = config.k
    nt, ne = mesh.n_triangles, mesh.n_edges
    ng = 2 * k  # per-edge gradient block

    if config.c0_type:
        nodes = lagrange_nodes(mesh, k)
        vg_base = nodes.n_nodes
        v0_cols = nodes.element_nodes
        constrained = nodes.boundary_nodes
    else:
        nodes = None
        n0 = space_dim(k)
        vb_base = nt * n0
        vg_base = vb_base + ne * (k + 1)
        v0_cols = np.arange(vb_base, dtype=np.int64).reshape(nt, n0)
        # Ascending because boundary_edges is; apply_dirichlet relies on it.
        bedges = mesh.boundary_edges
        constrained = (
            vb_base + bedges[:, None] * (k + 1) + np.arange(k + 1)[None, :]
        ).ravel()

    cols = [v0_cols]
    if not config.c0_type:
        for ledge in range(3):
            g = mesh.tri_edges[:, ledge]
            cols.append(vb_base + g[:, None] * (k + 1) + np.arange(k + 1)[None, :])
    for ledge in range(3):
        g = mesh.tri_edges[:, ledge]
        cols.append(vg_base + g[:, None] * ng + np.arange(ng)[None, :])
    return DofMap(
        config=config,
        n_primal=vg_base + ne * ng,
        element_primal=np.concatenate(cols, axis=1).astype(np.int64),
        constrained=np.asarray(constrained, dtype=np.int64),
        vg_base=vg_base,
        nodes=nodes,
    )


def _element_edge_traces(mesh, config):
    """Edge quadrature of every element and the edge bases at its points.

    Returns ``(pe, we, Xg, Xb)``: points (nt, 3, nq, 2) and weights
    (nt, 3, nq) of the degree-``GEOMETRY_EDGE_DEGREE(k)`` rule on the
    three edges of each element, in local edge order, and the degree
    ``k - 1`` (``vg``) and degree ``k`` (``vb``) edge bases at those
    points, (nt, 3, nq, dim).  ``Xb`` is None in the C0 variant, which
    has no ``vb`` block.
    """
    k = config.k
    epts, ew, t = get_edge_rule(mesh, GEOMETRY_EDGE_DEGREE(k))
    g = mesh.tri_edges
    Xg = get_edge_basis(mesh, k - 1).eval_ref(t)[g]
    Xb = None if config.c0_type else get_edge_basis(mesh, k).eval_ref(t)[g]
    return epts[g], ew[g], Xg, Xb


# No caller asks for the same weak Hessian twice, yet it stays cached:
# building both assemble-p5-L7 variants in one process peaked at 1,112 MB
# with the cache and 1,160 MB without, because freeing its large blocks
# raises glibc's dynamic mmap threshold, so later large arrays come from
# the heap.
@_per_mesh
def weak_hessian_local(mesh, config):
    """Per-element matrices of the four discrete weak second derivatives.

    Returns a dict whose entry ``(i, j)`` has shape (nt, dim S, nloc) and
    maps the element-local primal vector to the orthonormal coefficients
    of ``D_ij`` in the multiplier space.  Cached on the mesh.
    """
    k = config.k
    layout = build_dof_map(mesh, config).layout
    sdeg = config.mult_degree
    ns = space_dim(sdeg)
    nt = mesh.n_triangles

    tb = get_tri_basis(mesh, k)
    sb = get_tri_basis(mesh, sdeg)
    pts, w = get_element_rule(mesh, GEOMETRY_TRI_DEGREE(k))
    pe, we, Xg, Xb = _element_edge_traces(mesh, config)
    nrm = outward_normals(mesh)

    VS_tr = sb.eval(pe)
    # <vg_i, phi n_j>: moment of every vg basis function against phi.
    Mg = np.einsum("etqm,etqr,etq->etmr", VS_tr, Xg, we, optimize=True)

    if config.c0_type:
        trans = nodal_to_modal(mesh, k)
        VSd_vol = {1: sb.eval(pts, dx=1), 2: sb.eval(pts, dy=1)}
        V0d = {1: tb.eval(pts, dx=1), 2: tb.eval(pts, dy=1)}
    else:
        VS_d = {1: sb.eval(pe, dx=1), 2: sb.eval(pe, dy=1)}
        Mb = {
            j: np.einsum("etqm,etqr,etq->etmr", VS_d[j], Xb, we, optimize=True)
            for j in (1, 2)
        }
        V0 = tb.eval(pts)
        # v0 block by (dx, dy) of the multiplier basis; D_12 and D_21 share one.
        H0 = {}

    matrices = {}
    for i in (1, 2):
        for j in (1, 2):
            H = np.zeros((nt, ns, layout.nloc))
            if config.c0_type:
                A = -np.einsum(
                    "eqm,eql,eq->eml", VSd_vol[j], V0d[i], w, optimize=True
                )
                H[:, :, layout.v0] = A @ trans
            else:
                dx = (i == 1) + (j == 1)
                dy = (i == 2) + (j == 2)
                if (dx, dy) not in H0:
                    H0[dx, dy] = np.einsum(
                        "eqm,eql,eq->eml", sb.eval(pts, dx=dx, dy=dy), V0, w, optimize=True
                    )
                H[:, :, layout.v0] = H0[dx, dy]
                for ledge in range(3):
                    H[:, :, layout.vb(ledge)] -= (
                        nrm[:, ledge, i - 1, None, None] * Mb[j][:, ledge]
                    )
            for ledge in range(3):
                H[:, :, layout.vg(ledge, i - 1)] += (
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
    return np.einsum("enl,el->en", H, v_local, optimize=True)


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
    primal[: dof.n_v0] = np.asarray(w(coords[:, 0], coords[:, 1]), dtype=float)
    primal[dof.vg_base :] = project_edge(grad_w, config.k - 1, mesh).ravel()
    return primal
