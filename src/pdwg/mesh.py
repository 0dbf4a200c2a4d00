"""Conforming triangulations of the three built-in computational domains.

A mesh is a plain container of numpy arrays: vertex coordinates, CCW
triangles, per-triangle region tags (used to evaluate coefficients that
are smooth per region but jump across region interfaces), and derived
edge topology.  The three built-in domains are

* the unit square ``(0,1)^2``, split into two triangles along the
  diagonal from ``(0,0)`` to ``(1,1)``,
* the square ``(-1,1)^2``, split into eight triangles such that both
  coordinate axes lie on mesh edges and the origin is a mesh vertex;
  region tags number the four quadrants,
* an L-shaped (reentrant-corner) pentagon with vertices ``(0,0)``,
  ``(2,0)``, ``(1,1)``, ``(1,2)``, ``(0,2)``, fan-triangulated from the
  first vertex.

Uniform refinement is "red": every triangle is split into four congruent
children by connecting edge midpoints.  This halves every element
diameter exactly, preserves conformity, and keeps region tags inherited
from the parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DomainSpec",
    "Mesh",
    "build_initial_mesh",
    "refine_uniform",
    "extract_topology",
    "outward_normals",
    "dump_mesh",
    "ref_square_quadrant_signs",
]


_DOMAIN_KINDS = ("unit_square", "ref_square", "l_shape")

# Boundary polygon of the L-shaped domain (CCW, reentrant corner at (1,1)).
_L_SHAPE_VERTICES = np.array(
    [[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, 2.0], [0.0, 2.0]]
)


@dataclass(frozen=True)
class DomainSpec:
    """Selector for one of the built-in computational domains."""

    kind: str

    def __post_init__(self):
        if self.kind not in _DOMAIN_KINDS:
            raise ValueError(
                f"unknown domain kind {self.kind!r}; expected one of {_DOMAIN_KINDS}"
            )

    @classmethod
    def unit_square(cls):
        return cls("unit_square")

    @classmethod
    def ref_square(cls):
        return cls("ref_square")

    @classmethod
    def l_shape(cls):
        return cls("l_shape")

    @property
    def polygon(self):
        """CCW boundary polygon of the domain."""
        if self.kind == "unit_square":
            return np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        if self.kind == "ref_square":
            return np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
        return _L_SHAPE_VERTICES.copy()

    @property
    def area(self):
        """Domain area by the shoelace formula."""
        p = self.polygon
        q = np.roll(p, -1, axis=0)
        return 0.5 * float(np.sum(p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]))


@dataclass
class Mesh:
    """Conforming triangulation with edge topology and refinement lineage.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
        CCW vertex ids, all distinct per triangle.
    region_tags : (nt,) int array
        Coefficient-smoothness region of each triangle.
    level : int
        Number of uniform refinements applied since the initial mesh.
    domain : DomainSpec or None
    parents : (nt,) int array or None
        Index of each triangle's parent in the previous level (refinement
        lineage); None on an initial mesh.
    edges : (ne, 2) int array
        Endpoint ids with ``edges[:, 0] < edges[:, 1]``; rows sorted
        lexicographically.
    tri_edges : (nt, 3) int array
        Edge index of local edge ``l``, which joins local vertices ``l``
        and ``(l + 1) % 3``.
    edge_tris : (ne, 2) int array
        Adjacent triangle indices, ``-1`` when absent.
    is_boundary_edge : (ne,) bool array
    """

    vertices: np.ndarray
    triangles: np.ndarray
    region_tags: np.ndarray
    level: int = 0
    domain: DomainSpec | None = None
    parents: np.ndarray | None = None
    edges: np.ndarray | None = None
    tri_edges: np.ndarray | None = None
    edge_tris: np.ndarray | None = None
    is_boundary_edge: np.ndarray | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    # -- basic counts ---------------------------------------------------
    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @property
    def n_edges(self):
        return 0 if self.edges is None else self.edges.shape[0]

    # -- derived geometry (memoized; meshes are immutable once built) ---
    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    @property
    def corners(self):
        """Vertex coordinates per triangle, shape (nt, 3, 2)."""
        return self._memo("corners", lambda: self.vertices[self.triangles])

    @property
    def areas(self):
        def _areas():
            p = self.corners
            d1 = p[:, 1] - p[:, 0]
            d2 = p[:, 2] - p[:, 0]
            return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

        return self._memo("areas", _areas)

    @property
    def centroids(self):
        return self._memo("centroids", lambda: self.corners.mean(axis=1))

    @property
    def edge_lengths(self):
        def _len():
            d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
            return np.hypot(d[:, 0], d[:, 1])

        return self._memo("edge_lengths", _len)

    @property
    def h_t(self):
        """Longest edge length of each triangle."""
        return self._memo(
            "h_t", lambda: self.edge_lengths[self.tri_edges].max(axis=1)
        )

    @property
    def h_max(self):
        return float(self.h_t.max())

    @property
    def boundary_edges(self):
        return self._memo(
            "boundary_edges", lambda: np.flatnonzero(self.is_boundary_edge)
        )

    @property
    def boundary_vertices(self):
        def _bv():
            mask = np.zeros(self.n_vertices, dtype=bool)
            mask[self.edges[self.is_boundary_edge].ravel()] = True
            return mask

        return self._memo("boundary_vertices", _bv)


def _validate_triangles(vertices, triangles):
    if not np.all(np.isfinite(vertices)):
        raise ValueError("mesh vertices must have finite coordinates")
    if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= len(vertices):
        raise ValueError("triangle vertex id out of range")
    t = np.sort(triangles, axis=1)
    if np.any(t[:, 0] == t[:, 1]) or np.any(t[:, 1] == t[:, 2]):
        raise ValueError("triangle with repeated vertex ids")
    p = vertices[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    if np.any(cross <= 0.0):
        bad = int(np.flatnonzero(cross <= 0.0)[0])
        raise ValueError(f"triangle {bad} is not CCW (signed area {0.5 * cross[bad]:g})")


def extract_topology(mesh):
    """Fill edge topology (edge list, adjacency, boundary flags).

    Returns a new :class:`Mesh`; the input is unchanged.  Edges are the
    sorted unique vertex pairs of all triangle sides, ordered
    lexicographically, which makes the numbering deterministic.  Input
    where some edge is shared by more than two triangles (non-manifold)
    is rejected.

    Raises
    ------
    ValueError
        On non-CCW or degenerate triangles, out-of-range vertex ids, or
        non-manifold connectivity.
    """
    vertices = np.ascontiguousarray(np.asarray(mesh.vertices, dtype=float))
    triangles = np.ascontiguousarray(np.asarray(mesh.triangles, dtype=np.int64))
    _validate_triangles(vertices, triangles)

    nt = triangles.shape[0]
    pairs = triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
    pairs = np.sort(pairs, axis=1)
    edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
    inverse = inverse.reshape(nt, 3)
    ne = edges.shape[0]

    counts = np.bincount(inverse.ravel(), minlength=ne)
    if counts.max(initial=0) > 2:
        bad = int(np.argmax(counts))
        raise ValueError(
            f"non-manifold input: edge {tuple(edges[bad])} shared by {counts[bad]} triangles"
        )

    order = np.argsort(inverse.ravel(), kind="stable")
    tri_of_slot = order // 3
    starts = np.searchsorted(inverse.ravel()[order], np.arange(ne))
    edge_tris = np.full((ne, 2), -1, dtype=np.int64)
    edge_tris[:, 0] = tri_of_slot[starts]
    two = counts == 2
    edge_tris[two, 1] = tri_of_slot[starts[two] + 1]

    return Mesh(
        vertices=vertices,
        triangles=triangles,
        region_tags=np.ascontiguousarray(np.asarray(mesh.region_tags, dtype=np.int64)),
        level=mesh.level,
        domain=mesh.domain,
        parents=mesh.parents,
        edges=edges,
        tri_edges=inverse,
        edge_tris=edge_tris,
        is_boundary_edge=counts == 1,
    )


def build_initial_mesh(domain):
    """Coarsest mesh of a built-in domain.

    Parameters
    ----------
    domain : DomainSpec

    Returns
    -------
    Mesh
        Level-0 mesh with topology filled.  Counts are 4 vertices / 2
        triangles (unit square), 9 / 8 (``(-1,1)^2``), and 5 / 3
        (L-shape).
    """
    if not isinstance(domain, DomainSpec):
        raise TypeError("domain must be a DomainSpec")

    if domain.kind == "unit_square":
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        triangles = np.array([[0, 1, 2], [0, 2, 3]])
        tags = np.zeros(2, dtype=np.int64)
    elif domain.kind == "ref_square":
        xs = np.array([-1.0, 0.0, 1.0])
        gx, gy = np.meshgrid(xs, xs, indexing="xy")
        vertices = np.column_stack([gx.ravel(), gy.ravel()])  # id = 3*j + i
        tris = []
        tags = []
        for j in range(2):
            for i in range(2):
                a = 3 * j + i
                b = a + 1
                c = a + 4
                d = a + 3
                tris += [[a, b, c], [a, c, d]]
                cx = xs[i] + 0.5
                cy = xs[j] + 0.5
                tags += [_quadrant_tag(cx, cy)] * 2
        triangles = np.array(tris)
        tags = np.array(tags, dtype=np.int64)
    else:  # l_shape
        vertices = _L_SHAPE_VERTICES.copy()
        triangles = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 4]])
        tags = np.zeros(3, dtype=np.int64)

    return extract_topology(
        Mesh(vertices=vertices, triangles=triangles, region_tags=tags, level=0, domain=domain)
    )


def _quadrant_tag(x, y):
    # 0: (+,+), 1: (-,+), 2: (-,-), 3: (+,-)
    if y > 0:
        return 0 if x > 0 else 1
    return 2 if x < 0 else 3


def ref_square_quadrant_signs(region):
    """Coordinate signs ``(sgn x1, sgn x2)`` for quadrant region tags.

    The ``(-1,1)^2`` mesh tags its quadrants 0: (+,+), 1: (-,+),
    2: (-,-), 3: (+,-).  Evaluators of coefficients that jump across the
    axes use the element's tag rather than the sign of a near-axis point.
    """
    region = np.asarray(region)
    s1 = np.where((region == 0) | (region == 3), 1.0, -1.0)
    s2 = np.where(region <= 1, 1.0, -1.0)
    return s1, s2


def refine_uniform(mesh):
    """One sweep of red refinement: each triangle into four congruent children.

    Every edge midpoint becomes a new vertex; the child of a CCW parent
    is CCW; region tags are inherited; ``h_max`` halves exactly.  The
    construction is deterministic: equal input meshes produce identical
    output arrays.
    """
    if mesh.edges is None:
        mesh = extract_topology(mesh)
    nv = mesh.n_vertices
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack([mesh.vertices, mids])

    m = nv + mesh.tri_edges  # (nt, 3): midpoint ids of local edges 01, 12, 20
    v = mesh.triangles
    children = np.empty((mesh.n_triangles, 4, 3), dtype=np.int64)
    children[:, 0] = np.column_stack([v[:, 0], m[:, 0], m[:, 2]])
    children[:, 1] = np.column_stack([m[:, 0], v[:, 1], m[:, 1]])
    children[:, 2] = np.column_stack([m[:, 2], m[:, 1], v[:, 2]])
    children[:, 3] = np.column_stack([m[:, 0], m[:, 1], m[:, 2]])

    return extract_topology(
        Mesh(
            vertices=vertices,
            triangles=children.reshape(-1, 3),
            region_tags=np.repeat(mesh.region_tags, 4),
            level=mesh.level + 1,
            domain=mesh.domain,
            parents=np.repeat(np.arange(mesh.n_triangles), 4),
        )
    )


def outward_normals(mesh):
    """Unit outward normal of every (triangle, local edge) pair.

    Returns
    -------
    (nt, 3, 2) float array
        ``normals[t, l]`` is the outward unit normal of triangle ``t``
        on its local edge ``l`` (joining local vertices ``l`` and
        ``(l + 1) % 3``).  For CCW triangles this is the edge direction
        rotated clockwise by 90 degrees.
    """

    def _normals():
        p = mesh.corners
        d = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]], axis=1)
        n = np.stack([d[:, :, 1], -d[:, :, 0]], axis=-1)
        return n / np.linalg.norm(n, axis=-1, keepdims=True)

    return mesh._memo("outward_normals", _normals)


def dump_mesh(mesh, target):
    """Write a mesh as plain ASCII.

    Format: first line ``V E F`` (counts); then ``V`` vertex lines
    ``x y``; then ``F`` triangle lines ``i j k region``; then ``E`` edge
    lines ``i j boundary_flag``.
    """
    if mesh.edges is None:
        mesh = extract_topology(mesh)
    lines = [f"{mesh.n_vertices} {mesh.n_edges} {mesh.n_triangles}"]
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g}")
    for (i, j, k), tag in zip(mesh.triangles, mesh.region_tags):
        lines.append(f"{i} {j} {k} {tag}")
    for (i, j), flag in zip(mesh.edges, mesh.is_boundary_edge):
        lines.append(f"{i} {j} {int(flag)}")
    _write_text("\n".join(lines) + "\n", target)


def _write_text(text, target):
    """Write ``text`` to an open handle (anything with ``write``) or a path."""
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w") as fh:
            fh.write(text)
