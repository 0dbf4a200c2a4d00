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

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DomainSpec",
    "Mesh",
    "build_initial_mesh",
    "refine_uniform",
    "outward_normals",
    "dump_mesh",
    "ref_square_quadrant_signs",
]


#: The built-in domains: initial vertices, CCW triangles, region tags
#: and the CCW boundary polygon as vertex ids.  ``ref_square`` tags each
#: quadrant by its row of ``_QUADRANT_SIGNS``.
_DOMAINS = {
    "unit_square": (
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
        [[0, 1, 2], [0, 2, 3]],
        [0, 0],
        [0, 1, 2, 3],
    ),
    "ref_square": (
        [[-1.0, -1.0], [0.0, -1.0], [1.0, -1.0],
         [-1.0, 0.0], [0.0, 0.0], [1.0, 0.0],
         [-1.0, 1.0], [0.0, 1.0], [1.0, 1.0]],
        [[0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4],
         [3, 4, 7], [3, 7, 6], [4, 5, 8], [4, 8, 7]],
        [2, 2, 3, 3, 1, 1, 0, 0],
        [0, 2, 8, 6],
    ),
    # Reentrant corner at (1,1), fan-triangulated from the origin.
    "l_shape": (
        [[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, 2.0], [0.0, 2.0]],
        [[0, 1, 2], [0, 2, 3], [0, 3, 4]],
        [0, 0, 0],
        [0, 1, 2, 3, 4],
    ),
}

#: Coordinate signs ``(sgn x1, sgn x2)`` of each ``ref_square`` quadrant tag.
_QUADRANT_SIGNS = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


@dataclass(frozen=True)
class DomainSpec:
    """Selector for one of the built-in computational domains."""

    kind: str

    def __post_init__(self):
        if self.kind not in _DOMAINS:
            raise ValueError(
                f"unknown domain kind {self.kind!r}; expected one of {tuple(_DOMAINS)}"
            )

    @property
    def polygon(self):
        """CCW boundary polygon of the domain."""
        vertices, _, _, boundary = _DOMAINS[self.kind]
        return np.array(vertices)[boundary]

    @property
    def area(self):
        """Domain area by the shoelace formula."""
        p = self.polygon
        q = np.roll(p, -1, axis=0)
        return 0.5 * float(np.sum(p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]))


def _per_mesh(fn):
    """Cache ``fn(mesh, *args)`` on ``mesh._cache``, keyed on ``(fn.__qualname__, *args)``.

    A mesh never changes once built, so whatever is derived from it and a
    few hashable arguments is computed once per mesh and freed with it.
    Threads that make the first call at once may each compute the value,
    outside any lock, so a nested cached call cannot deadlock; all of them
    return the one value stored first.
    """

    @functools.wraps(fn)
    def cached(mesh, *args):
        key = (fn.__qualname__, *args)
        cache = mesh._cache
        if key in cache:
            return cache[key]
        return cache.setdefault(key, fn(mesh, *args))

    return cached


@dataclass(eq=False)
class Mesh:
    """Conforming triangulation with edge topology and refinement lineage.

    The constructor validates the triangles and derives the edge
    topology, so every mesh is complete once built.  Edges are the
    sorted unique vertex pairs of all triangle sides, ordered
    lexicographically, which makes the numbering deterministic.

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

    Raises
    ------
    ValueError
        On misshapen arrays, non-CCW or degenerate triangles, out-of-range
        vertex ids, or non-manifold connectivity (an edge shared by more
        than two triangles).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    region_tags: np.ndarray
    level: int = 0
    domain: DomainSpec | None = None
    parents: np.ndarray | None = None
    edges: np.ndarray = field(init=False)
    tri_edges: np.ndarray = field(init=False)
    edge_tris: np.ndarray = field(init=False)
    is_boundary_edge: np.ndarray = field(init=False)
    _cache: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        self.region_tags = np.ascontiguousarray(self.region_tags, dtype=np.int64)
        sides = _validate_triangles(self.vertices, self.triangles, self.region_tags)
        if np.any(self.areas <= 0.0):
            bad = int(np.flatnonzero(self.areas <= 0.0)[0])
            raise ValueError(f"triangle {bad} is not CCW (signed area {self.areas[bad]:g})")

        # lo * nv + hi sorts as (lo, hi) does; a stable sort keeps each edge's triangles in order.
        key = sides[:, 0] * self.n_vertices + sides[:, 1]
        order = np.argsort(key, kind="stable")
        first = np.diff(key[order], prepend=-1) != 0
        starts = np.flatnonzero(first)
        counts = np.diff(starts, append=len(order))
        edges = sides[order[starts]]
        if counts.max(initial=0) > 2:
            bad = int(np.argmax(counts))
            raise ValueError(
                f"non-manifold input: edge {tuple(edges[bad])} shared by {counts[bad]} triangles"
            )

        tri_edges = np.empty(len(order), dtype=np.int64)
        tri_edges[order] = np.cumsum(first) - 1
        edge_tris = np.full((len(starts), 2), -1, dtype=np.int64)
        edge_tris[:, 0] = order[starts] // 3
        two = counts == 2
        edge_tris[two, 1] = order[starts[two] + 1] // 3

        self.edges = edges
        self.tri_edges = tri_edges.reshape(-1, 3)
        self.edge_tris = edge_tris
        self.is_boundary_edge = counts == 1

    # -- basic counts ---------------------------------------------------
    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @property
    def n_edges(self):
        return self.edges.shape[0]

    # -- derived geometry -----------------------------------------------
    @property
    @_per_mesh
    def corners(self):
        """Vertex coordinates per triangle, shape (nt, 3, 2)."""
        return self.vertices[self.triangles]

    @property
    @_per_mesh
    def areas(self):
        """Signed area of each triangle, positive for CCW ones."""
        p = self.corners
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    @property
    @_per_mesh
    def centroids(self):
        return self.corners.mean(axis=1)

    @property
    @_per_mesh
    def edge_lengths(self):
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        return np.hypot(d[:, 0], d[:, 1])

    @property
    @_per_mesh
    def h_t(self):
        """Longest edge length of each triangle."""
        return self.edge_lengths[self.tri_edges].max(axis=1)

    @property
    def h_max(self):
        return float(self.h_t.max())

    @property
    @_per_mesh
    def boundary_edges(self):
        return np.flatnonzero(self.is_boundary_edge)

    @property
    @_per_mesh
    def boundary_vertices(self):
        mask = np.zeros(self.n_vertices, dtype=bool)
        mask[self.edges[self.is_boundary_edge].ravel()] = True
        return mask


def _validate_triangles(vertices, triangles, region_tags):
    """Check the mesh arrays; return side ``l`` of ``t``, ends sorted, in row ``3 t + l``."""
    nt = len(triangles)
    for name, arr, shape in (("vertices", vertices, (len(vertices), 2)),
                             ("triangles", triangles, (nt, 3)),
                             ("region_tags", region_tags, (nt,))):
        if arr.shape != shape:
            raise ValueError(f"mesh {name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(vertices)):
        raise ValueError("mesh vertices must have finite coordinates")
    if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= len(vertices):
        raise ValueError("triangle vertex id out of range")
    sides = np.sort(triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1)
    if np.any(sides[:, 0] == sides[:, 1]):
        raise ValueError("triangle with repeated vertex ids")
    return sides


def build_initial_mesh(domain):
    """Coarsest mesh of a built-in domain.

    Parameters
    ----------
    domain : DomainSpec

    Returns
    -------
    Mesh
        Level-0 mesh.  Counts are 4 vertices / 2 triangles (unit
        square), 9 / 8 (``(-1,1)^2``), and 5 / 3 (L-shape).
    """
    if not isinstance(domain, DomainSpec):
        raise TypeError("domain must be a DomainSpec")

    vertices, triangles, tags, _ = _DOMAINS[domain.kind]
    return Mesh(
        vertices=np.array(vertices),
        triangles=np.array(triangles),
        region_tags=np.array(tags),
        level=0,
        domain=domain,
    )


def ref_square_quadrant_signs(region):
    """Coordinate signs ``(sgn x1, sgn x2)`` for quadrant region tags.

    The ``(-1,1)^2`` mesh tags its quadrants 0: (+,+), 1: (-,+),
    2: (-,-), 3: (+,-).  Evaluators of coefficients that jump across the
    axes use the element's tag rather than the sign of a near-axis point.
    """
    signs = _QUADRANT_SIGNS[np.asarray(region)]
    return signs[..., 0], signs[..., 1]


def refine_uniform(mesh):
    """One sweep of red refinement: each triangle into four congruent children.

    Every edge midpoint becomes a new vertex; the child of a CCW parent
    is CCW; region tags are inherited; ``h_max`` halves exactly.  The
    construction is deterministic: equal input meshes produce identical
    output arrays.
    """
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

    return Mesh(
        vertices=vertices,
        triangles=children.reshape(-1, 3),
        region_tags=np.repeat(mesh.region_tags, 4),
        level=mesh.level + 1,
        domain=mesh.domain,
        parents=np.repeat(np.arange(mesh.n_triangles), 4),
    )


@_per_mesh
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
    p = mesh.corners
    d = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]], axis=1)
    n = np.stack([d[:, :, 1], -d[:, :, 0]], axis=-1)
    return n / np.linalg.norm(n, axis=-1, keepdims=True)


def dump_mesh(mesh, target):
    """Write a mesh as plain ASCII.

    Format: first line ``V E F`` (counts); then ``V`` vertex lines
    ``x y``; then ``F`` triangle lines ``i j k region``; then ``E`` edge
    lines ``i j boundary_flag``.
    """
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
