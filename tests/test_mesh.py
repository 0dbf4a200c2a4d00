"""Mesh construction, topology, refinement, and serialization."""

import io

import numpy as np
import pytest

from pdwg.mesh import (
    DomainSpec,
    Mesh,
    build_initial_mesh,
    dump_mesh,
    outward_normals,
    ref_square_quadrant_signs,
    refine_uniform,
)


def signed_areas(mesh):
    p = mesh.vertices[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


# -- initial meshes ----------------------------------------------------------

def test_unit_square_initial_counts(unit_meshes):
    m = unit_meshes[0]
    assert m.n_vertices == 4
    assert m.n_triangles == 2
    assert m.n_edges == 5
    assert m.h_max == pytest.approx(np.sqrt(2.0))
    assert int(np.sum(m.is_boundary_edge)) == 4
    assert int(np.sum(~m.is_boundary_edge)) == 1


def test_ref_square_vertices_and_tags(ref_meshes):
    m = ref_meshes[0]
    assert m.n_vertices == 9
    assert m.n_triangles == 8
    rows = {tuple(v) for v in m.vertices.tolist()}
    # Origin and the four axis midpoints must be mesh vertices.
    for pt in [(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]:
        assert pt in rows
    # Both coordinate axes are unions of mesh edges: no edge straddles them.
    ends = m.vertices[m.edges]
    for axis in (0, 1):
        lo, hi = ends[:, 0, axis], ends[:, 1, axis]
        assert not np.any((lo < -1e-12) & (hi > 1e-12))
        assert not np.any((lo > 1e-12) & (hi < -1e-12))
    # Quadrant tags: centroid signs must match the tag convention.
    c = m.centroids
    tags = m.region_tags
    expect = np.where(
        (c[:, 0] > 0) & (c[:, 1] > 0), 0,
        np.where((c[:, 0] < 0) & (c[:, 1] > 0), 1,
                 np.where((c[:, 0] < 0) & (c[:, 1] < 0), 2, 3)),
    )
    assert np.array_equal(tags, expect)
    # The signs table agrees with the domain table's tags.
    s1, s2 = ref_square_quadrant_signs(tags)
    assert np.array_equal(s1, np.sign(c[:, 0]))
    assert np.array_equal(s2, np.sign(c[:, 1]))


def test_lshape_initial_fan(lshape_meshes):
    m = lshape_meshes[0]
    assert m.n_vertices == 5
    assert m.n_triangles == 3
    areas = signed_areas(m)
    assert np.all(areas > 0)
    # Triangle areas tile the polygon: sum equals its shoelace area.
    assert areas.sum() == pytest.approx(m.domain.area)
    assert m.domain.area == pytest.approx(2.5)


def test_all_meshes_ccw_and_finite(unit_meshes, ref_meshes, lshape_meshes):
    for m in (*unit_meshes, *ref_meshes, *lshape_meshes):
        assert np.all(np.isfinite(m.vertices))
        assert np.all(signed_areas(m) > 0)
        t = np.sort(m.triangles, axis=1)
        assert not np.any(t[:, 0] == t[:, 1])
        assert not np.any(t[:, 1] == t[:, 2])


# -- topology ----------------------------------------------------------------

def test_edge_adjacency_conforming(unit_meshes, ref_meshes, lshape_meshes):
    for m in (*unit_meshes, *ref_meshes, *lshape_meshes):
        counts = np.sum(m.edge_tris >= 0, axis=1)
        assert np.array_equal(counts == 1, m.is_boundary_edge)
        assert np.all((counts == 1) | (counts == 2))
        # Every local edge of every triangle appears in the edge table.
        for l in range(3):
            a = m.triangles[:, l]
            b = m.triangles[:, (l + 1) % 3]
            pair = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)
            assert np.array_equal(m.edges[m.tri_edges[:, l]], pair)


def test_euler_relation(unit_meshes, ref_meshes, lshape_meshes):
    for m in (*unit_meshes, *ref_meshes, *lshape_meshes):
        assert m.n_vertices - m.n_edges + m.n_triangles == 1


def test_nonmanifold_rejected():
    # Three triangles sharing one edge cannot form a conforming planar mesh.
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 1.0]])
    t = np.array([[0, 1, 2], [1, 3, 2], [1, 2, 4]])
    # Make every triangle CCW, so only the shared edge is wrong.
    p = v[t]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    assert np.all(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] > 0)
    with pytest.raises(ValueError, match="non-manifold"):
        Mesh(vertices=v, triangles=t, region_tags=np.zeros(3, dtype=int))


def _fans(*sizes):
    """CCW triangles fanned on the bottom edge of unit squares set side by side.

    The bottom edge of the i-th square, which joins its first two
    vertices, is shared by ``sizes[i]`` triangles, whose apexes lie above
    it.  The vertices are numbered square by square, the triangles of
    the last square come first.
    """
    vertices, triangles = [], []
    for i, size in enumerate(sizes):
        lo = len(vertices)
        vertices += [[2.0 * i, 0.0], [2.0 * i + 1.0, 0.0]]
        vertices += [[2.0 * i + (j + 1) / (size + 1), 1.0] for j in range(size)]
        triangles = [[lo, lo + 1, lo + 2 + j] for j in range(size)] + triangles
    return np.array(vertices), np.array(triangles)


@pytest.mark.parametrize("sizes, named", [((3, 3), (0, 1)), ((3, 4), (5, 6)), ((2, 3, 3), (4, 5))])
def test_nonmanifold_error_names_the_most_shared_then_lowest_edge(sizes, named):
    # Of the edges shared by more than two triangles, the message names
    # one with the most triangles and, among those, the lowest (lo, hi).
    v, t = _fans(*sizes)
    with pytest.raises(ValueError) as info:
        Mesh(v, t, np.zeros(len(t), dtype=int))
    edge = tuple(np.array(named, dtype=np.int64))
    assert str(info.value) == f"non-manifold input: edge {edge} shared by {max(sizes)} triangles"


def test_validation_errors_fire_in_order():
    # Each mesh breaks its check and every later one, so only the order
    # of the checks decides which error it gets: array shapes, finite
    # coordinates, vertex ids in range, repeated vertices, orientation,
    # manifold edges.
    v, t = _fans(3)
    cw = t[:, ::-1]  # clockwise, still non-manifold
    repeated = np.vstack([cw, [[0, 0, 1]]])
    out_of_range = np.vstack([cw, [[0, 0, len(v)]]])
    nan = np.where(v == 1.0, np.nan, v)
    cases = [
        (nan, np.column_stack([out_of_range, out_of_range[:, 0]]), r"triangles must have shape \(4, 3\)"),
        (nan, out_of_range, "finite coordinates"),
        (v, out_of_range, "out of range"),
        (v, repeated, "repeated vertex"),
        (v, cw, "triangle 0 is not CCW"),
        (v, t, "non-manifold"),
    ]
    for vertices, triangles, message in cases:
        with pytest.raises(ValueError, match=message):
            Mesh(vertices, triangles, np.zeros(len(triangles), dtype=int))


def test_bad_triangles_rejected():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="CCW"):
        Mesh(v, np.array([[0, 2, 1]]), np.zeros(1, dtype=int))
    with pytest.raises(ValueError, match="repeated"):
        Mesh(v, np.array([[0, 1, 1]]), np.zeros(1, dtype=int))
    # Misshapen arrays, once silently truncated or broadcast.
    with pytest.raises(ValueError, match=r"triangles must have shape \(1, 3\), got \(1, 4\)"):
        Mesh(v, np.array([[0, 1, 2, 0]]), np.zeros(1, dtype=int))
    with pytest.raises(ValueError, match=r"vertices must have shape \(3, 2\), got \(3, 3\)"):
        Mesh(np.column_stack([v, np.zeros(3)]), np.array([[0, 1, 2]]), np.zeros(1, dtype=int))
    v4 = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match=r"region_tags must have shape \(2,\), got \(1,\)"):
        Mesh(v4, np.array([[0, 1, 2], [0, 2, 3]]), np.zeros(1, dtype=int))


def test_hand_built_mesh_is_complete():
    # The unit square's two triangles, built without build_initial_mesh.
    v = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    m = Mesh(v, np.array([[0, 1, 2], [0, 2, 3]]), np.zeros(2, dtype=int))
    assert m.n_edges == 5
    np.testing.assert_array_equal(m.h_t, [np.sqrt(2.0)] * 2)
    assert m.boundary_edges.tolist() == [0, 2, 3, 4]  # all but the diagonal (0, 2)
    ref = build_initial_mesh(DomainSpec("unit_square"))
    for name in ("edges", "tri_edges", "edge_tris", "is_boundary_edge"):
        np.testing.assert_array_equal(getattr(m, name), getattr(ref, name))


# -- refinement ---------------------------------------------------------------

def test_refine_counts(unit_meshes):
    m0, m1 = unit_meshes[0], unit_meshes[1]
    assert m1.n_triangles == 8
    assert m1.n_vertices == 9
    assert m1.n_edges == 16


def test_refine_halves_hmax_exactly(unit_meshes, ref_meshes, lshape_meshes):
    for seq in (unit_meshes, ref_meshes, lshape_meshes):
        for coarse, fine in zip(seq, seq[1:]):
            assert fine.h_max == coarse.h_max / 2.0  # dyadic: exact halving


def test_refine_lineage_and_tags(ref_meshes):
    coarse, fine = ref_meshes[0], ref_meshes[1]
    assert fine.parents is not None
    assert np.array_equal(fine.parents, np.repeat(np.arange(coarse.n_triangles), 4))
    assert np.array_equal(fine.region_tags, coarse.region_tags[fine.parents])
    assert fine.level == coarse.level + 1


def test_lshape_euler_after_refinement(lshape_meshes):
    m1 = lshape_meshes[1]
    assert m1.n_vertices - m1.n_edges + m1.n_triangles == 1


def test_boundary_edge_count_unit_square(unit_meshes):
    for lvl, m in enumerate(unit_meshes):
        assert int(np.sum(m.is_boundary_edge)) == 4 * 2**lvl


def test_refinement_deterministic():
    a = refine_uniform(build_initial_mesh(DomainSpec("unit_square")))
    b = refine_uniform(build_initial_mesh(DomainSpec("unit_square")))
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.edges, b.edges)


# -- geometry ----------------------------------------------------------------

def test_outward_normal_bottom_edge(unit_meshes):
    m = unit_meshes[0]
    n = outward_normals(m)
    found = False
    for ti in range(m.n_triangles):
        for l in range(3):
            a = m.vertices[m.triangles[ti, l]]
            b = m.vertices[m.triangles[ti, (l + 1) % 3]]
            if np.allclose(sorted([tuple(a), tuple(b)]), [(0.0, 0.0), (1.0, 0.0)]):
                assert np.allclose(n[ti, l], [0.0, -1.0])
                found = True
    assert found


def test_normals_unit_and_divergence_free(unit_meshes, lshape_meshes):
    for m in (unit_meshes[2], lshape_meshes[2]):
        n = outward_normals(m)
        assert np.allclose(np.linalg.norm(n, axis=-1), 1.0)
        # Edge tangents are orthogonal to their normals.
        p = m.vertices[m.triangles]
        d = np.stack(
            [p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]], axis=1
        )
        assert np.allclose(np.sum(d * n, axis=-1), 0.0, atol=1e-14)
        # Closed-surface identity: sum of length-weighted normals vanishes.
        lengths = np.linalg.norm(d, axis=-1)
        assert np.allclose(np.sum(lengths[..., None] * n, axis=1), 0.0, atol=1e-13)


def test_boundary_normals_point_outward(unit_meshes):
    m = unit_meshes[1]
    n = outward_normals(m)
    center = np.array([0.5, 0.5])
    for ti in range(m.n_triangles):
        for l in range(3):
            e = m.tri_edges[ti, l]
            if not m.is_boundary_edge[e]:
                continue
            mid = m.vertices[m.edges[e]].mean(axis=0)
            assert np.dot(n[ti, l], mid - center) > 0


def test_h_t_is_longest_edge(unit_meshes):
    m = unit_meshes[1]
    p = m.vertices[m.triangles]
    d = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]], axis=1)
    assert np.allclose(m.h_t, np.linalg.norm(d, axis=-1).max(axis=1))
    assert m.h_max == m.h_t.max()


# -- serialization -------------------------------------------------------------

def test_dump_mesh_roundtrip(unit_meshes, tmp_path):
    m = unit_meshes[1]
    buf = io.StringIO()
    dump_mesh(m, buf)
    path = tmp_path / "mesh.txt"
    dump_mesh(m, path)
    assert path.read_bytes() == buf.getvalue().encode()
    lines = buf.getvalue().strip().split("\n")
    nv, ne, nt = map(int, lines[0].split())
    assert (nv, ne, nt) == (m.n_vertices, m.n_edges, m.n_triangles)
    verts = np.array([[float(t) for t in ln.split()] for ln in lines[1 : 1 + nv]])
    assert np.array_equal(verts, m.vertices)
    tris = np.array([[int(t) for t in ln.split()] for ln in lines[1 + nv : 1 + nv + nt]])
    assert np.array_equal(tris[:, :3], m.triangles)
    assert np.array_equal(tris[:, 3], m.region_tags)
    edges = np.array([[int(t) for t in ln.split()] for ln in lines[1 + nv + nt :]])
    assert np.array_equal(edges[:, :2], m.edges)
    assert np.array_equal(edges[:, 2].astype(bool), m.is_boundary_edge)


def test_domain_validation():
    with pytest.raises(ValueError):
        DomainSpec("hexagon")
