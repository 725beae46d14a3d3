import math

import numpy as np
import pytest

from enclosure2d.mesh import (BACKGROUND, INCLUSION, MeshError, ShapeSpec,
                              build_disk_mesh, write_mesh)


def _labelled_area(mesh):
    return float(mesh.triangle_areas()[mesh.labels == INCLUSION].sum())


def test_empty_inclusion_all_background_and_loop_length():
    mesh = build_disk_mesh(1.0, 0.1, None)
    assert np.all(mesh.labels == BACKGROUND)
    pts = mesh.boundary_points
    loop_len = np.sum(np.hypot(*np.diff(np.vstack([pts, pts[:1]]), axis=0).T))
    assert abs(loop_len - 2 * math.pi) < 0.01 * 2 * math.pi


def test_centered_disk_inclusion_area():
    mesh = build_disk_mesh(1.0, 0.05, ShapeSpec.disk((0.0, 0.0), 0.5))
    assert abs(_labelled_area(mesh) - math.pi * 0.25) < 0.02 * math.pi * 0.25


def test_labeled_area_error_decreases_with_h():
    # mesher at three resolutions against the exact quarter-pi area
    errors = []
    for h in (0.1, 0.05, 0.025):
        mesh = build_disk_mesh(1.0, h, ShapeSpec.disk((0.0, 0.0), 0.5))
        errors.append(abs(_labelled_area(mesh) - math.pi * 0.25))
    assert errors[0] > errors[1] > errors[2]


def test_labeled_area_within_stated_bound():
    shape = ShapeSpec.disk((0.2, 0.1), 0.4)
    for h in (0.08, 0.04):
        mesh = build_disk_mesh(1.0, h, shape)
        perimeter = 2 * math.pi * 0.4
        assert abs(_labelled_area(mesh) - shape.area()) <= 2 * h * perimeter


def test_areas_tile_boundary_polygon():
    mesh = build_disk_mesh(1.0, 0.07, ShapeSpec.ellipse((0.1, 0.0), (0.4, 0.25), 0.3))
    total = mesh.triangle_areas().sum()
    assert abs(total - mesh.boundary_polygon_area()) <= 1e-10 * total
    mesh.validate()


def test_all_triangles_positively_oriented():
    mesh = build_disk_mesh(2.0, 0.15, ShapeSpec.disk((0.0, 0.5), 0.6))
    assert mesh.triangle_areas().min() > 0


def test_boundary_polyline_deviation_at_least_halves():
    devs = []
    for h in (0.1, 0.05):
        mesh = build_disk_mesh(1.0, h, None)
        # max deviation of edge midpoints from the circle
        e = mesh.boundary_edges
        mid = 0.5 * (mesh.vertices[e[:, 0]] + mesh.vertices[e[:, 1]])
        devs.append(np.max(np.abs(1.0 - np.hypot(mid[:, 0], mid[:, 1]))))
    assert devs[1] <= 0.55 * devs[0]


def _reference_triangles(n_rings):
    """The polar mesher's triangles by the plain angular sweep: a fan about
    the centre, then each annulus by a two-pointer walk over its two rings,
    which steps on the outer ring while that reaches no further round."""
    sizes = [1] + [6 * i for i in range(1, n_rings + 1)]
    starts = np.cumsum([0] + sizes)
    tris = [(0, 1 + k, 1 + (k + 1) % 6) for k in range(6)]
    for r in range(1, n_rings):
        np_, nn, p0, n0 = sizes[r], sizes[r + 1], starts[r], starts[r + 1]
        i = j = 0
        while i < np_ or j < nn:
            if j < nn and (i == np_ or (j + 1) / nn <= (i + 1) / np_):
                tris.append((p0 + i % np_, n0 + j % nn, n0 + (j + 1) % nn))
                j += 1
            else:
                tris.append((p0 + i % np_, n0 + j % nn, p0 + (i + 1) % np_))
                i += 1
    return np.array(tris, dtype=np.int64)


@pytest.mark.parametrize("h", [0.2, 0.1, 0.05, 0.0102])
@pytest.mark.parametrize("inclusion", [None, ShapeSpec.disk((0.3, 0.0), 0.3)],
                         ids=["empty", "disk"])
def test_triangles_match_the_reference_sweep(h, inclusion):
    mesh = build_disk_mesh(1.0, h, inclusion)
    n_rings = max(4, int(round(1.0 / h))) | 1
    assert mesh.n_vertices == 1 + 3 * n_rings * (n_rings + 1)
    assert mesh.triangles.dtype == np.int64
    assert np.array_equal(mesh.triangles, _reference_triangles(n_rings))


def test_inclusion_too_close_to_boundary_rejected():
    with pytest.raises(MeshError):
        build_disk_mesh(1.0, 0.1, ShapeSpec.disk((0.0, 0.0), 0.9))


def test_too_coarse_for_inclusion_rejected():
    with pytest.raises(MeshError):
        build_disk_mesh(1.0, 0.24, ShapeSpec.disk((0.0, 0.0), 0.05))


# -- support function ---------------------------------------------------------


def test_support_disk_any_direction():
    d = ShapeSpec.disk((0.0, 0.0), 0.5)
    for ang in np.linspace(0, 2 * math.pi, 7):
        assert d.support((math.cos(ang), math.sin(ang))) == pytest.approx(0.5)


def test_support_shifted_disk():
    d = ShapeSpec.disk((0.2, 0.0), 0.5)
    assert d.support((1.0, 0.0)) == pytest.approx(0.7)


def test_support_square():
    sq = ShapeSpec.polygon([(-0.3, -0.3), (0.3, -0.3), (0.3, 0.3), (-0.3, 0.3)])
    assert sq.support((1.0, 0.0)) == pytest.approx(0.3)
    s = 1 / math.sqrt(2)
    assert sq.support((s, s)) == pytest.approx(0.6 / math.sqrt(2))


def test_support_requires_unit_direction():
    with pytest.raises(MeshError):
        ShapeSpec.disk((0, 0), 0.5).support((1.0, 1.0))


def test_support_is_max_of_linear_functions():
    # sublinearity via the envelope characterization on a dense direction grid
    shape = ShapeSpec.ellipse((0.1, -0.05), (0.4, 0.2), 0.7)
    angles = np.linspace(0, 2 * math.pi, 60, endpoint=False)
    pts = shape.boundary_points(2048)
    for ang in angles:
        th = np.array([math.cos(ang), math.sin(ang)])
        h_exact = shape.support(th)
        h_sampled = float((pts @ th).max())
        assert h_sampled <= h_exact + 1e-9
        assert h_exact - h_sampled < 5e-4


def test_ellipse_support_matches_vertex_sampling():
    shape = ShapeSpec.ellipse((0.0, 0.0), (0.5, 0.2), 0.0)
    assert shape.support((1.0, 0.0)) == pytest.approx(0.5)
    assert shape.support((0.0, 1.0)) == pytest.approx(0.2)


def test_disk_is_the_ellipse_with_equal_semi_axes():
    # one formula serves both kinds: every query but max_norm, whose closed
    # form only the disk has, gives the disk and the circular ellipse the same bits
    rng = np.random.default_rng(25)
    angles = np.linspace(0.0, 2 * math.pi, 37)
    for _ in range(200):
        c, r = rng.uniform(-0.5, 0.5, 2), rng.uniform(0.05, 0.8)
        disk, ellipse = ShapeSpec.disk(c, r), ShapeSpec.ellipse(c, (r, r))
        rim = disk.boundary_points(64)
        assert np.array_equal(rim, ellipse.boundary_points(64))
        pts = np.vstack([c + r * rng.uniform(-1.5, 1.5, (64, 2)), rim,
                         c + (rim - c) * (1 + 1e-15), c + (rim - c) * (1 - 1e-15)])
        assert np.array_equal(disk.contains(pts), ellipse.contains(pts))
        for p in pts[::4]:
            assert disk.extreme_directions(p) == ellipse.extreme_directions(p)
        for ang in angles:
            t = (math.cos(ang), math.sin(ang))
            assert disk.support(t) == ellipse.support(t)
        assert disk.area() == ellipse.area()


@pytest.mark.parametrize("center, radius, h", [((0.0, 0.0), 0.5, 0.0102),
                                               ((0.3, 0.0), 0.3, 0.0102),
                                               ((0.0, 0.0), 0.5, 0.05)],
                         ids=["hull", "cone", "template"])
def test_disk_labels_match_the_distance_to_the_centre(center, radius, h):
    # the benchmark's two disks and the example template's: labelled by the
    # ellipse's scaled form, every centroid keeps the side its distance to the
    # centre gives it, so mesh.txt keeps its bytes
    mesh = build_disk_mesh(1.0, h, ShapeSpec.disk(center, radius))
    cents = mesh.centroids()
    inside = np.hypot(cents[:, 0] - center[0], cents[:, 1] - center[1]) <= radius
    assert np.array_equal(mesh.labels == INCLUSION, inside)


def test_polygon_validation():
    with pytest.raises(MeshError):
        ShapeSpec.polygon([(0, 0), (1, 0), (0.5, 0.5), (0.5, -0.5)])  # self-crossing
    with pytest.raises(MeshError):
        ShapeSpec.polygon([(0, 0), (0, 1), (1, 0)])  # negatively oriented
    with pytest.raises(MeshError, match="convex"):
        # notched pentagon: simple and counterclockwise, but (0.5, 1.0) lies
        # inside it and outside the region its edges' half-planes bound
        ShapeSpec.polygon([(0, 0), (2, 0), (2, 2), (1, 0.5), (0, 2)])
    with pytest.raises(MeshError, match="convex"):
        # pentagram: every turn is to the left, but the turns add up to two
        ShapeSpec.polygon([(np.cos(a), np.sin(a)) for a in 4 * np.pi / 5 * np.arange(5)])


def test_write_mesh_blocks_match_the_mesh(tmp_path):
    # a header (counts, h, radius), then the vertex, triangle-and-label and
    # boundary-edge blocks; '%.17g' text reads back bit for bit
    mesh = build_disk_mesh(1.0, 0.1, ShapeSpec.disk((0.0, 0.0), 0.4))
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path, provenance={"config": "xyz"})
    assert path.read_text().startswith("# enclosure2d mesh v1\n# config: xyz\n")
    rows = [ln.split() for ln in path.read_text().splitlines() if not ln.startswith("#")]
    nv, nt, nb = (int(x) for x in rows[0][:3])
    assert (nv, nt, nb) == (mesh.n_vertices, mesh.n_triangles, len(mesh.boundary_loop))
    assert [float(x) for x in rows[0][3:]] == [mesh.h, mesh.domain_radius]
    assert len(rows) == 1 + nv + nt + nb
    vertices = np.array(rows[1:1 + nv], dtype=float)
    tl = np.array(rows[1 + nv:1 + nv + nt], dtype=np.int64)
    edges = np.array(rows[1 + nv + nt:], dtype=float)
    assert np.array_equal(vertices, mesh.vertices)
    assert np.array_equal(tl[:, :3], mesh.triangles)
    assert np.array_equal(tl[:, 3], mesh.labels) and set(tl[:, 3]) == {BACKGROUND, INCLUSION}
    assert np.array_equal(edges[:, 0], mesh.boundary_loop)
    assert np.array_equal(edges[:, 1], np.roll(mesh.boundary_loop, -1))
    assert np.array_equal(edges[:, 2:], mesh.boundary_normals)


def test_write_mesh_text_equals_per_element_formatting(tmp_path):
    # the text is byte for byte that of formatting each numpy element
    mesh = build_disk_mesh(1.0, 0.1, ShapeSpec.ellipse((0.1, -0.05), (0.4, 0.25), 0.3))
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path, provenance={"config": "xyz"})
    lines = ["# enclosure2d mesh v1\n# config: xyz\n",
             f"{mesh.n_vertices} {mesh.n_triangles} {len(mesh.boundary_edges)} "
             f"{mesh.h:.17g} {mesh.domain_radius:.17g}\n"]
    lines += [f"{x:.17g} {y:.17g}\n" for x, y in mesh.vertices]
    lines += [f"{i} {j} {k} {lab}\n" for (i, j, k), lab in zip(mesh.triangles, mesh.labels)]
    lines += [f"{i} {j} {nx:.17g} {ny:.17g}\n"
              for (i, j), (nx, ny) in zip(mesh.boundary_edges, mesh.boundary_normals)]
    assert path.read_text() == "".join(lines)


def test_mesh_arrays_immutable():
    mesh = build_disk_mesh(1.0, 0.2, None)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 99.0


def _median_split_leaves(mesh, depth):
    """Each leaf's triangles as a node-by-node median split of the centroids
    along the node's wider extent gives them: the loop the dissection's
    level-by-level sort must agree with."""
    cents = mesh.centroids()
    order, cuts = np.arange(mesh.n_triangles), [0, mesh.n_triangles]
    for _ in range(depth):
        halves = [0]
        for a, b in zip(cuts[:-1], cuts[1:]):
            c = cents[order[a:b]]
            axis = int(np.ptp(c[:, 1]) > np.ptp(c[:, 0]))
            order[a:b] = order[a:b][np.argsort(c[:, axis], kind="stable")]
            halves += [(a + b) // 2, b]
        cuts = halves
    return [order[a:b] for a, b in zip(cuts[:-1], cuts[1:])]


def test_dissection_eliminates_each_vertex_where_its_triangles_meet():
    # a complete binary tree of depth ceil(log2(nt / 128)), children before
    # parents; the leaves hold the triangles of a node-by-node median split,
    # in its order, every triangle in one leaf of at most 128; each interior vertex
    # eliminated at the lowest front that holds all its triangles, and a
    # front keeps the other vertices of its triangles, the root exactly the
    # boundary loop; the leaves' and children's positions index the front
    mesh = build_disk_mesh(1.0, 0.05, ShapeSpec.disk((0.2, 0.0), 0.4))
    fronts = mesh.dissection
    assert mesh.dissection is fronts
    tri, n = mesh.triangles, mesh.n_vertices
    depth = math.ceil(math.log2(mesh.n_triangles / 128))
    assert depth == 5 and len(fronts) == 2 ** (depth + 1) - 1
    degree = np.bincount(tri.ravel(), minlength=n)
    boundary = np.isin(np.arange(n), mesh.boundary_loop)
    below, held = [], []                     # per front: its triangles, the vertices it holds
    for f in fronts:
        if f.children:
            assert len(f.triangles) == 0
            below.append(np.concatenate([below[c] for c, _ in f.children]))
        else:
            assert 0 < len(f.triangles) <= 128
            below.append(f.triangles)
        held.append(np.bincount(tri[below[-1]].ravel(), minlength=n) == degree)
        lowest = held[-1] & ~boundary
        for c, _ in f.children:
            lowest &= ~held[c]
        assert np.array_equal(f.eliminated, np.flatnonzero(lowest))
        touched = np.zeros(n, dtype=bool)
        touched[tri[below[-1]]] = True
        assert np.array_equal(np.sort(f.kept), np.flatnonzero(touched & (~held[-1] | boundary)))
        front = np.concatenate([f.eliminated, f.kept])
        assert np.array_equal(front[f.local], tri[f.triangles])
        for c, pos in f.children:
            assert np.array_equal(front[pos], fronts[c].kept)
    assert np.array_equal(np.sort(below[-1]), np.arange(mesh.n_triangles))
    leaves = [f.triangles for f in fronts if not f.children]
    assert all(map(np.array_equal, leaves, _median_split_leaves(mesh, depth)))
    assert np.array_equal(fronts[-1].kept, mesh.boundary_loop)
    with pytest.raises(ValueError):
        fronts[0].eliminated[0] = 0
