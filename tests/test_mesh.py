import math

import numpy as np
import pytest

from enclosure2d.mesh import (BACKGROUND, INCLUSION, Mesh, MeshError, ShapeSpec,
                              build_disk_mesh, read_mesh, support_function_exact,
                              write_mesh)


def test_empty_inclusion_all_background_and_loop_length():
    mesh = build_disk_mesh(1.0, 0.1, None)
    assert np.all(mesh.labels == BACKGROUND)
    pts = mesh.boundary_points
    loop_len = np.sum(np.hypot(*np.diff(np.vstack([pts, pts[:1]]), axis=0).T))
    assert abs(loop_len - 2 * math.pi) < 0.01 * 2 * math.pi


def test_centered_disk_inclusion_area():
    mesh = build_disk_mesh(1.0, 0.05, ShapeSpec.disk((0.0, 0.0), 0.5))
    assert abs(mesh.inclusion_area() - math.pi * 0.25) < 0.02 * math.pi * 0.25


def test_labeled_area_error_decreases_with_h():
    # mesher at three resolutions against the exact quarter-pi area
    errors = []
    for h in (0.1, 0.05, 0.025):
        mesh = build_disk_mesh(1.0, h, ShapeSpec.disk((0.0, 0.0), 0.5))
        errors.append(abs(mesh.inclusion_area() - math.pi * 0.25))
    assert errors[0] > errors[1] > errors[2]


def test_labeled_area_within_stated_bound():
    shape = ShapeSpec.disk((0.2, 0.1), 0.4)
    for h in (0.08, 0.04):
        mesh = build_disk_mesh(1.0, h, shape, refine_levels=1)
        assert abs(mesh.inclusion_area() - shape.area()) <= 2 * h * shape.perimeter()


def test_areas_tile_boundary_polygon():
    mesh = build_disk_mesh(1.0, 0.07, ShapeSpec.ellipse((0.1, 0.0), (0.4, 0.25), 0.3))
    total = mesh.triangle_areas().sum()
    assert abs(total - mesh.boundary_polygon_area()) <= 1e-10 * total
    mesh.validate()


def test_all_triangles_positively_oriented():
    mesh = build_disk_mesh(2.0, 0.15, ShapeSpec.disk((0.0, 0.5), 0.6), refine_levels=2)
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


def test_inclusion_too_close_to_boundary_rejected():
    with pytest.raises(MeshError):
        build_disk_mesh(1.0, 0.1, ShapeSpec.disk((0.0, 0.0), 0.9))


def test_too_coarse_for_inclusion_rejected():
    with pytest.raises(MeshError):
        build_disk_mesh(1.0, 0.24, ShapeSpec.disk((0.0, 0.0), 0.05))


def test_refinement_keeps_conformity_and_labels_partition():
    mesh = build_disk_mesh(1.0, 0.08, ShapeSpec.disk((0.3, 0.0), 0.3), refine_levels=2)
    mesh.validate()
    assert set(np.unique(mesh.labels)) <= {BACKGROUND, INCLUSION}
    # refinement increases resolution near the interface
    coarse = build_disk_mesh(1.0, 0.08, ShapeSpec.disk((0.3, 0.0), 0.3), refine_levels=0)
    assert mesh.n_triangles > coarse.n_triangles


# -- support function ---------------------------------------------------------


def test_support_disk_any_direction():
    d = ShapeSpec.disk((0.0, 0.0), 0.5)
    for ang in np.linspace(0, 2 * math.pi, 7):
        assert support_function_exact(d, (math.cos(ang), math.sin(ang))) == pytest.approx(0.5)


def test_support_shifted_disk():
    d = ShapeSpec.disk((0.2, 0.0), 0.5)
    assert support_function_exact(d, (1.0, 0.0)) == pytest.approx(0.7)


def test_support_square():
    sq = ShapeSpec.polygon([(-0.3, -0.3), (0.3, -0.3), (0.3, 0.3), (-0.3, 0.3)])
    assert support_function_exact(sq, (1.0, 0.0)) == pytest.approx(0.3)
    s = 1 / math.sqrt(2)
    assert support_function_exact(sq, (s, s)) == pytest.approx(0.6 / math.sqrt(2))


def test_support_requires_unit_direction():
    with pytest.raises(MeshError):
        support_function_exact(ShapeSpec.disk((0, 0), 0.5), (1.0, 1.0))


def test_support_is_max_of_linear_functions():
    # sublinearity via the envelope characterization on a dense direction grid
    shape = ShapeSpec.ellipse((0.1, -0.05), (0.4, 0.2), 0.7)
    angles = np.linspace(0, 2 * math.pi, 60, endpoint=False)
    pts = shape.boundary_points(2048)
    for ang in angles:
        th = np.array([math.cos(ang), math.sin(ang)])
        h_exact = support_function_exact(shape, th)
        h_sampled = float((pts @ th).max())
        assert h_sampled <= h_exact + 1e-9
        assert h_exact - h_sampled < 5e-4


def test_ellipse_support_matches_vertex_sampling():
    shape = ShapeSpec.ellipse((0.0, 0.0), (0.5, 0.2), 0.0)
    assert support_function_exact(shape, (1.0, 0.0)) == pytest.approx(0.5)
    assert support_function_exact(shape, (0.0, 1.0)) == pytest.approx(0.2)


def test_polygon_validation():
    with pytest.raises(MeshError):
        ShapeSpec.polygon([(0, 0), (1, 0), (0.5, 0.5), (0.5, -0.5)])  # self-crossing
    with pytest.raises(MeshError):
        ShapeSpec.polygon([(0, 0), (0, 1), (1, 0)])  # negatively oriented


def test_mesh_roundtrip(tmp_path):
    mesh = build_disk_mesh(1.0, 0.1, ShapeSpec.disk((0.0, 0.0), 0.4))
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert back.n_vertices == mesh.n_vertices
    assert np.allclose(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.labels, mesh.labels)
    assert np.array_equal(back.boundary_loop, mesh.boundary_loop)
    back.validate()



def test_truncated_mesh_file_rejected(tmp_path):
    path = tmp_path / "mesh.txt"
    write_mesh(build_disk_mesh(1.0, 0.2, None), path)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(MeshError, match="corrupt mesh file"):
        read_mesh(path)


@pytest.mark.parametrize("edit", [
    lambda rows: [rows[0] + " 7"] + rows[1:],                 # 6-field header
    lambda rows: rows[:2] + [rows[2] + " 0.5"] + rows[3:],    # 3-field vertex row
    lambda rows: rows[:-1] + ["0 1 0.5"],                     # 3-field edge row
    lambda rows: rows + ["0 1 0.5 0.5"],                      # extra row
    lambda rows: rows[:-1] + ["0 99999 0.5 0.5"],             # index out of range
    lambda rows: [r if i != 1 + int(rows[0].split()[0]) else "0 1 2 5"
                  for i, r in enumerate(rows)],               # label 5
])
def test_corrupt_mesh_file_rejected(tmp_path, edit):
    path = tmp_path / "mesh.txt"
    write_mesh(build_disk_mesh(1.0, 0.2, None), path)
    rows = [r for r in path.read_text().splitlines() if not r.startswith("#")]
    path.write_text("\n".join(edit(rows)) + "\n")
    with pytest.raises(MeshError, match="corrupt mesh file"):
        read_mesh(path)

def test_mesh_arrays_immutable():
    mesh = build_disk_mesh(1.0, 0.2, None)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 99.0
