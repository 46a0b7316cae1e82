import hashlib
import math

import numpy as np
import pytest

from bjorling.continuation import find_strip
from bjorling.curves import make_circle
from bjorling.meshing import (
    FLOAT_FMT,
    SurfaceMesh,
    clip_halfspace,
    export_csv,
    export_obj,
    export_ply,
    load_obj,
    mesh_area,
    sample_mesh,
    vertex_texts,
)
from bjorling.schwarz import surface_patch

from conftest import epi


def unit_quad():
    return SurfaceMesh.from_faces(
        np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]),
        [(0, 1, 2, 3)],
        attributes={"density": np.array([1.0, 2.0, 3.0, 4.0])},
    )


def test_sample_mesh_counts_and_tags():
    mesh = sample_mesh(surface_patch(make_circle(), (0, 2 * math.pi), (-1.0, 1.0), 64, 17))
    assert len(mesh.vertices) == 64 * 17
    assert len(mesh.faces) == 63 * 16
    assert set(mesh.attributes) == {"t", "s", "density", "abs_g"}
    assert len(mesh.tags["geodesic_row"]) == 64
    # catenoid density on the geodesic row is speed^2 = 1
    row = mesh.tags["geodesic_row"]
    assert np.allclose(mesh.attributes["density"][row], 1.0, atol=1e-12)
    assert np.allclose(mesh.attributes["abs_g"][row], 1.0, atol=1e-12)


def test_sample_mesh_epitrochoid_geodesic_row_matches_curve():
    curve = epi(2, 0.5)
    mesh = sample_mesh(surface_patch(curve, (0, 2 * math.pi), (-0.1, 0.1), 48, 9))
    row = mesh.tags["geodesic_row"]
    pts = mesh.vertices[row]
    t = mesh.attributes["t"][row]
    expect = curve.point3d(t)
    assert np.max(np.abs(pts - expect)) < 1e-9
    # 3-lobed closed outline
    assert abs(pts[0, 0] - 2.5) < 1e-9


def test_clip_keeps_positive_side():
    mesh = unit_quad()
    clipped = clip_halfspace(mesh, (1.0, 0.0, 0.0), 0.5)
    assert all(v[0] >= 0.5 - 1e-12 for v in clipped.vertices)
    assert mesh_area(clipped) <= mesh_area(mesh) + 1e-12
    assert abs(mesh_area(clipped) - 0.5) < 1e-12
    # interpolated attribute on the cut edge
    assert np.min(clipped.attributes["density"]) >= 1.0


def test_clip_offset_beyond_bbox_is_identity_or_empty():
    mesh = unit_quad()
    same = clip_halfspace(mesh, (0.0, 0.0, 1.0), -5.0)
    assert len(same.faces) == 1 and len(same.vertices) == 4
    empty = clip_halfspace(mesh, (0.0, 0.0, 1.0), 5.0)
    assert len(empty.faces) == 0


@pytest.mark.parametrize("n", [10, 37])
def test_clip_flat_grid_matches_closed_form(n):
    # independent oracle: the n x n grid on [0,1]^2 cut by x + 2y >= 0.7 keeps
    # the square minus the triangle (0,0), (0.7,0), (0,0.35)
    x = np.linspace(0.0, 1.0, n + 1)
    vertices = [(x[i], x[j], 0.0) for j in range(n + 1) for i in range(n + 1)]
    faces = [(j * (n + 1) + i, j * (n + 1) + i + 1, (j + 1) * (n + 1) + i + 1,
              (j + 1) * (n + 1) + i) for j in range(n) for i in range(n)]
    grid = SurfaceMesh.from_faces(vertices, faces)
    assert abs(mesh_area(grid) - 1.0) < 1e-14
    cut = clip_halfspace(grid, (1.0, 2.0, 0.0), 0.7)
    assert abs(mesh_area(cut) - (1.0 - 0.5 * 0.7 * 0.35)) < 1e-14
    assert np.all(cut.vertices @ np.array([1.0, 2.0, 0.0]) - 0.7 >= -1e-15)
    assert cut.vertices[:, 2].tolist() == [0.0] * len(cut.vertices)
    assert {len(f) for f in cut.faces} == {3, 4, 5}


def test_clip_catenoid_half():
    mesh = sample_mesh(surface_patch(make_circle(), (0, 2 * math.pi), (-1.0, 1.0), 32, 9))
    half = clip_halfspace(mesh, (0.0, 0.0, 1.0), 0.0)
    assert all(v[2] >= -1e-12 for v in half.vertices)
    assert 0 < len(half.faces) < len(mesh.faces)
    assert mesh_area(half) <= mesh_area(mesh)


def test_oblique_clip_bytes_pinned(tmp_path):
    # SHA-256 of the OBJ and PLY of an oblique cut through epi(3, 0.6): the
    # plane crosses grid edges, so the cut has 3-, 4- and 5-gons and new
    # interpolated vertices, which the z = 0 half-cut pins never make
    curve = epi(3, 0.6)
    h = find_strip(curve).cap
    mesh = sample_mesh(surface_patch(curve, curve.domain, (-h, h), 200, 31))
    cut = clip_halfspace(mesh, (0.3, 0.5, 0.8), 0.1)
    assert sorted({len(f) for f in cut.faces}) == [3, 4, 5]
    export_obj(cut, tmp_path / "cut.obj")
    export_ply(cut, tmp_path / "cut.ply")
    got = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in ("cut.obj", "cut.ply")]
    assert got == ["0b0f9a50639d081d404af8dd06319aa5ff523b08e97ceac1879e4b6483649bfc",
                   "bd4bd7cc856818cb773e9aef00f3a8af85107aded12a521d506cb51222a53e31"]


def test_obj_roundtrip(tmp_path):
    mesh = unit_quad()
    path = tmp_path / "quad.obj"
    export_obj(mesh, path)
    text = path.read_text()
    assert text.count("\nf ") + text.startswith("f ") == 1
    assert len([l for l in text.splitlines() if l.startswith("v ")]) == 4
    back = load_obj(path)
    assert np.max(np.abs(back.vertices - mesh.vertices)) < 1e-12
    assert back.faces == [(0, 1, 2, 3)]


def test_obj_roundtrip_full_precision(tmp_path):
    mesh = sample_mesh(surface_patch(epi(3, 0.6), (0.0, 2.0), (-0.05, 0.05), 9, 5))
    path = tmp_path / "patch.obj"
    export_obj(mesh, path)
    back = load_obj(path)
    assert np.max(np.abs(back.vertices - mesh.vertices)) < 1e-12


@pytest.mark.parametrize("face", ["f 0 1 2", "f 1 2 5", "f -1 1 2", "f 1 2"])
def test_load_obj_rejects_out_of_range_index(face, tmp_path):
    # OBJ indices are 1-based: 0 would wrap to the last vertex; a 2-gon is no
    # face (the PLY fan split would drop it)
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n%s\n" % face)
    with pytest.raises(ValueError, match="fewer than 3" if face == "f 1 2" else "out of range"):
        load_obj(path)


def test_load_obj_rejects_vertices_without_three_coordinates(tmp_path):
    # three "v 0 0" lines would load as a (3, 2) array that no writer can format
    path = tmp_path / "flat.obj"
    path.write_text("v 0 0\nv 1 0\nv 0 1\nf 1 2 3\n")
    with pytest.raises(ValueError, match=r"shape \(n, 3\)"):
        load_obj(path)


def test_empty_mesh_exports(tmp_path):
    empty = SurfaceMesh.from_faces(np.zeros((0, 3)), [])
    export_obj(empty, tmp_path / "empty.obj")
    export_ply(empty, tmp_path / "empty.ply")
    export_csv(empty, tmp_path / "empty.csv")
    assert (tmp_path / "empty.obj").read_text() == ""
    assert (tmp_path / "empty.csv").read_bytes() == b"x,y,z\r\n"
    assert b"element vertex 0" in (tmp_path / "empty.ply").read_bytes()
    assert load_obj(tmp_path / "empty.obj").vertices.shape == (0, 3)


def test_vertex_texts_equal_float_fmt():
    # every text is FLOAT_FMT % v: signed zeros apart in one table, subnormals,
    # the %g notation boundaries, inf/nan (CSV's abs_g), values shared by two
    # tables, a Fortran-ordered table, a one-row and an empty table
    tiny = np.nextafter(0.0, 1.0)
    a = np.array([[0.0, -0.0, tiny], [-tiny, 2.2250738585072009e-308, 2.2250738585072014e-308],
                  [1e16, 1e17, np.nextafter(1e17, 0.0)], [1e-4, 1e-5, np.nextafter(1e-4, 0.0)],
                  [np.inf, -np.inf, np.nan], [0.1, -0.0, 1e16]])
    fortran = np.asfortranarray(np.array([[0.1, 2.0, -0.0], [3.0, 1e-5, 0.1]]))
    one = np.array([[0.5, -0.0, 0.5]])
    tables = (a, fortran, one, np.zeros((0, 3)))
    got = vertex_texts(*tables)
    assert got == [tuple(FLOAT_FMT % v for v in t.reshape(-1).tolist()) for t in tables]
    assert got[0][:2] == ("0", "-0") and got[1][:3] == ("0.10000000000000001", "2", "-0")
    assert got[0][12:15] == ("inf", "-inf", "nan")
    assert got[0][15] is got[1][0] and got[2][0] is got[2][2]


def test_one_vertex_mesh_exports(tmp_path):
    mesh = SurfaceMesh.from_faces(np.array([[-0.0, 5e-324, 1e17]]), [],
                                  attributes={"abs_g": np.array([np.inf])})
    export_obj(mesh, tmp_path / "one.obj")
    export_csv(mesh, tmp_path / "one.csv")
    assert (tmp_path / "one.obj").read_text() == "v -0 4.9406564584124654e-324 1e+17\n"
    assert (tmp_path / "one.csv").read_bytes() == (
        b"x,y,z,abs_g\r\n-0,4.9406564584124654e-324,1e+17,inf\r\n")


def test_ply_structure(tmp_path):
    mesh = unit_quad()
    path = tmp_path / "quad.ply"
    export_ply(mesh, path)
    blob = path.read_bytes()
    header_end = blob.index(b"end_header\n") + len(b"end_header\n")
    header = blob[:header_end].decode()
    assert "format binary_little_endian 1.0" in header
    assert "property float64 density" in header
    body = blob[header_end:]
    # 4 vertices * 4 float64 + 2 fan triangles * (1 + 12) bytes
    assert len(body) == 4 * 4 * 8 + 2 * 13
    first_vertex = np.frombuffer(body[:32], dtype="<f8")
    assert np.allclose(first_vertex, [0.0, 0.0, 0.0, 1.0])


def test_exports_deterministic(tmp_path):
    mesh = sample_mesh(surface_patch(epi(2, 0.5), (0.0, 1.5), (-0.08, 0.08), 12, 7))
    a_obj, b_obj = tmp_path / "a.obj", tmp_path / "b.obj"
    export_obj(mesh, a_obj)
    export_obj(mesh, b_obj)
    assert a_obj.read_bytes() == b_obj.read_bytes()
    a_ply, b_ply = tmp_path / "a.ply", tmp_path / "b.ply"
    export_ply(mesh, a_ply)
    export_ply(mesh, b_ply)
    assert a_ply.read_bytes() == b_ply.read_bytes()
    a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(mesh, a_csv)
    export_csv(mesh, b_csv)
    assert a_csv.read_bytes() == b_csv.read_bytes()


def test_csv_header_and_rows(tmp_path):
    mesh = unit_quad()
    path = tmp_path / "quad.csv"
    export_csv(mesh, path)
    lines = path.read_bytes().decode().split("\r\n")
    assert lines[0] == "x,y,z,density"
    assert len([l for l in lines if l]) == 5


def test_io_failure_surfaces_path(tmp_path):
    mesh = unit_quad()
    with pytest.raises(OSError) as err:
        export_obj(mesh, tmp_path / "missing_dir" / "x.obj")
    assert "missing_dir" in str(err.value)
