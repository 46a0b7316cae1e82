import cmath
import hashlib
import math

import numpy as np
import pytest

from bjorling import meshing
from bjorling.continuation import find_strip
from bjorling.curves import make_circle, make_cycloid, make_parabola
from bjorling.meshing import (
    CELL,
    FLOAT_FMT,
    SurfaceMesh,
    clip_halfspace,
    export_csv,
    export_obj,
    export_ply,
    load_obj,
    mesh_area,
    sample_mesh,
    vertex_cells,
)
from bjorling.schwarz import surface_patch

from conftest import epi
from oracles import point3d


def unit_quad():
    return SurfaceMesh.from_faces(
        np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]),
        [(0, 1, 2, 3)],
        attributes={"density": np.array([1.0, 2.0, 3.0, 4.0])},
    )


def test_sample_mesh_counts_and_tags():
    patch = surface_patch(make_circle(), (0, 2 * math.pi), (-1.0, 1.0), 64, 17)
    mesh = sample_mesh(patch)
    assert len(mesh.vertices) == 64 * 17
    assert len(mesh.faces) == 63 * 16
    assert set(mesh.attributes) == {"t", "s", "density", "abs_g"}
    assert patch.geodesic_row == 8
    # catenoid density on the geodesic row is speed^2 = 1
    row = slice(8 * 64, 9 * 64)
    assert np.allclose(mesh.attributes["density"][row], 1.0, atol=1e-12)
    assert np.allclose(mesh.attributes["abs_g"][row], 1.0, atol=1e-12)


def test_sample_mesh_epitrochoid_geodesic_row_matches_curve():
    curve = epi(2, 0.5)
    patch = surface_patch(curve, (0, 2 * math.pi), (-0.1, 0.1), 48, 9)
    mesh = sample_mesh(patch)
    row = slice(patch.geodesic_row * 48, (patch.geodesic_row + 1) * 48)
    pts = mesh.vertices[row]
    t = mesh.attributes["t"][row]
    expect = point3d(curve, t)
    assert np.max(np.abs(pts - expect)) < 1e-9
    # 3-lobed closed outline
    assert abs(pts[0, 0] - 2.5) < 1e-9


def _relative_error(got, expect) -> float:
    return float(np.max(np.abs(got - expect) / np.abs(expect)))


def _epitrochoid_abs_pq(k, lam, t, s):
    # |P| and |Q| point by point, each from its own two terms:
    # P = i(k+2)(e^{iz} - a e^{i(k+2)z}) and Q = -i(k+2)(e^{-iz} - a e^{-i(k+2)z}), a = (k+1)lam
    a = (k + 1) * lam
    out = []
    for z in (complex(tj, sj) for tj, sj in zip(t.tolist(), s.tolist())):
        p = 1j * (k + 2) * (cmath.exp(1j * z) - a * cmath.exp(1j * (k + 2) * z))
        q = -1j * (k + 2) * (cmath.exp(-1j * z) - a * cmath.exp(-1j * (k + 2) * z))
        out.append((abs(p), abs(q)))
    return np.array(out).T


def test_mesh_attributes_match_closed_forms():
    # density = (|P| + |Q|)^2/4 and abs_g = sqrt(|P|/|Q|).  The circle's P = i e^{iz} and
    # Q = -i e^{-iz} give abs_g = e^{-s} and density = cosh^2 s exactly
    mesh = sample_mesh(surface_patch(make_circle(), (0, 2 * math.pi), (-3.0, 3.0), 256, 33))
    s = mesh.attributes["s"]
    assert _relative_error(mesh.attributes["abs_g"], np.exp(-s)) <= 1e-15
    assert _relative_error(mesh.attributes["density"], np.cosh(s) ** 2) <= 1e-15
    # epi(1, 30) at the full cap, where |P|/|Q| reaches 1.9e5: Q rebuilt as Phi1 - i Phi2 =
    # (P + Q)/2 + (Q - P)/2 cancels there, and its abs_g was off by 1.5e-11
    curve = epi(1, 30.0)
    cap = find_strip(curve).cap
    mesh = sample_mesh(surface_patch(curve, curve.domain, (-cap, cap), 256, 33))
    abs_p, abs_q = _epitrochoid_abs_pq(1, 30.0, mesh.attributes["t"], mesh.attributes["s"])
    assert np.max(abs_p / abs_q) > 1e5
    assert _relative_error(mesh.attributes["abs_g"], np.sqrt(abs_p / abs_q)) <= 1e-14
    assert _relative_error(mesh.attributes["density"], 0.25 * (abs_p + abs_q) ** 2) <= 1e-14


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


def zero_area_fan_triangles(mesh) -> int:
    a, b, c = np.moveaxis(mesh.vertices[meshing._fan(mesh)], 1, 0)
    return int(np.count_nonzero(np.linalg.norm(np.cross(b - a, c - a), axis=-1) == 0.0))


@pytest.mark.parametrize("curve", [epi(2, 0.5), make_circle(), make_cycloid(), make_parabola()],
                         ids=["epi", "circle", "cycloid", "parabola"])
@pytest.mark.parametrize("nt,ns", [(24, 7), (256, 33)])
def test_z_cut_of_a_symmetric_patch_keeps_its_seam_once(curve, nt, ns):
    # f3 = 0 exactly on the s = 0 row, and f3 has one sign on each side of it:
    # the z = 0 half-cut is that row and the rows on one side, with no cut
    # vertex, no copy of a seam vertex and no face along the seam
    distance = find_strip(curve).distance
    h = 0.9 * distance if math.isfinite(distance) else 1.0
    mesh = sample_mesh(surface_patch(curve, curve.domain, (-h, h), nt, ns))
    half = clip_halfspace(mesh, (0.0, 0.0, 1.0), 0.0)
    assert len(half.vertices) == nt * (ns + 1) // 2
    assert len(half.offsets) - 1 == (nt - 1) * (ns - 1) // 2
    assert zero_area_fan_triangles(half) == 0


@pytest.mark.parametrize("normal,offset,area", [
    ((1.0, 0.0, 0.0), 3.0, 8.0 * 5.0),             # along a grid column
    ((1.0, 1.0, 0.0), 8.0, 8.0 * 8.0 / 2.0),       # along a grid diagonal
    ((1.0, 2.0, 0.0), 8.0, 8.0 * 8.0 - 8.0 * 4.0 / 2.0),
])
def test_grid_cut_through_grid_vertices_makes_no_copy(normal, offset, area):
    # integer grid [0, 8]^2: each plane holds grid vertices exactly, so the cut
    # keeps those vertices once and adds a vertex only on edges it crosses
    n = 8
    vertices = [(i, j, 0.0) for j in range(n + 1) for i in range(n + 1)]
    faces = [(j * (n + 1) + i, j * (n + 1) + i + 1, (j + 1) * (n + 1) + i + 1,
              (j + 1) * (n + 1) + i) for j in range(n) for i in range(n)]
    cut = clip_halfspace(SurfaceMesh.from_faces(vertices, faces), normal, offset)
    assert len(np.unique(cut.vertices, axis=0)) == len(cut.vertices)
    assert zero_area_fan_triangles(cut) == 0
    assert mesh_area(cut) == area


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
                   "bc22f6c561924bb57f6bdf32988b24a6ec5d36bceacda4a1e47dc96597d5f661"]


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


def decode(cells) -> list[str]:
    return [bytes(c[c != 0]).decode() for c in cells]


def test_vertex_cells_equal_float_fmt(monkeypatch):
    # every cell decodes to FLOAT_FMT % v: signed zeros apart in one table,
    # subnormals, the %g notation boundaries, inf/nan (CSV's abs_g) and a nan
    # with its sign bit set, values shared by two tables, a Fortran-ordered
    # table, a one-row and an empty table
    tiny = np.nextafter(0.0, 1.0)
    a = np.array([[0.0, -0.0, tiny], [-tiny, 2.2250738585072009e-308, -2.2250738585072014e-308],
                  [1e16, 1e17, np.nextafter(1e17, 0.0)], [1e-4, 1e-5, np.nextafter(1e-4, 0.0)],
                  [np.inf, -np.inf, np.nan], [0.1, -0.0, 1e16], [-np.nan, -0.1, -1e-5]])
    fortran = np.asfortranarray(np.array([[0.1, 2.0, -0.0], [3.0, 1e-5, 0.1]]))
    one = np.array([[0.5, -0.0, 0.5]])
    tables = (a, fortran, one, np.zeros((0, 3)))
    formatted = []
    cell_text = meshing._cell_text

    def recording(values):
        formatted.append(values)
        return cell_text(values)

    monkeypatch.setattr(meshing, "_cell_text", recording)
    got = vertex_cells(*tables)
    assert [c.shape for c in got] == [(21, 24), (6, 24), (3, 24), (0, 24)]
    assert [decode(c) for c in got] == [[FLOAT_FMT % v for v in t.reshape(-1).tolist()]
                                        for t in tables]
    assert decode(got[0][:2]) == ["0", "-0"] and decode(got[0][12:15]) == ["inf", "-inf", "nan"]
    assert decode(got[0][5:6]) == ["-2.2250738585072014e-308"]
    assert decode(got[0][18:19]) == ["nan"]
    # one % call, on the distinct |v| alone: v and -v share their digits
    values = np.concatenate([t.reshape(-1) for t in tables])
    (texted,) = formatted
    assert sorted(np.array(texted).view(np.int64).tolist()) == sorted(
        set(np.abs(values).view(np.int64).tolist()))


def test_cell_text_equals_float_fmt_on_a_million_doubles():
    # the fixed-point kernel and the % path it leaves to, against FLOAT_FMT % v
    # value by value: every decade of %g's two notations and both roundings of
    # a 17th digit, integers and half-integers whose text has trailing zeros
    # in the integer part, and the doubles next to each power of 10
    rng = np.random.default_rng(29)
    powers = np.array([float("1e%d" % e) for e in range(-6, 19)])
    values = np.concatenate([
        rng.uniform(0.0, 10.0, 250_000),
        10.0 ** rng.uniform(-300.0, 300.0, 250_000),
        rng.integers(0, 2 ** 53, 200_000).astype(float),
        rng.integers(0, 2 ** 52, 200_000) + 0.5,
        rng.integers(1, 10 ** 4, 100_000) * 10.0 ** rng.integers(-4, 13, 100_000),
        np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])
    assert len(values) >= 1_000_000
    cells = meshing._cell_text(values)
    assert cells.shape == (len(values), CELL - 1)
    rows = np.concatenate([cells, np.full((len(values), 1), ord("\n"), np.uint8)], axis=1)
    want = "".join(FLOAT_FMT % v + "\n" for v in values.tolist()).encode()
    assert rows[rows != 0].tobytes() == want


def oracle_obj(mesh) -> bytes:
    verts = "".join("v %s %s %s\n" % tuple(FLOAT_FMT % v for v in row)
                    for row in mesh.vertices.tolist())
    faces = "".join(("f" + " %d" * len(f) + "\n") % tuple(i + 1 for i in f) for f in mesh.faces)
    return (verts + faces).encode()


def oracle_csv(mesh) -> bytes:
    header = ["x", "y", "z"] + sorted(mesh.attributes)
    table = np.column_stack([mesh.vertices] + [mesh.attributes[k] for k in header[3:]])
    return (",".join(header) + "\r\n" + "".join(",".join(FLOAT_FMT % v for v in row) + "\r\n"
                                               for row in table.tolist())).encode()


def assert_exports_match_oracle(tmp_path, *meshes):
    # OBJ from one shared table, as generate writes it, and from each mesh's own
    cells = vertex_cells(*(m.vertices for m in meshes))
    for i, (mesh, own) in enumerate(zip(meshes, cells)):
        for shared in (own, None):
            export_obj(mesh, tmp_path / "m.obj", shared)
            assert (tmp_path / "m.obj").read_bytes() == oracle_obj(mesh), i
        export_csv(mesh, tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_bytes() == oracle_csv(mesh), i


@pytest.mark.parametrize("curve", [epi(2, 0.5), make_circle()], ids=["epi", "circle"])
def test_generate_meshes_export_as_oracle(curve, tmp_path):
    # generate's 256x33 --clip mesh and half-cut
    distance = find_strip(curve).distance
    h = 0.9 * distance if math.isfinite(distance) else 1.0
    mesh = sample_mesh(surface_patch(curve, curve.domain, (-h, h), 256, 33))
    assert_exports_match_oracle(tmp_path, mesh, clip_halfspace(mesh, (0.0, 0.0, 1.0), 0.0))


def test_oblique_cut_exports_as_oracle(tmp_path):
    curve = epi(3, 0.6)
    h = find_strip(curve).cap
    mesh = sample_mesh(surface_patch(curve, curve.domain, (-h, h), 60, 11))
    cut = clip_halfspace(mesh, (0.3, 0.5, 0.8), 0.1)
    assert sorted({len(f) for f in cut.faces}) == [3, 4, 5]
    assert_exports_match_oracle(tmp_path, cut)


@pytest.mark.parametrize("n", [3, 9, 10, 11, 99, 100, 101, 999, 1000, 1001])
def test_vertex_counts_across_digit_widths_export_as_oracle(n, tmp_path):
    # face indices on both sides of each digit width; coordinates with the
    # widest text, signed zeros, subnormals and the 1e16/1e17 boundary, and
    # attributes with inf and nan of either sign (CSV only: OBJ vertices are finite)
    special = [-2.2250738585072014e-308, 0.0, -0.0, 5e-324, -5e-324, 1e16,
               np.nextafter(1e16, 0.0), 1e17, -np.nextafter(1e17, 0.0), 0.1, -1e-5, 123.0]
    rng = np.random.default_rng(n)
    vertices = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-20, 20, (n, 3))
    vertices.flat[:min(len(special), 3 * n)] = special[:3 * n]
    faces = [(0, 1, 2), (n - 3, n - 2, n - 1), (n - 1, 0, n // 2, n - 2), (n // 3, n - 1, 1, 0, 2)]
    odd = np.array([np.inf, -np.inf, np.nan, -np.nan, -0.0] * n)[:n]
    mesh = SurfaceMesh.from_faces(vertices, faces, attributes={"abs_g": odd, "s": -vertices[:, 0]})
    assert_exports_match_oracle(tmp_path, mesh)


def test_empty_and_one_vertex_meshes_export_as_oracle(tmp_path):
    empty = SurfaceMesh.from_faces(np.zeros((0, 3)), [], attributes={"t": np.zeros(0)})
    one = SurfaceMesh.from_faces(np.array([[-0.0, 5e-324, 1e17]]), [],
                                 attributes={"abs_g": np.array([-np.nan])})
    assert_exports_match_oracle(tmp_path, empty, one)
    assert_exports_match_oracle(tmp_path, one)


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
