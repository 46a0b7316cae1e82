"""Patch sampling into meshes, half-space clipping, and deterministic export.

OBJ is ASCII with 17-significant-digit floats; PLY is binary little endian
with float64 properties (faces triangulated by fan split since many PLY
consumers reject quads); CSV is RFC-4180 style with a mandatory header.  All
writers are byte-deterministic for identical input.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .curves import PlanarCurve
from .schwarz import PatchGrid, surface_patch

FLOAT_FMT = "%.17g"


@dataclass
class SurfaceMesh:
    vertices: np.ndarray                      # (n, 3) float
    faces: list[tuple[int, ...]]              # quads, triangles, or clipped polygons
    attributes: dict[str, np.ndarray] = field(default_factory=dict)
    tags: dict = field(default_factory=dict)

    def validate(self) -> None:
        if np.any(~np.isfinite(self.vertices)):
            raise ValueError("mesh contains non-finite vertex coordinates")
        n = len(self.vertices)
        for face in self.faces:
            if any(i < 0 or i >= n for i in face):
                raise ValueError("face index out of range")


def sample_mesh(curve: PlanarCurve, t_range, s_range, nt: int, ns: int,
                patch: PatchGrid | None = None, workers: int = 1) -> SurfaceMesh:
    """Quad mesh over the surface grid with density and |g| vertex attributes."""
    if patch is None:
        patch = surface_patch(curve, t_range, s_range, nt, ns, workers=workers)
    ns_, nt_ = patch.points.shape[:2]
    vertices = patch.points.reshape(ns_ * nt_, 3).copy()
    faces = []
    for l in range(ns_ - 1):
        for j in range(nt_ - 1):
            a = l * nt_ + j
            faces.append((a, a + 1, a + nt_ + 1, a + nt_))
    density = patch.conformal_factor().reshape(-1)
    den = patch.phi[:, :, 0] - 1j * patch.phi[:, :, 1]
    with np.errstate(divide="ignore"):
        abs_g = (np.abs(patch.phi[:, :, 2]) / np.abs(den)).reshape(-1)
    ts = np.broadcast_to(patch.t_vals[None, :], (ns_, nt_)).reshape(-1).copy()
    ss = np.broadcast_to(patch.s_vals[:, None], (ns_, nt_)).reshape(-1).copy()
    mesh = SurfaceMesh(
        vertices=vertices,
        faces=faces,
        attributes={"t": ts, "s": ss, "density": density, "abs_g": abs_g},
    )
    row = patch.geodesic_row
    if row is not None:
        mesh.tags["geodesic_row"] = [row * nt_ + j for j in range(nt_)]
    mesh.validate()
    return mesh


def clip_halfspace(mesh: SurfaceMesh, normal, offset: float) -> SurfaceMesh:
    """Keep the side normal.x >= offset; crossing faces are split at the plane.

    New vertices are interpolated on crossing edges (attributes included) and
    shared between adjacent faces.
    """
    normal = np.asarray(normal, dtype=float)
    dist = mesh.vertices @ normal - offset
    keep = dist >= 0.0

    new_vertices = [mesh.vertices]
    new_attrs = {k: [v] for k, v in mesh.attributes.items()}
    edge_cache: dict[tuple[int, int], int] = {}
    next_index = len(mesh.vertices)

    def cut_edge(i: int, j: int) -> int:
        nonlocal next_index
        key = (i, j) if i < j else (j, i)
        if key in edge_cache:
            return edge_cache[key]
        t = dist[i] / (dist[i] - dist[j])
        point = mesh.vertices[i] + t * (mesh.vertices[j] - mesh.vertices[i])
        new_vertices.append(point[None, :])
        for k, stack in new_attrs.items():
            a = mesh.attributes[k]
            stack.append(np.asarray([a[i] + t * (a[j] - a[i])]))
        edge_cache[key] = next_index
        next_index += 1
        return edge_cache[key]

    faces = []
    for face in mesh.faces:
        inside = [keep[i] for i in face]
        if all(inside):
            faces.append(face)
            continue
        if not any(inside):
            continue
        clipped: list[int] = []
        m = len(face)
        for a in range(m):
            b = (a + 1) % m
            i, j = face[a], face[b]
            if keep[i]:
                clipped.append(i)
            if keep[i] != keep[j]:
                clipped.append(cut_edge(i, j))
        if len(clipped) >= 3:
            faces.append(tuple(clipped))

    vertices = np.concatenate(new_vertices, axis=0)
    attributes = {k: np.concatenate(v) for k, v in new_attrs.items()}

    used = sorted({i for face in faces for i in face})
    remap = {old: new for new, old in enumerate(used)}
    out = SurfaceMesh(
        vertices=vertices[used],
        faces=[tuple(remap[i] for i in face) for face in faces],
        attributes={k: v[used] for k, v in attributes.items()},
        tags={},
    )
    out.validate()
    return out


def mesh_area(mesh: SurfaceMesh) -> float:
    """Total area by fan-triangulated face summation."""
    total = 0.0
    V = mesh.vertices
    for face in mesh.faces:
        for a in range(1, len(face) - 1):
            u = V[face[a]] - V[face[0]]
            w = V[face[a + 1]] - V[face[0]]
            total += 0.5 * float(np.linalg.norm(np.cross(u, w)))
    return total


def export_obj(mesh: SurfaceMesh, path) -> None:
    mesh.validate()
    lines = []
    for v in mesh.vertices:
        lines.append("v %s %s %s" % (FLOAT_FMT % v[0], FLOAT_FMT % v[1], FLOAT_FMT % v[2]))
    for face in mesh.faces:
        lines.append("f " + " ".join(str(i + 1) for i in face))
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines))
            if lines:
                fh.write("\n")
    except OSError as exc:
        raise OSError("cannot write OBJ to %s: %s" % (path, exc)) from exc


def load_obj(path) -> SurfaceMesh:
    vertices = []
    faces = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                vertices.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                faces.append(tuple(int(tok.split("/")[0]) - 1 for tok in parts[1:]))
    mesh = SurfaceMesh(vertices=np.asarray(vertices, dtype=float), faces=faces)
    mesh.validate()
    return mesh


def _triangulated(mesh: SurfaceMesh):
    for face in mesh.faces:
        for a in range(1, len(face) - 1):
            yield (face[0], face[a], face[a + 1])


def export_ply(mesh: SurfaceMesh, path) -> None:
    mesh.validate()
    attr_names = sorted(k for k in mesh.attributes if k not in ("t", "s"))
    tris = list(_triangulated(mesh))
    header = ["ply", "format binary_little_endian 1.0",
              "element vertex %d" % len(mesh.vertices),
              "property float64 x", "property float64 y", "property float64 z"]
    header += ["property float64 %s" % k for k in attr_names]
    header += ["element face %d" % len(tris),
               "property list uint8 int32 vertex_indices", "end_header"]
    try:
        with open(path, "wb") as fh:
            fh.write(("\n".join(header) + "\n").encode("ascii"))
            cols = [mesh.vertices[:, 0], mesh.vertices[:, 1], mesh.vertices[:, 2]]
            cols += [np.asarray(mesh.attributes[k], dtype=float) for k in attr_names]
            block = np.stack(cols, axis=-1).astype("<f8")
            fh.write(block.tobytes())
            for tri in tris:
                fh.write(struct.pack("<B3i", 3, *tri))
    except OSError as exc:
        raise OSError("cannot write PLY to %s: %s" % (path, exc)) from exc


def export_csv(mesh: SurfaceMesh, path) -> None:
    mesh.validate()
    attr_names = sorted(mesh.attributes)
    header = ["x", "y", "z"] + attr_names
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\r\n")
            for i, v in enumerate(mesh.vertices):
                row = [FLOAT_FMT % v[0], FLOAT_FMT % v[1], FLOAT_FMT % v[2]]
                row += [FLOAT_FMT % mesh.attributes[k][i] for k in attr_names]
                fh.write(",".join(row) + "\r\n")
    except OSError as exc:
        raise OSError("cannot write CSV to %s: %s" % (path, exc)) from exc
