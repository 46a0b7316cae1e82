"""Patch sampling into meshes, half-space clipping, and deterministic export.

A `SurfaceMesh` stores its faces once, in CSR form: face f is
``indices[offsets[f]:offsets[f + 1]]`` for grid quads, clipped polygons and
OBJ faces alike, and every function here works on those arrays.  ``faces`` is
a derived tuple list for inspection; `SurfaceMesh.from_faces` builds a mesh
from one.  A mesh is validated once, when it is built.

OBJ is ASCII with 17-significant-digit floats; PLY is binary little endian
with float64 properties (faces triangulated by fan split since many PLY
consumers reject quads); CSV is RFC-4180 style with a mandatory header.  All
writers are byte-deterministic for identical input.

`vertex_texts` is the one place a float becomes text, for the OBJ and CSV
writers alike: every value is written exactly as ``FLOAT_FMT % value``, but
each distinct value (bit pattern) is formatted once per call and its text
shared.  `generate` builds one table for the mesh and its half-cut, which
share most vertices, and a symmetric patch repeats most of its own values
(its rows with s < 0 mirror those with s > 0).  A table with few repeated
values, such as a patch over an asymmetric s-range, pays for the sort and
the sharing: with none repeated, about 1.5x the vertex block's time of
formatting each value in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .schwarz import PatchGrid

FLOAT_FMT = "%.17g"
PLY_FACE = np.dtype([("n", "u1"), ("i", "<i4", 3)])  # packed, 13 bytes a triangle


@dataclass
class SurfaceMesh:
    vertices: np.ndarray                      # (n, 3) float
    offsets: np.ndarray                       # (F + 1,) int64, offsets[0] = 0
    indices: np.ndarray                       # (offsets[-1],) int64 vertex indices
    attributes: dict[str, np.ndarray] = field(default_factory=dict)
    tags: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.validate()

    @classmethod
    def from_faces(cls, vertices, faces, attributes=None) -> SurfaceMesh:
        return cls(np.asarray(vertices, dtype=float), np.cumsum([0] + [len(f) for f in faces]),
                   [i for f in faces for i in f], dict(attributes or {}))

    @property
    def faces(self) -> list[tuple[int, ...]]:
        bounds, idx = self.offsets.tolist(), self.indices.tolist()
        return [tuple(idx[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]

    def validate(self) -> None:
        if np.ndim(self.vertices) != 2 or np.shape(self.vertices)[1] != 3:
            raise ValueError("vertices must have shape (n, 3), not %s" % (np.shape(self.vertices),))
        if np.any(~np.isfinite(self.vertices)):
            raise ValueError("mesh contains non-finite vertex coordinates")
        if len(self.offsets) == 0 or self.offsets[0] != 0 or self.offsets[-1] != len(self.indices):
            raise ValueError("face offsets do not span the index array")
        if np.any(np.diff(self.offsets) < 3):
            raise ValueError("face with fewer than 3 corners")
        if len(self.indices) and (self.indices.min() < 0
                                  or self.indices.max() >= len(self.vertices)):
            raise ValueError("face index out of range")


def _corners(mesh: SurfaceMesh):
    """Per corner: its face, and the position of the next corner of that face."""
    nxt = np.arange(1, len(mesh.indices) + 1)
    nxt[mesh.offsets[1:] - 1] = mesh.offsets[:-1]
    return np.repeat(np.arange(len(mesh.offsets) - 1), np.diff(mesh.offsets)), nxt


def _fan(mesh: SurfaceMesh) -> np.ndarray:
    """(T, 3) fan triangles (f[0], f[a], f[a+1]), a = 1 .. m-2, face by face."""
    face, nxt = _corners(mesh)
    first = mesh.offsets[face]
    pos = np.arange(len(mesh.indices))
    mid = (pos > first) & (nxt > pos)           # neither the first nor the last corner
    return mesh.indices[np.stack([first[mid], pos[mid], nxt[mid]], axis=-1)]


def sample_mesh(patch: PatchGrid) -> SurfaceMesh:
    """Quad mesh over the patch's grid with density and |g| vertex attributes."""
    ns_, nt_ = patch.points.shape[:2]
    vertices = patch.points.reshape(ns_ * nt_, 3).copy()
    corner = (np.arange(ns_ - 1, dtype=np.int64)[:, None] * nt_
              + np.arange(nt_ - 1, dtype=np.int64)).reshape(-1, 1)
    indices = (corner + np.array([0, 1, nt_ + 1, nt_], dtype=np.int64)).reshape(-1)
    density = patch.conformal_factor().reshape(-1)
    den = patch.phi[:, :, 0] - 1j * patch.phi[:, :, 1]
    with np.errstate(divide="ignore"):
        abs_g = (np.abs(patch.phi[:, :, 2]) / np.abs(den)).reshape(-1)
    ss, ts = (g.reshape(-1) for g in np.meshgrid(patch.s_vals, patch.t_vals, indexing="ij"))
    row = patch.geodesic_row
    tags = {} if row is None else {"geodesic_row": list(range(row * nt_, (row + 1) * nt_))}
    return SurfaceMesh(vertices, 4 * np.arange(len(corner) + 1), indices,
                       {"t": ts, "s": ss, "density": density, "abs_g": abs_g}, tags)


def clip_halfspace(mesh: SurfaceMesh, normal, offset: float) -> SurfaceMesh:
    """Keep the side normal.x >= offset; crossing faces are split at the plane.

    New vertices are interpolated on crossing edges (attributes included) and
    shared between adjacent faces; they are numbered in the order their edges
    are first met, face by face, and interpolated in that first orientation.
    Faces left with fewer than 3 corners are dropped.
    """
    dist = mesh.vertices @ np.asarray(normal, dtype=float) - offset
    keep = dist >= 0.0
    n = len(mesh.vertices)
    face, nxt = _corners(mesh)
    i, j = mesh.indices, mesh.indices[nxt]
    kept = keep[i]
    cut = kept != keep[j]

    # one new vertex per cut edge, (i, j) and (j, i) alike
    ci, cj = i[cut], j[cut]
    _, first, which = np.unique(np.minimum(ci, cj) * n + np.maximum(ci, cj),
                                return_index=True, return_inverse=True)
    at = np.sort(first)
    ci, cj = ci[at], cj[at]
    t = dist[ci] / (dist[ci] - dist[cj])
    V = mesh.vertices
    vertices = np.concatenate([V, V[ci] + t[:, None] * (V[cj] - V[ci])])
    attributes = {k: np.concatenate([a, a[ci] + t * (a[cj] - a[ci])])
                  for k, a in mesh.attributes.items()}

    # per edge up to two corners: the kept end, then the cut point
    candidates = np.stack([i, np.zeros_like(i)], axis=-1)
    candidates[cut, 1] = n + np.argsort(np.argsort(first))[which]
    counts = np.concatenate([[0], np.cumsum(kept.astype(np.int64) + cut)])
    sizes = counts[mesh.offsets[1:]] - counts[mesh.offsets[:-1]]
    valid = np.stack([kept, cut], axis=-1) & (sizes >= 3)[face][:, None]
    used, indices = np.unique(candidates[valid], return_inverse=True)
    return SurfaceMesh(vertices[used], np.concatenate([[0], np.cumsum(sizes[sizes >= 3])]),
                       indices, {k: v[used] for k, v in attributes.items()})


def mesh_area(mesh: SurfaceMesh) -> float:
    """Total area by fan-triangulated face summation."""
    a, b, c = np.moveaxis(mesh.vertices[_fan(mesh)], 1, 0)
    return float(0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=-1).sum())


def vertex_texts(*tables) -> list[tuple[str, ...]]:
    """The ``FLOAT_FMT`` text of every value of each table, in row-major order.

    The one place a float becomes text: each distinct value among all the
    tables is formatted once, by a single % call, and its text is shared by
    every place it occurs.  Values are keyed by their bit pattern, so 0.0 and
    -0.0 keep their own text; inf and nan format as % formats them.  The
    distinct keys come from a stable argsort, the sort `clip_halfspace`'s
    ``np.unique(return_index=True)`` already runs (a plain sort maps more
    sort-kernel code into the process).
    """
    flat = [np.asarray(t, dtype=np.float64).reshape(-1) for t in tables]
    keys = np.concatenate(flat).view(np.int64)
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    first = np.ones(len(ranked), dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    values = ranked[first].view(np.float64).tolist()
    texts = ((FLOAT_FMT + "\n") * len(values) % tuple(values)).split("\n")
    table = np.empty(len(keys), dtype=object)
    table[order] = np.array(texts, dtype=object)[np.cumsum(first) - 1]
    bounds = np.cumsum([0] + [len(f) for f in flat]).tolist()
    return [tuple(table[a:b].tolist()) for a, b in zip(bounds[:-1], bounds[1:])]


def _write(path, data: bytes, kind: str) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise OSError("cannot write %s to %s: %s" % (kind, path, exc)) from exc


def export_obj(mesh: SurfaceMesh, path, text=None) -> None:
    """Write ``mesh`` as OBJ; ``text`` is its `vertex_texts` entry when the
    caller has already formatted it together with other meshes."""
    if text is None:
        text, = vertex_texts(mesh.vertices)
    sizes = np.diff(mesh.offsets).tolist()
    templates = {m: "f" + " %d" * m + "\n" for m in set(sizes)}
    faces = "".join(map(templates.__getitem__, sizes)) % tuple((mesh.indices + 1).tolist())
    _write(path, ("v %s %s %s\n" * len(mesh.vertices) % text + faces).encode(), "OBJ")


def load_obj(path) -> SurfaceMesh:
    vertices, sizes, indices = [], [0], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if parts[:1] == ["v"]:
                vertices.append([float(x) for x in parts[1:4]])
            elif parts[:1] == ["f"]:
                sizes.append(len(parts) - 1)
                indices.extend(int(tok.split("/")[0]) - 1 for tok in parts[1:])
    return SurfaceMesh(np.array(vertices, dtype=float) if vertices else np.zeros((0, 3)),
                       np.cumsum(sizes), indices)


def export_ply(mesh: SurfaceMesh, path) -> None:
    attr_names = sorted(k for k in mesh.attributes if k not in ("t", "s"))
    fan = _fan(mesh)
    tris = np.zeros(len(fan), dtype=PLY_FACE)
    tris["n"], tris["i"] = 3, fan
    header = (["ply", "format binary_little_endian 1.0", "element vertex %d" % len(mesh.vertices)]
              + ["property float64 %s" % k for k in ["x", "y", "z"] + attr_names]
              + ["element face %d" % len(tris), "property list uint8 int32 vertex_indices",
                 "end_header", ""])
    table = np.column_stack([mesh.vertices] + [mesh.attributes[k] for k in attr_names])
    _write(path, "\n".join(header).encode("ascii") + table.astype("<f8").tobytes()
           + tris.tobytes(), "PLY")


def export_csv(mesh: SurfaceMesh, path) -> None:
    header = ["x", "y", "z"] + sorted(mesh.attributes)
    table = np.column_stack([mesh.vertices] + [mesh.attributes[k] for k in header[3:]])
    text, = vertex_texts(table)
    rows = (",".join(["%s"] * len(header)) + "\r\n") * len(table) % text
    _write(path, (",".join(header) + "\r\n" + rows).encode(), "CSV")
