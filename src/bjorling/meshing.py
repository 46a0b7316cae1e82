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

The OBJ and CSV writers assemble their text as numpy byte matrices, whose 0
bytes are dropped at the end.  `vertex_cells` is the one place a float
becomes text: every value is written exactly as ``FLOAT_FMT % value``, as a
sign byte and the text of |value|, and each distinct |value| (bit pattern) is
formatted once per call.  `_cell_text` writes the digits of each |value| in
[1e-4, 1e16) with numpy, from an exact (Dekker) product, and leaves the rest
(zeros, subnormals, exponent notation, inf and nan) to one % call.
`generate` builds one table for the mesh and its half-cut, which share most
vertices, and a symmetric patch repeats most of its own |values| (its rows
with s < 0 mirror those with s > 0, f3 negated).  OBJ face lines gather the
digits of each vertex number, laid out once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .continuation import velocity
from .schwarz import PatchGrid

FLOAT_FMT = "%.17g"
CELL = 24   # a sign byte, then the longest %.17g text of a non-negative double
PLY_FACE = np.dtype([("n", "u1"), ("i", "<i4", 3)])  # packed, 13 bytes a triangle
_POW10 = np.array([float(10 ** q) for q in range(23)])  # exact doubles up to 1e22
_SPLIT = float(2 ** 27 + 1)                               # Veltkamp's splitter
_PREFIX = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]  # of E = -1 .. -4
_ROWS = np.arange(CELL - 1, dtype=np.uint8)[:, None]
_QUADS = (np.arange(10 ** 4) // np.array([[1000], [100], [10], [1]]) % 10
          + ord("0")).astype(np.uint8)                    # column q: the 4 digits of q


@dataclass
class SurfaceMesh:
    vertices: np.ndarray                      # (n, 3) float
    offsets: np.ndarray                       # (F + 1,) int64, offsets[0] = 0
    indices: np.ndarray                       # (offsets[-1],) int64 vertex indices
    attributes: dict[str, np.ndarray] = field(default_factory=dict)

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
    """Quad mesh over the patch's grid with density and |g| vertex attributes.

    Both come from |P| and |Q| of one ``velocity`` call on the grid, with no W: the
    conformal factor (1/2) sum |Phi_i|^2 = (|P| + |Q|)^2/4 and |g| = |i W/Q| =
    sqrt(|P|/|Q|).  Rebuilding Q as Phi1 - i Phi2 = (P + Q)/2 + (Q - P)/2 would
    cancel where |P| >> |Q|.
    """
    ns_, nt_ = patch.points.shape[:2]
    vertices = patch.points.reshape(ns_ * nt_, 3).copy()
    corner = (np.arange(ns_ - 1, dtype=np.int64)[:, None] * nt_
              + np.arange(nt_ - 1, dtype=np.int64)).reshape(-1, 1)
    indices = (corner + np.array([0, 1, nt_ + 1, nt_], dtype=np.int64)).reshape(-1)
    p, q, _ = velocity(patch.curve, patch.t_vals[None, :], patch.s_vals[:, None])
    abs_p, abs_q = np.abs(p).reshape(-1), np.abs(q).reshape(-1)
    density = 0.25 * (abs_p + abs_q) ** 2
    with np.errstate(divide="ignore"):
        abs_g = np.sqrt(abs_p / abs_q)
    ss, ts = (g.reshape(-1) for g in np.meshgrid(patch.s_vals, patch.t_vals, indexing="ij"))
    return SurfaceMesh(vertices, 4 * np.arange(len(corner) + 1), indices,
                       {"t": ts, "s": ss, "density": density, "abs_g": abs_g})


def clip_halfspace(mesh: SurfaceMesh, normal, offset: float) -> SurfaceMesh:
    """Keep the side normal.x >= offset; crossing faces are split at the plane.

    New vertices are interpolated on crossing edges, those whose ends lie
    strictly on opposite sides (attributes included), and shared between
    adjacent faces; they are numbered in the order their edges are first met,
    face by face, and interpolated in that first orientation.  A vertex on the
    plane is kept as it is, so it gets no copy.  Faces left with fewer than 3
    corners are dropped.
    """
    dist = mesh.vertices @ np.asarray(normal, dtype=float) - offset
    side = np.sign(dist)
    n = len(mesh.vertices)
    face, nxt = _corners(mesh)
    i, j = mesh.indices, mesh.indices[nxt]
    kept = side[i] >= 0
    cut = side[i] * side[j] < 0

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


def _two_product(a: np.ndarray, b: np.ndarray):
    """(p, err) with p = fl(a b) and p + err = a b exactly: Dekker's product on
    Veltkamp's halves (Numer. Math. 18, 1971), with no FMA, for products that
    neither overflow nor underflow."""
    ca, cb = _SPLIT * a, _SPLIT * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    p = a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _decade(p: np.ndarray, err: np.ndarray) -> np.ndarray:
    """-1, 0 or +1 as the exact p + err lies below, in or above [1e16, 1e17).
    Both ends are doubles, and |err| is at most half of p's ulp, which is 2
    next to 1e16 and 16 next to 1e17."""
    below = (p < 1e16) | ((p == 1e16) & (err < 0))
    above = (p > 1e17) | ((p == 1e17) & (err >= 0))
    return above.astype(np.int64) - below


def _cell_text(values: np.ndarray) -> np.ndarray:
    """(m, CELL - 1) bytes: the text of ``FLOAT_FMT % v`` for each v >= 0 or
    nan, with 0 bytes where it has no character.

    A v in [1e-4, 1e16) has a fixed-point text.  Its 17 significant digits are
    N = v 10^(16-E) rounded half-even, with E = floor(log10 v), and N comes
    from the exact product p + err of `_two_product`: p >= 1e16 > 2^53 is an
    even integer, so p + rint(err) rounds half-even as % does.  N never rounds
    up to 1e17: the largest double below each 10^j, j = -3 .. 16, is at least
    8e-17 of 10^j away, and that carry needs 5e-18.  The digits follow "0.0…"
    when E < 0 and hold the point after digit E otherwise; the fraction's
    trailing zeros, and the point when no fraction is left, are 0 bytes.
    Every other value (0, subnormals, the exponent notation below 1e-4 and
    from 1e16 up, inf, nan) goes through one % call.  The text is built one
    byte position (a row of ``text``) at a time across all values, so that
    each numpy pass runs over the whole set.
    """
    values = np.asarray(values, dtype=np.float64)
    fixed = (values >= 1e-4) & (values < 1e16)
    v = np.where(fixed, values, 1.0)   # the other rows are overwritten by %
    e = np.floor(np.log10(v)).astype(np.int64)
    p, err = _two_product(v, _POW10[16 - e])
    shift = _decade(p, err)   # log10 rounds, so E is one off next to a power of 10
    if shift.any():
        e += shift
        p, err = _two_product(v, _POW10[16 - e])
    n = p.astype(np.int64) + np.rint(err).astype(np.int64)
    digits = np.zeros((18, len(v)), dtype=np.uint8)   # row 17 stays 0
    high, low = np.divmod(n, 10 ** 8)
    lead, high = np.divmod(high, 10 ** 8)
    digits[0] = lead + ord("0")
    for k, quad in enumerate(np.divmod(high, 10 ** 4) + np.divmod(low, 10 ** 4)):
        digits[1 + 4 * k:5 + 4 * k] = np.take(_QUADS, quad, axis=1)
    row = _ROWS[:18]
    last = np.max((digits > ord("0")) * row, axis=0)   # the last nonzero digit
    digits *= row <= np.maximum(last, e)
    text = np.empty((CELL - 1, len(v)), dtype=np.uint8)
    text[:5] = _PREFIX * (_ROWS[:5] < np.where(e < 0, 1 - e, 0))
    point = np.where(e >= 0, e + 1, 18)   # E < 0: the prefix holds it
    body = text[5:]
    body[:] = digits * (row < point)
    body[1:] += digits[:-1] * (row[1:] > point)
    body += (row == point) * np.where(last > e, ord("."), 0).astype(np.uint8)
    cells = text.T
    slow = np.flatnonzero(~fixed)
    rest = values[slow].tolist()
    other = np.frombuffer(("%-23.17g" * len(rest) % tuple(rest)).encode(), dtype=np.uint8)
    cells[slow] = (other * (other != ord(" "))).reshape(len(rest), CELL - 1)
    return cells


def vertex_cells(*tables) -> list[np.ndarray]:
    """Per table, the ``FLOAT_FMT`` text of each value in row-major order as an
    (n, CELL) byte array: a sign column (``-`` or 0) and the text of |v|, 0-padded.

    Each distinct |v| bit pattern among all the tables is formatted once, so
    v and -v share their digits, and nan prints as % prints it, unsigned.
    Ties in the sort do not change the text, so its default kind serves (the
    kernel `clip_halfspace`'s ``np.unique`` already runs).
    """
    flat = [np.asarray(t, dtype=np.float64).reshape(-1) for t in tables]
    values = np.concatenate(flat)
    keys = values.view(np.int64) & np.int64(0x7FFFFFFFFFFFFFFF)
    order = np.argsort(keys)
    ranked = keys[order]
    first = np.ones(len(ranked), dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    rank = np.empty(len(keys), dtype=np.int64)
    rank[order] = np.cumsum(first) - 1
    distinct = np.zeros((np.count_nonzero(first), CELL), dtype=np.uint8)
    distinct[:, 1:] = _cell_text(ranked[first].view(np.float64))
    cells = np.take(distinct, rank, axis=0)
    cells[:, 0] = np.where(np.signbit(values) & ~np.isnan(values), ord("-"), 0)
    bounds = np.cumsum([0] + [len(f) for f in flat]).tolist()
    return [cells[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _lines(cells: np.ndarray, lead: bytes, sep: bytes, end: bytes) -> bytes:
    """``lead + sep.join(row) + end`` for each row of (n, m, CELL) cells, laid
    out in one byte array whose 0 bytes are then dropped."""
    n, m, _ = cells.shape

    def column(text: bytes) -> np.ndarray:
        return np.broadcast_to(np.frombuffer(text, dtype=np.uint8), (n, len(text)))

    parts = [column(lead)]
    for c in range(m):
        parts += [cells[:, c], column(sep if c < m - 1 else end)]
    out = np.concatenate(parts, axis=1)
    return out[out != 0].tobytes()


def _face_lines(mesh: SurfaceMesh) -> bytes:
    """The OBJ ``f`` lines: the 1-based decimal digits of every vertex index
    are laid out once and gathered by ``mesh.indices``, one corner a row."""
    x = np.arange(1, len(mesh.vertices) + 1)
    width = len(str(len(mesh.vertices)))
    digits = np.zeros((len(x), width), dtype=np.uint8)
    for col in range(width - 1, -1, -1):
        digits[:, col] = np.where(x > 0, x % 10 + ord("0"), 0)
        x //= 10
    # per corner: "f" on a face's first, " ", the digits, "\n" on its last
    out = np.zeros((len(mesh.indices), width + 3), dtype=np.uint8)
    out[mesh.offsets[:-1], 0] = ord("f")
    out[:, 1] = ord(" ")
    out[:, 2:-1] = np.take(digits, mesh.indices, axis=0)
    out[mesh.offsets[1:] - 1, -1] = ord("\n")
    return out[out != 0].tobytes()


def _write(path, data: bytes, kind: str) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise OSError("cannot write %s to %s: %s" % (kind, path, exc)) from exc


def export_obj(mesh: SurfaceMesh, path, cells=None) -> None:
    """Write ``mesh`` as OBJ; ``cells`` is its `vertex_cells` entry when the
    caller has already formatted it together with other meshes."""
    if cells is None:
        cells, = vertex_cells(mesh.vertices)
    text = _lines(cells.reshape(len(mesh.vertices), 3, CELL), b"v ", b" ", b"\n")
    _write(path, text + _face_lines(mesh), "OBJ")


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
    cells, = vertex_cells(table)
    rows = _lines(cells.reshape(len(table), len(header), CELL), b"", b",", b"\r\n")
    _write(path, (",".join(header) + "\r\n").encode() + rows, "CSV")
