"""Independent output checks for the benchmark operations.

The oracles here use their own closed forms, not the program's series code:

* planar oracle: the Schwarz surface through a planar curve c = (x, y)
  has f1 = Re x(t+is) and f2 = Re y(t+is) exactly;
* catenoid oracle: through the unit circle the surface is
  (cos t cosh s, sin t cosh s, -s);
* half-space cut: every vertex of the cut mesh is either a vertex of the full
  mesh with z >= 0 or a new vertex on the plane z = 0, and no full-mesh
  vertex with z >= 0 is lost.

Each check returns a list of failure messages (empty when it passes).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

ORACLE_TOL = 1e-9


def epitrochoid_xy(k: int, lam: float, z):
    """Closed-form complexified epitrochoid (x(z), y(z))."""
    amp = (k + 1) * lam
    return ((k + 2) * np.cos(z) - amp * np.cos((k + 2) * z),
            (k + 2) * np.sin(z) - amp * np.sin((k + 2) * z))


def circle_xy(z):
    return np.cos(z), np.sin(z)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def pass_line(stdout: str, rc: int, what: str) -> list[str]:
    """Exit code 0 and a final line that reports PASS."""
    errors = []
    if rc != 0:
        errors.append("%s: exit code %r" % (what, rc))
    lines = stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    if not (last == "PASS" or last.endswith(": PASS")):
        errors.append("%s: no PASS line (last line %r)" % (what, last))
    return errors


def planar_oracle(points: np.ndarray, t_vals, s_vals, xy, what: str) -> list[str]:
    """|f1 - Re x(t+is)| and |f2 - Re y(t+is)| within ORACLE_TOL on a (ns, nt, 3) grid."""
    z = np.asarray(t_vals)[None, :] + 1j * np.asarray(s_vals)[:, None]
    x, y = xy(z)
    err = max(float(np.max(np.abs(points[..., 0] - x.real))),
              float(np.max(np.abs(points[..., 1] - y.real))))
    if not err <= ORACLE_TOL:
        return ["%s: planar oracle error %.3e > %.0e" % (what, err, ORACLE_TOL)]
    return []


def catenoid_oracle(points: np.ndarray, t_vals, s_vals, what: str) -> list[str]:
    t = np.asarray(t_vals)[None, :]
    s = np.asarray(s_vals)[:, None]
    exact = np.stack(np.broadcast_arrays(np.cos(t) * np.cosh(s), np.sin(t) * np.cosh(s),
                                         -s + 0.0 * t), axis=-1)
    err = float(np.max(np.abs(points - exact)))
    if not err <= ORACLE_TOL:
        return ["%s: catenoid oracle error %.3e > %.0e" % (what, err, ORACLE_TOL)]
    return []


def halfcut_check(full: np.ndarray, cut: np.ndarray, what: str) -> list[str]:
    """Cut mesh = full-mesh vertices with z >= 0 plus new vertices on z = 0."""
    upper = {tuple(v) for v in full[full[:, 2] >= 0.0]}
    kept = set()
    for v in map(tuple, cut):
        if v in upper:
            kept.add(v)
        elif not abs(v[2]) <= ORACLE_TOL:
            return ["%s: vertex %r is neither kept nor on the cut plane" % (what, v)]
    if len(kept) != len(upper):
        return ["%s: %d of %d vertices with z >= 0 missing" % (
            what, len(upper) - len(kept), len(upper))]
    return []


def generate_outputs(stdout: str, rc: int, what: str):
    """Paths listed on the 'wrote ...' line of `bjorling generate`, and errors."""
    if rc != 0:
        return [], ["%s: exit code %r" % (what, rc)]
    for line in stdout.splitlines():
        if line.startswith("wrote "):
            return [p.strip() for p in line[len("wrote "):].split(",")], []
    return [], ["%s: no 'wrote' line" % what]


def generate_mesh_checks(paths: list[str], load_obj, xy, domain, catenoid: bool,
                         what: str) -> list[str]:
    """Oracle checks on the OBJ files and summary written by one generate call."""
    summary_path = next((p for p in paths if p.endswith("_summary.json")), None)
    objs = [p for p in paths if p.endswith(".obj")]
    full = [p for p in objs if not p.endswith("_halfcut.obj")]
    cut = [p for p in objs if p.endswith("_halfcut.obj")]
    if summary_path is None or len(full) != 1 or len(cut) != 1:
        return ["%s: expected one mesh, one half-cut mesh and a summary, got %r"
                % (what, paths)]
    with open(summary_path) as fh:
        summary = json.load(fh)
    nt, ns, h = summary["nt"], summary["ns"], summary["strip_halfwidth_used"]
    t_vals = np.linspace(domain[0], domain[1], nt)
    s_vals = np.linspace(-h, h, ns)
    vertices = load_obj(full[0]).vertices
    if vertices.shape != (nt * ns, 3):
        return ["%s: OBJ has %d vertices, expected %d" % (what, len(vertices), nt * ns)]
    grid = vertices.reshape(ns, nt, 3)
    errors = planar_oracle(grid, t_vals, s_vals, xy, what + " OBJ")
    if catenoid:
        errors += catenoid_oracle(grid, t_vals, s_vals, what + " OBJ")
    errors += halfcut_check(vertices, load_obj(cut[0]).vertices, what + " half-cut OBJ")
    return errors
