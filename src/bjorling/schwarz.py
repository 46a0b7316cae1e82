"""Schwarz solution of the planar-geodesic Bjorling problem.

Given a regular planar curve c, the holomorphic null triple

    Phi(z) = (x'(z), y'(z), i*W(z)),    W = sqrt(x'(z)^2 + y'(z)^2),

integrates to the unique minimal surface through c with the in-plane normal:
f(z) = c(t0) + Re int_{t0}^{z} Phi dw.  W is the strip branch from the
continuation module (positive on the real axis).  The curves are entire
series, so this is Bjorling's formula f = Re{c(z) - i int n x c' dw} evaluated
exactly where it can be:

    f1(t, s) = Re x(t + is),    f2(t, s) = Re y(t + is),
    f3(t, s) = -int_0^s Re W(t + i sigma) d sigma.

Only f3 needs quadrature (Phi3 is purely imaginary on the axis, so the axis
adds nothing).  It is one real integral per grid column, done with the nested
Gauss-Kronrod G7/K15 pair of QUADPACK (Piessens et al., 1983): all columns
advance together one s level at a time, x' and y' are evaluated once per
Kronrod node and reused for W, and |K15 - G7| is the per-column error
estimate.  W follows the one continuation rule of the continuation module:
every node is matched to the branch one panel back with ``match_branch``, and
columns that fail it, or the error test, are bisected on their own.
``schwarz_integrate`` runs the same panel and bisection along each segment of
a polyline, so it shares both the quadrature and the branch rule with the
patch.  A patch must stay inside ``Strip.cap`` of the curve's ``Strip`` from
``continuation.find_strip``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .continuation import (
    DEFAULT_REFINEMENT,
    PathPolyline,
    SingularityOnPath,
    Strip,
    derivative_series,
    find_strip,
    match_branch,
    singularity_scan,
    strip_sqrt_array,
)
from .curves import InvalidCurveParameters, PlanarCurve, regularity_margin

MAX_QUAD_DEPTH = 20
DEFAULT_QUAD_TOL = 1e-11
# multiple of the unit roundoff in the integrand's own rounding floor
ROUNDING_SAFETY = 16.0

# QUADPACK qk15: Kronrod abscissae xgk and weights wgk on [0, 1] (descending),
# and the weights wg of the 7-point Gauss rule, whose abscissae are xgk[1::2].
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.000000000000000000000000000000000)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)

# the 15 Kronrod nodes on [-1, 1] in ascending order; the Gauss nodes are the
# odd-indexed ones, K15_NODES[1::2]
K15_NODES = np.array([-x for x in _XGK[:7]] + list(_XGK[::-1]))
K15_WEIGHTS = np.array(_WGK + _WGK[6::-1])
G7_WEIGHTS = np.array(_WG + _WG[2::-1])


class QuadratureFailure(RuntimeError):
    """Adaptive refinement exceeded the maximum depth without converging."""


class StripTooWide(ValueError):
    """Requested |Im z| exceeds 0.9x the distance to the nearest speed^2 zero."""


def _weighted_sum(weights, values):
    # fixed-order accumulation: bitwise reproducible independent of array shape
    out = weights[0] * values[0]
    for w, v in zip(weights[1:], values[1:]):
        out = out + w * v
    return out


class HolomorphicTriple:
    """The null curve Phi = (x', y', i*sqrt(x'^2+y'^2)) with the strip branch.

    phi1^2 + phi2^2 + phi3^2 = 0 holds identically; on the real axis phi3 is
    purely imaginary with positive imaginary part.
    """

    def __init__(self, curve: PlanarCurve, refinement: float = DEFAULT_REFINEMENT):
        margin = regularity_margin(curve, 256)
        if margin <= 0:
            raise InvalidCurveParameters(
                "curve %s is not regular (speed^2 min = %g)" % (curve.label, margin))
        self.curve = curve
        self.refinement = refinement
        self._dx, self._dy = derivative_series(curve)

    def __call__(self, z):
        """Phi at strip points of any shape; the result has shape z.shape + (3,)."""
        z = np.asarray(z, dtype=complex)
        w = strip_sqrt_array(self.curve, z, self.refinement)
        return np.stack([self._dx(z), self._dy(z), 1j * w], axis=-1)

    def grid_values(self, t_vals, s_vals):
        """Phi on the grid, shape (ns, nt, 3); rows follow s_vals order."""
        t_vals = np.asarray(t_vals, dtype=float)
        s_vals = np.asarray(s_vals, dtype=float)
        return self(t_vals[None, :] + 1j * s_vals[:, None])


def phi(curve: PlanarCurve) -> HolomorphicTriple:
    """Null triple of the Schwarz solution for a regular planar curve."""
    return HolomorphicTriple(curve)


def planar_normal(curve: PlanarCurve, t):
    """Unit normal (-y', x', 0)/|c'| of the Bjorling data along the curve."""
    dx, dy = derivative_series(curve)
    vx = np.asarray(dx(np.asarray(t, dtype=float)), dtype=float)
    vy = np.asarray(dy(np.asarray(t, dtype=float)), dtype=float)
    speed = np.hypot(vx, vy)
    return np.stack([-vy / speed, vx / speed, 0.0 * speed], axis=-1)


def _point_segment_distance(z: complex, a: complex, b: complex) -> float:
    ab = b - a
    t = ((z - a) * ab.conjugate()).real / (ab * ab.conjugate()).real
    return abs(z - (a + min(1.0, max(0.0, t)) * ab))


def schwarz_integrate(triple: HolomorphicTriple, z0, z1, path: PathPolyline | None = None,
                      tol: float = DEFAULT_QUAD_TOL) -> np.ndarray:
    """Re integral of Phi from z0 to z1 along a polyline (default: straight).

    The planar components are exact, Re x(z1) - Re x(z0) and likewise for y.
    Only Phi3 = i*W is integrated, by the patch column integrator run along
    each segment, with W seeded at z0 by the strip branch and continued along
    the actual path.  So homotopic paths in the zero-free strip agree and paths
    winding around a speed^2 zero pick up the monodromy sign.  Raises
    SingularityOnPath when a zero lies within ``path.refinement`` of the path.
    """
    z0, z1 = complex(z0), complex(z1)
    if path is None:
        if z0 == z1:
            return np.zeros(3)
        path = PathPolyline(vertices=(z0, z1))
    verts = [complex(v) for v in path.vertices]
    if verts[0] != z0 or verts[-1] != z1:
        raise ValueError("path endpoints must match z0 and z1")
    curve = triple.curve
    xs, ys = [v.real for v in verts], [v.imag for v in verts]
    for zero in singularity_scan(curve, s_max=max(abs(y) for y in ys) + 0.5,
                                 t_range=(min(xs) - 0.5, max(xs) + 0.5)):
        if any(_point_segment_distance(zero, a, b) < path.refinement
               for a, b in zip(verts, verts[1:])):
            raise SingularityOnPath(
                "zero of speed^2 at %s is within %g of the path" % (zero, path.refinement))
    w = strip_sqrt_array(curve, np.array([z0]), triple.refinement)
    seg_tol = tol / (len(verts) - 1)
    f3 = 0.0
    for a, b in zip(verts, verts[1:]):
        length, direction = abs(b - a), (b - a) / abs(b - a)
        step, good, _, _, w = _column_step(triple, np.array([a]), 0.0, length, w, seg_tol,
                                           direction)
        if not good[0]:
            step[0], w[0] = _bisect_column(triple, a, 0.0, length, w[0], seg_tol,
                                           direction=direction)
        f3 = f3 + float(step[0])
    (x0, y0), (x1, y1) = curve.eval(z0), curve.eval(z1)
    return np.array([np.real(x1) - np.real(x0), np.real(y1) - np.real(y0), f3])


def surface_point(triple: HolomorphicTriple, t: float, s: float,
                  tol: float = DEFAULT_QUAD_TOL) -> np.ndarray:
    """Surface value f(t + i s): exact Re x, Re y and the column integral f3."""
    if s == 0.0:
        return np.asarray(triple.curve.point3d(float(t)), dtype=float)
    f3, _ = _march(triple, np.array([float(t)]), np.array([float(s)]), tol)
    x, y = triple.curve.eval(complex(t, s))
    return np.array([np.real(x), np.real(y), f3[0, 0]])


@dataclass
class PatchGrid:
    """Sampled Schwarz surface patch with its exact null-triple values.

    ``points[l, j]`` is f(t_vals[j] + i s_vals[l]); ``phi`` carries Phi at the
    same nodes so conformal quantities need no differencing.
    """

    curve: PlanarCurve
    t_vals: np.ndarray
    s_vals: np.ndarray
    points: np.ndarray
    phi: np.ndarray

    @property
    def geodesic_row(self) -> int | None:
        idx = int(np.argmin(np.abs(self.s_vals)))
        return idx if abs(self.s_vals[idx]) < 1e-12 else None

    def conformal_factor(self) -> np.ndarray:
        """E = G = (1/2) sum |phi_i|^2 on the grid."""
        return 0.5 * np.sum(np.abs(self.phi) ** 2, axis=-1)

    def null_residual(self) -> float:
        """max |phi1^2 + phi2^2 + phi3^2| over the grid."""
        return float(np.max(np.abs(np.sum(self.phi**2, axis=-1))))

    def conformality_residuals(self) -> tuple[float, float]:
        """(max |E-G|/E, max |F|/E) from the exact first fundamental form."""
        ft = np.real(self.phi)
        fs = -np.imag(self.phi)
        E = np.sum(ft * ft, axis=-1)
        G = np.sum(fs * fs, axis=-1)
        F = np.sum(ft * fs, axis=-1)
        return float(np.max(np.abs(E - G) / E)), float(np.max(np.abs(F) / E))


def surface_patch(curve: PlanarCurve, t_range, s_range, nt: int, ns: int,
                  tol: float = DEFAULT_QUAD_TOL, workers: int = 1,
                  strip: Strip | None = None) -> PatchGrid:
    """Sample the anchored Schwarz surface on a t x s grid.

    The planar coordinates are Re x and Re y on the grid, so the row s = 0
    (when present) is the input curve itself; f3 comes from the column
    integrator.  ``workers`` > 1 splits the columns over threads with bitwise
    the same result.  ``strip`` is the curve's strip over a t-window covering
    t_range (found here when not given; ValueError when it belongs to another
    curve or window).  Raises StripTooWide when |s| exceeds ``strip.cap``.
    """
    if nt < 2 or ns < 2:
        raise ValueError("nt and ns must be at least 2")
    t_lo, t_hi = float(t_range[0]), float(t_range[1])
    s_lo, s_hi = float(s_range[0]), float(s_range[1])
    if strip is None:
        strip = find_strip(curve, (t_lo, t_hi))
    elif strip.curve != curve or not strip.t_range[0] <= t_lo <= t_hi <= strip.t_range[1]:
        raise ValueError("the strip for %s over %s does not cover %s over %s"
                         % (strip.curve.label, strip.t_range, curve.label, (t_lo, t_hi)))
    if max(abs(s_lo), abs(s_hi)) > strip.cap + 1e-12:
        raise StripTooWide(
            "requested |s| up to %g exceeds the usable strip half-width %g"
            % (max(abs(s_lo), abs(s_hi)), strip.cap))
    triple = HolomorphicTriple(curve)
    t_vals = np.linspace(t_lo, t_hi, nt)
    s_vals = np.linspace(s_lo, s_hi, ns)
    if workers > 1:
        f3, phi_grid = _march_parallel(triple, t_vals, s_vals, tol, workers)
    else:
        f3, phi_grid = _march(triple, t_vals, s_vals, tol)
    x, y = curve.eval(t_vals[None, :] + 1j * s_vals[:, None])
    points = np.stack([np.real(x), np.real(y), f3], axis=-1)
    return PatchGrid(curve=curve, t_vals=t_vals, s_vals=s_vals, points=points, phi=phi_grid)


def _column_step(triple: HolomorphicTriple, t, s_a: float, s_b: float, w_a, tol: float,
                 direction: complex = 1j):
    """One G7/K15 panel of the f3 increment Re int i W dz per column.

    The columns run from t + direction*s_a to t + direction*s_b, so with the
    default direction i the increment is -int_{s_a}^{s_b} Re W(t + i sigma) d sigma.
    x' and y' are evaluated once per node, on the 15 Kronrod nodes and at s_b,
    and W at every node is matched to the branch values w_a at s_a.  A column
    is accepted when every node continues the branch and |K15 - G7| is within
    tol or within the integrand's own rounding floor,
    ROUNDING_SAFETY * eps * |h| * sum_k w_k (|x'|^2 + |y'|^2) / |W|
    (the cancellation in x'^2 + y'^2 limits the relative accuracy of W).
    Returns (increment, accepted, x' at s_b, y' at s_b, W at s_b).
    """
    half = 0.5 * (s_b - s_a)
    ss = np.append(0.5 * (s_a + s_b) + half * K15_NODES, s_b)
    Z = t[None, :] + direction * ss[:, None]
    vx, vy = triple._dx(Z), triple._dy(Z)
    w, ok = match_branch(np.sqrt(vx * vx + vy * vy), w_a)
    re = (1j * direction * w[:-1]).real
    k15 = _weighted_sum(K15_WEIGHTS, re)
    err = abs(half) * np.abs(k15 - _weighted_sum(G7_WEIGHTS, re[1::2]))
    good = np.all(ok, axis=0) & (err <= tol)
    if not np.all(good):
        mag2 = vx[:-1].real ** 2 + vx[:-1].imag ** 2 + vy[:-1].real ** 2 + vy[:-1].imag ** 2
        floor = ROUNDING_SAFETY * np.finfo(float).eps * abs(half) * _weighted_sum(
            K15_WEIGHTS, mag2 / np.abs(w[:-1]))
        good = np.all(ok, axis=0) & (err <= np.maximum(tol, floor))
    return half * k15, good, vx[-1], vy[-1], w[-1]


def _bisect_column(triple: HolomorphicTriple, t, s_a: float, s_b: float,
                   w_a: complex, tol: float, depth: int = 1, direction: complex = 1j):
    """Scalar adaptive fallback for one column step: halves until each panel passes."""
    if depth > MAX_QUAD_DEPTH:
        raise QuadratureFailure(
            "column quadrature did not reach tol=%g between %s and %s"
            % (tol, t + direction * s_a, t + direction * s_b))
    total, w = 0.0, w_a
    mid = 0.5 * (s_a + s_b)
    for lo, hi in ((s_a, mid), (mid, s_b)):
        step, good, _, _, w_hi = _column_step(
            triple, np.array([t]), lo, hi, np.array([w]), 0.5 * tol, direction)
        if good[0]:
            total, w = total + step[0], complex(w_hi[0])
        else:
            step, w = _bisect_column(triple, t, lo, hi, w, 0.5 * tol, depth + 1, direction)
            total = total + step
    return total, w


def _march(triple: HolomorphicTriple, t_vals, s_vals, tol: float):
    """f3 and Phi on the grid, all columns advanced together one s level at a time.

    Levels are visited outward from s = 0 on each side, each stepping from the
    level next closer to the axis (from the axis itself for the first), so the
    branch reference is always one step away and the accumulation order is
    fixed.  Returns f3 with shape (ns, nt) and Phi with shape (ns, nt, 3).
    """
    ns, nt = len(s_vals), len(t_vals)
    vx0, vy0 = triple._dx(t_vals), triple._dy(t_vals)
    w0 = np.sqrt(vx0 * vx0 + vy0 * vy0)
    if np.any(w0 <= 0):
        raise InvalidCurveParameters("speed vanishes on the axis")
    f3 = np.zeros((ns, nt))
    phi_grid = np.empty((ns, nt, 3), dtype=complex)
    axis = (0.0, np.zeros(nt), w0.astype(complex))
    last = {1.0: axis, -1.0: axis}
    step_tol = tol / max(1, ns)
    for idx in np.argsort(np.abs(s_vals), kind="stable"):
        s = float(s_vals[idx])
        if s == 0.0:
            vx, vy, w = vx0, vy0, w0
        else:
            s_a, f_a, w_a = last[np.sign(s)]
            step, good, vx, vy, w = _column_step(triple, t_vals, s_a, s, w_a, step_tol)
            for j in np.nonzero(~good)[0]:
                step[j], w[j] = _bisect_column(triple, t_vals[j], s_a, s, w_a[j], step_tol)
            f3[idx] = f_a + step
            last[np.sign(s)] = (s, f3[idx], w)
        phi_grid[idx, :, 0] = vx
        phi_grid[idx, :, 1] = vy
        phi_grid[idx, :, 2] = 1j * w
    return f3, phi_grid


def _march_parallel(triple: HolomorphicTriple, t_vals, s_vals, tol: float, workers: int):
    """_march over column chunks on threads; every column is computed as in _march."""
    from concurrent.futures import ThreadPoolExecutor

    chunks = np.array_split(t_vals, max(1, min(int(workers), len(t_vals))))
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        parts = list(pool.map(lambda t: _march(triple, t, s_vals, tol), chunks))
    return (np.concatenate([p[0] for p in parts], axis=1),
            np.concatenate([p[1] for p in parts], axis=1))
