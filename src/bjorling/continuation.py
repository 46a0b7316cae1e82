"""Analytic continuation of sqrt(x'(w)^2 + y'(w)^2) along paths in the strip.

The complexified speed has isolated zeros off the real axis; the square root
needed by the surface construction is defined by continuity along a path.  The
tracker walks the path, picks at each step the root in the same half plane as
the previous value, and halves the step until the argument rotates by less
than pi/4 per step.  That guarantees the correct branch without any global
branch-cut bookkeeping.  ``match_branch`` is this rule for whole arrays of
candidates; ``_advance_sqrt`` is the scalar halving fallback behind it.

Zeros of the speed are located either from the epitrochoid closed form
1 + a^2 - 2a cos((k+1)z)  (a = lambda*(k+1), zeros at Re z in (2pi/(k+1))Z,
|Im z| = ln(max(a, 1/a))/(k+1)) or, for generic curves, by damped Newton
iteration seeded on a 64x64 grid over the requested strip.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .curves import PlanarCurve

DEFAULT_REFINEMENT = 1e-2
ARG_STEP_LIMIT = math.pi / 4.0
MAX_STEP_HALVINGS = 40
ZERO_RESIDUAL_TOL = 1e-12
SCAN_GRID = 64


class SingularityOnPath(RuntimeError):
    """A zero of the complexified speed lies on or too close to the path."""


class BranchJump(RuntimeError):
    """Continuity tracking failed even after maximal step refinement."""


@dataclass(frozen=True)
class PathPolyline:
    """Piecewise-linear path in the complex strip.

    ``refinement`` is the maximum step length used when walking the path.
    """

    vertices: tuple[complex, ...]
    refinement: float = DEFAULT_REFINEMENT

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise ValueError("a path needs at least two vertices")
        if not self.refinement > 0:
            raise ValueError("refinement must be positive")
        for a, b in zip(self.vertices, self.vertices[1:]):
            if a == b:
                raise ValueError("consecutive path vertices must be distinct")

    def refined_points(self) -> list[complex]:
        pts = [complex(self.vertices[0])]
        for a, b in zip(self.vertices, self.vertices[1:]):
            a, b = complex(a), complex(b)
            n = max(1, int(math.ceil(abs(b - a) / self.refinement)))
            for j in range(1, n + 1):
                pts.append(a + (b - a) * (j / n))
        return pts


@dataclass(frozen=True)
class BranchValue:
    """One determination of sqrt(speed^2) at a point along a path."""

    point: complex
    value: complex
    seed_sign: int = 1


@functools.lru_cache(maxsize=None)
def derivative_series(curve: PlanarCurve):
    """Cached (x', y') series of a curve."""
    d = curve.derivative()
    return d.x, d.y


@functools.lru_cache(maxsize=None)
def _second_derivative_series(curve: PlanarCurve):
    d2 = curve.derivative().derivative()
    return d2.x, d2.y


def speed_squared(curve: PlanarCurve, z):
    """x'(z)^2 + y'(z)^2, entire in z.

    For epitrochoids this equals (k+2)^2 (1 + a^2 - 2a cos((k+1)z)); the
    generic series evaluation is used for every curve and the closed form is
    kept as a test oracle.
    """
    dx, dy = derivative_series(curve)
    vx = dx(z)
    vy = dy(z)
    return vx * vx + vy * vy


def speed_squared_prime(curve: PlanarCurve, z):
    """d/dz of speed_squared, exact (used by the Newton zero refinement)."""
    dx, dy = derivative_series(curve)
    ddx, ddy = _second_derivative_series(curve)
    return 2.0 * (dx(z) * ddx(z) + dy(z) * ddy(z))


def _advance_sqrt(f, z_from: complex, z_to: complex, w_from: complex, depth: int = 0) -> complex:
    cand = cmath.sqrt(complex(f(z_to)))
    if cand == 0:
        raise SingularityOnPath("speed^2 vanishes at %s" % (z_to,))
    if (cand * w_from.conjugate()).real < 0:
        cand = -cand
    if abs(cmath.phase(cand / w_from)) < ARG_STEP_LIMIT:
        return cand
    if depth >= MAX_STEP_HALVINGS:
        raise BranchJump(
            "square-root continuation lost continuity between %s and %s" % (z_from, z_to))
    mid = 0.5 * (z_from + z_to)
    w_mid = _advance_sqrt(f, z_from, mid, w_from, depth + 1)
    return _advance_sqrt(f, mid, z_to, w_mid, depth + 1)


def match_branch(cand, ref):
    """Flip each square-root candidate into the half plane of its reference.

    Returns the flipped candidates and the continuity mask: True where the
    argument turns by less than ARG_STEP_LIMIT from the reference, which is
    |Im p| < Re p for p = cand * conj(ref) after the flip.  A vanishing
    candidate is never continuous.
    """
    p = cand * np.conj(ref)
    return np.where(p.real < 0, -cand, cand), np.abs(p.imag) < np.abs(p.real)


def track_sqrt(f, points, w_start: complex) -> list[complex]:
    """Continue a square root of f along an ordered list of points.

    ``w_start`` must satisfy w_start^2 = f(points[0]).  Generic utility: f is
    any callable of one complex argument.
    """
    w = complex(w_start)
    out = [w]
    for a, b in zip(points, points[1:]):
        w = _advance_sqrt(f, complex(a), complex(b), w)
        out.append(w)
    return out


def _point_segment_distance(z: complex, a: complex, b: complex) -> float:
    ab = b - a
    denom = (ab * ab.conjugate()).real
    if denom == 0:
        return abs(z - a)
    t = ((z - a) * ab.conjugate()).real / denom
    t = min(1.0, max(0.0, t))
    return abs(z - (a + t * ab))


def sqrt_along_path(curve: PlanarCurve, path: PathPolyline, seed: BranchValue,
                    zeros=None) -> list[BranchValue]:
    """Continuity-tracked sqrt(speed^2) along a path, one value per refined point.

    Raises SingularityOnPath when a zero of speed^2 lies within ``refinement``
    of the path, BranchJump when step halving cannot restore continuity.
    """
    start = complex(path.vertices[0])
    f0 = complex(speed_squared(curve, start))
    if abs(seed.value * seed.value - f0) > 1e-8 * max(1.0, abs(f0)):
        raise ValueError("seed value does not square to speed^2 at the path start")
    if zeros is None:
        res = [complex(v).real for v in path.vertices]
        ims = [complex(v).imag for v in path.vertices]
        zeros = singularity_scan(
            curve,
            s_max=max(abs(s) for s in ims) + 0.5,
            t_range=(min(res) - 0.5, max(res) + 0.5),
        )
    for z0 in zeros:
        for a, b in zip(path.vertices, path.vertices[1:]):
            if _point_segment_distance(z0, complex(a), complex(b)) < path.refinement:
                raise SingularityOnPath(
                    "zero of speed^2 at %s is within %g of the path" % (z0, path.refinement))
    pts = path.refined_points()
    values = track_sqrt(lambda z: speed_squared(curve, z), pts, seed.value)
    return [BranchValue(point=p, value=v, seed_sign=seed.seed_sign)
            for p, v in zip(pts, values)]


def strip_sqrt_array(curve: PlanarCurve, z, refinement: float = DEFAULT_REFINEMENT):
    """The strip branch of sqrt(speed^2) at every point of an array of any shape.

    Each point is continued vertically from its axis foot (Re z, 0), where the
    root is positive, in n = ceil(max |Im z| / refinement) equal fractions of its
    own height, all points together.  A point whose root turns by ARG_STEP_LIMIT
    or more in one fraction is redone by the scalar halving tracker.  Inside the
    zero-free strip around the geodesic this is the unique holomorphic branch
    positive on the axis.
    """
    z = np.asarray(z, dtype=complex)
    t, s = z.real.ravel(), z.imag.ravel()
    w = np.sqrt(speed_squared(curve, t).astype(complex))
    if not np.all(w.real > 0):
        raise SingularityOnPath("speed^2 vanishes on the axis at t=%g"
                                % t[np.argmin(w.real)])
    n = int(math.ceil(float(np.max(np.abs(s), initial=0.0)) / refinement))
    f = lambda zz: speed_squared(curve, zz)
    prev = t.astype(complex)
    for j in range(1, n + 1):
        nxt = t + 1j * (s * (j / n))
        w_prev = w
        w, ok = match_branch(np.sqrt(speed_squared(curve, nxt)), w_prev)
        for i in np.nonzero(~ok)[0]:
            w[i] = _advance_sqrt(f, prev[i], nxt[i], complex(w_prev[i]))
        prev = nxt
    return w.reshape(z.shape)


def strip_sqrt(curve: PlanarCurve, z: complex, refinement: float = DEFAULT_REFINEMENT) -> complex:
    """The strip branch of sqrt(speed^2) at one point: positive on the real axis."""
    return complex(strip_sqrt_array(curve, complex(z), refinement))


def singularity_scan(curve: PlanarCurve, s_max: float, t_range=None) -> tuple[complex, ...]:
    """All zeros of speed^2 with |Im z| <= s_max and Re z in the window.

    With ``t_range=None`` the window is the curve domain (half open for closed
    curves so one fundamental period is reported once).  An explicit window is
    treated as inclusive.
    """
    if not s_max > 0:
        raise ValueError("s_max must be positive")
    if t_range is None:
        t_lo, t_hi = curve.domain
        half_open = curve.closed
    else:
        t_lo, t_hi = float(t_range[0]), float(t_range[1])
        half_open = False

    if curve.epitrochoid is not None:
        return _scan_epitrochoid(curve, s_max, t_lo, t_hi, half_open)
    return _scan_generic(curve, s_max, t_lo, t_hi, half_open)


def _scan_epitrochoid(curve, s_max, t_lo, t_hi, half_open):
    params = curve.epitrochoid
    a = params.a
    s0 = abs(math.log(a)) / (params.k + 1)
    if s0 > s_max:
        return ()
    period = 2.0 * math.pi / (params.k + 1)
    n_lo = int(math.ceil(t_lo / period - 1e-9))
    zeros = []
    n = n_lo
    while True:
        r = n * period
        if half_open:
            if r >= t_hi - 1e-9:
                break
        else:
            if r > t_hi + 1e-9:
                break
        zeros.append(complex(r, -s0))
        zeros.append(complex(r, s0))
        n += 1
    zeros.sort(key=lambda z: (z.real, z.imag))
    return tuple(zeros)


def _scan_generic(curve, s_max, t_lo, t_hi, half_open):
    tg = np.linspace(t_lo, t_hi, SCAN_GRID)
    sg = np.linspace(-s_max, s_max, SCAN_GRID)
    Z = (tg[None, :] + 1j * sg[:, None]).ravel().astype(complex)
    for _ in range(200):
        F = speed_squared(curve, Z)
        dF = speed_squared_prime(curve, Z)
        step = np.where(np.abs(dF) > 1e-300, F / np.where(dF == 0, 1.0, dF), 0.0)
        mag = np.abs(step)
        step = np.where(mag > 0.3, step * (0.3 / np.where(mag == 0, 1.0, mag)), step)
        Z = Z - step
    F = np.abs(speed_squared(curve, Z))
    ok = np.isfinite(Z) & (F < ZERO_RESIDUAL_TOL)
    ok &= np.abs(Z.imag) <= s_max + 1e-9
    ok &= (Z.real >= t_lo - 1e-9)
    ok &= (Z.real < t_hi - 1e-9) if half_open else (Z.real <= t_hi + 1e-9)
    cand = sorted(Z[ok].tolist(), key=lambda z: (z.real, z.imag))
    zeros: list[complex] = []
    for z in cand:
        if all(abs(z - z0) > 1e-4 for z0 in zeros):
            zeros.append(z)
    return tuple(zeros)


def nearest_zero_distance(curve: PlanarCurve, t_range=None, s_search: float = 2.0) -> float:
    """Distance from the real-axis segment t_range to the nearest speed^2 zero.

    Returns inf when no zero lies within |Im z| <= s_search of an extended
    window around the segment; that is the unconstrained-strip case.
    """
    if curve.epitrochoid is not None:
        # closed form; conservative for subintervals missing the zero lattice
        params = curve.epitrochoid
        return abs(math.log(params.a)) / (params.k + 1)
    if t_range is None:
        t_range = curve.domain
    t_lo, t_hi = float(t_range[0]), float(t_range[1])
    ext = 0.25 * (t_hi - t_lo) + 0.5
    zeros = singularity_scan(curve, s_max=s_search, t_range=(t_lo - ext, t_hi + ext))
    if not zeros:
        return math.inf
    best = math.inf
    for z in zeros:
        if t_lo <= z.real <= t_hi:
            d = abs(z.imag)
        else:
            d = min(abs(z - t_lo), abs(z - t_hi))
        best = min(best, d)
    return best
