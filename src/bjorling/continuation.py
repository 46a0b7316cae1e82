"""Analytic continuation of sqrt(x'(w)^2 + y'(w)^2) along paths in the strip.

The complexified speed has isolated zeros off the real axis; the square root
needed by the surface construction is defined by continuity along a path.
There is one rule for it.  ``match_branch`` picks, for whole arrays of
candidates, the root in the same half plane as a reference value and flags
the entries whose argument turned by pi/4 or more.  ``continue_sqrt`` walks
straight segments in equal fractions with that rule and halves only the
fractions that fail, so the correct branch follows without any global
branch-cut bookkeeping.  ``strip_sqrt_array`` is the strip branch: every point
continued vertically from its axis foot, where the root is positive.  The
patch column integrator in ``schwarz`` applies the same rule at its
quadrature nodes.

Zeros of the speed are located either from the epitrochoid closed form
1 + a^2 - 2a cos((k+1)z)  (a = lambda*(k+1), zeros at Re z in (2pi/(k+1))Z,
|Im z| = ln(max(a, 1/a))/(k+1)) or, for generic curves, by damped Newton
iteration seeded on a 64x64 grid over the requested strip.  ``find_strip``
makes the one strip decision a run needs: it locates the zeros once and
returns a ``Strip`` holding them, the distance from the t-window to the
nearest one and the usable half-width ``cap``, 0.9 times that distance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .curves import PlanarCurve

DEFAULT_REFINEMENT = 1e-2
MAX_STEP_HALVINGS = 40
ZERO_RESIDUAL_TOL = 1e-12
SCAN_GRID = 64
ZERO_SEARCH_HEIGHT = 2.0  # |Im z| scanned for the zeros bounding a generic strip


class SingularityOnPath(RuntimeError):
    """A zero of the complexified speed lies on or too close to the path."""


class BranchJump(RuntimeError):
    """Continuity tracking failed even after maximal step refinement."""


@dataclass(frozen=True)
class PathPolyline:
    """Piecewise-linear path in the complex strip.

    ``refinement`` is the clearance from speed^2 zeros the path must keep.
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


def match_branch(cand, ref):
    """Flip each square-root candidate into the half plane of its reference.

    Returns the flipped candidates and the continuity mask: True where the
    argument turns by less than pi/4 from the reference, which is
    |Im p| < Re p for p = cand * conj(ref) after the flip.  A vanishing
    candidate is never continuous.
    """
    p = cand * np.conj(ref)
    return np.where(p.real < 0, -cand, cand), np.abs(p.imag) < np.abs(p.real)


def continue_sqrt(f, z_from, z_to, w_from, steps):
    """Continue a square root of f along straight segments, all entries together.

    ``z_from``, ``z_to`` and ``w_from`` broadcast to one shape of any size, with
    w_from^2 = f(z_from); f maps an array of points to an array of values.  Each
    segment is walked in ``steps`` equal fractions, every fraction matched to the
    previous value with ``match_branch``.  The fractions that fail are halved, on
    just those entries, until they pass.  Raises SingularityOnPath when a root
    vanishes and BranchJump past MAX_STEP_HALVINGS halvings.
    """
    shape = np.broadcast(z_from, z_to, w_from).shape
    a, b, w = (np.array(np.broadcast_to(v, shape), dtype=complex).ravel()
               for v in (z_from, z_to, w_from))
    return _continue(f, a, b, w, steps, 0).reshape(shape)


def _continue(f, a, b, w, steps, depth):
    prev = a
    for j in range(1, steps + 1):
        nxt = b if j == steps else a + (b - a) * (j / steps)
        cand = np.sqrt(np.asarray(f(nxt), dtype=complex))
        w_next, ok = match_branch(cand, w)
        bad = np.nonzero(~ok)[0]
        if bad.size:
            if np.any(cand[bad] == 0):
                raise SingularityOnPath("the square root vanishes at %s"
                                        % nxt[bad][cand[bad] == 0][0])
            if depth >= MAX_STEP_HALVINGS:
                raise BranchJump("square-root continuation lost continuity between %s and %s"
                                 % (prev[bad[0]], nxt[bad[0]]))
            w_next[bad] = _continue(f, prev[bad], nxt[bad], w[bad], 2, depth + 1)
        prev, w = nxt, w_next
    return w


def strip_sqrt_array(curve: PlanarCurve, z, refinement: float = DEFAULT_REFINEMENT):
    """The strip branch of sqrt(speed^2) at every point of an array of any shape.

    Each point is continued vertically from its axis foot (Re z, 0), where the
    root is positive, in n = ceil(max |Im z| / refinement) equal fractions of its
    own height, all points together.  Inside the zero-free strip around the
    geodesic this is the unique holomorphic branch positive on the axis.
    """
    z = np.asarray(z, dtype=complex)
    w = np.sqrt(speed_squared(curve, z.real).astype(complex))
    if not np.all(w.real > 0):
        raise SingularityOnPath("speed^2 vanishes on the axis at t=%g"
                                % z.real.ravel()[np.argmin(w.real)])
    n = int(math.ceil(float(np.max(np.abs(z.imag), initial=0.0)) / refinement))
    return continue_sqrt(lambda zz: speed_squared(curve, zz), z.real, z, w, n)


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
    s0 = params.zero_height
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


@dataclass(frozen=True)
class Strip:
    """The zero-free strip around the geodesic over the t-window ``t_range``.

    ``zeros`` are the speed^2 zeros found around the window and ``distance``
    is the distance from the real segment t_range to the nearest one (inf
    when none lies within |Im z| <= ZERO_SEARCH_HEIGHT).  A zero is never
    closer to a sub-window than to the whole window, so the strip is valid
    for every t-window inside t_range.
    """

    curve: PlanarCurve
    t_range: tuple[float, float]
    zeros: tuple[complex, ...]
    distance: float

    @property
    def cap(self) -> float:
        """Largest usable |Im z|: 0.9 times the distance."""
        return 0.9 * self.distance


def find_strip(curve: PlanarCurve, t_range=None) -> Strip:
    """Locate the speed^2 zeros around t_range (default: the domain) once.

    Generic curves are scanned over the window widened by a quarter of its
    length plus 0.5 on each side; epitrochoids take the closed-form lattice
    and the closed-form distance, conservative for windows that miss the
    lattice.
    """
    if t_range is None:
        t_range = curve.domain
    t_lo, t_hi = float(t_range[0]), float(t_range[1])
    ext = 0.25 * (t_hi - t_lo) + 0.5
    window = (t_lo - ext, t_hi + ext)
    if curve.epitrochoid is not None:
        s0 = curve.epitrochoid.zero_height
        return Strip(curve, (t_lo, t_hi), _scan_epitrochoid(curve, s0, *window, False), s0)
    zeros = singularity_scan(curve, ZERO_SEARCH_HEIGHT, window)
    distance = min((abs(z.imag) if t_lo <= z.real <= t_hi
                    else min(abs(z - t_lo), abs(z - t_hi)) for z in zeros),
                   default=math.inf)
    return Strip(curve, (t_lo, t_hi), zeros, distance)
