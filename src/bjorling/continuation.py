"""The complexified speed^2 = x'(w)^2 + y'(w)^2 as P Q, its square root and its zeros.

The speed has isolated zeros off the real axis; the square root the surface
needs is defined by continuity along a path from the axis, where it is
positive.  ``strip_sqrt_array`` is the strip branch: every point continued up
the vertical segment from its axis foot t, in closed form.  With m = e^{ifz}
for trigonometric series whose speed^2 has period 2 pi/f and m = z for
monomial ones, that segment is straight in m, and speed^2 is a factor of
constant argument along it times prod (m - r_j)^mu_j over the images r_j of
the zeros of one period.  So the root turns by half of
sum_j mu_j Arg((m(z) - r_j)/(m(t) - r_j)), and the branch is
np.sqrt(speed^2) negated where it disagrees with prod sqrt(...)^mu_j.  That
sign comes from the running product of the rank-1 ratios with a tracked cut
bit, so no root is taken per zero (its core ``strip_branch`` takes t and s
apart, so a grid does the axis work once).  A segment that passes a zero
raises ``SingularityOnPath``.  This is the package's one square-root rule:
every patch, surface point, Weierstrass g and CLI command takes it.

speed^2 = P Q with P = x' + i y' and Q(z) = conj P(conj z) = x' - i y', both from one
cached table of P's coefficients that also gives the zeros (``velocity``): only a factor
that vanishes loses digits, where x'^2 + y'^2 cancels (at an epitrochoid's cap, a >> 1).
The zeros are exact polynomial roots, those of Q the conjugates of those of P.  A
trigonometric series makes P a Laurent polynomial in v = e^{iz}, v^low R(v^step)
with step the gcd of its exponent offsets, so speed^2 has period 2 pi/step and
its zeros are z = -i log(u)/step + 2 pi n/step over the roots u of R; a
monomial series makes it a polynomial in z.  Either way ``np.roots`` (the eigenvalues of the
companion matrix) gives the whole zero set, complete by construction.  It
splits an m-fold root into m roots about eps^(1/m) apart; those are merged, by a
radius that grows with m, into one zero at their mean, well conditioned where each
root is not (Zeng, Math. Comp. 74, 2005), and a real zero, whose cluster holds its
own conjugate, gets Im exactly 0.
Epitrochoids take the closed form of 1 + a^2 - 2a cos((k+1)z) instead
(a = lambda*(k+1), period 2pi/(k+1), zeros at Re z in (2pi/(k+1))Z,
|Im z| = ln(max(a, 1/a))/(k+1)).
``find_strip`` makes the one strip decision a run needs and returns a
``Strip`` holding the zeros near the t-window, the distance from the window
to the nearest one and the usable half-width ``cap``, 0.9 times that distance.
It is also the one regularity decision: a curve is regular on its window
exactly when that distance is positive, and a zero on the window raises
InvalidCurveParameters.
"""

from __future__ import annotations

import cmath
import collections
import functools
import math
from dataclasses import dataclass

import numpy as np

from .curves import PHASE_COS, TWO_PI, InvalidCurveParameters, PlanarCurve

# how near a zero's Re must come to a column's, modulo the period, to lie on its path
PATH_CLEARANCE = 1e-2
# np.roots splits a double root by about 2 sqrt(eps) = 3e-8 (relative)
ROOT_CLUSTER_TOL = 1e-6
# the highest order of a root of x' + i y' that merging recognises: ROOT_CLUSTER_TOL^(2/m)
# grows toward 1 with m (0.1 at m = 12), where rounding no longer tells one m-fold root
# from m simple ones; at m = 4 it is 1e-3, well clear of the split eps^(1/4) = 1.2e-4
MAX_ROOT_ORDER = 4


class SingularityOnPath(RuntimeError):
    """A zero of the complexified speed lies on or too close to the path."""


def velocity(curve: PlanarCurve, t, s):
    """(P, Q, speed^2) at t + i s for t and s that broadcast together: P = x' + i y',
    Q(t, s) = conj P(t, -s) = x' - i y' and speed^2 = P Q.  Trigonometric series sum the
    terms c e^{int} e^{-ns} of ``_velocity_terms``, outer products of 1-D factors on a
    grid; monomial ones go by Horner in z.  At s = 0, Q = conj P and speed^2 is exactly real."""
    trig, terms = _velocity_terms(curve)
    t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
    shape = np.broadcast_shapes(t.shape, s.shape)
    p, q = np.zeros(shape, complex), np.zeros(shape, complex)
    if trig:
        for n, c in terms:
            a = c * np.exp(1j * (n * t))
            p += a * np.exp(-n * s) if n else a
            q += a.conjugate() * np.exp(n * s) if n else a.conjugate()
    else:
        coef = dict(terms)
        z, z_bar = t + 1j * s, t - 1j * s
        for n in range(max(coef, default=0), -1, -1):
            p, q = p * z + coef.get(n, 0j), q * z_bar + coef.get(n, 0j)
        q = q.conjugate()
    speed2 = np.multiply(p, q, out=np.empty(shape, complex))
    np.copyto(speed2.imag, 0.0, where=s == 0.0)
    return p, q, speed2


def speed_squared(curve: PlanarCurve, z):
    """x'(z)^2 + y'(z)^2 = P(z) Q(z): (k+2)^2 (1 + a^2 - 2a cos((k+1)z)) for epitrochoids."""
    return velocity(curve, np.real(z), np.imag(z))[2]


def strip_sqrt_array(curve: PlanarCurve, z):
    """The strip branch of sqrt(speed^2) at points z of any shape, in closed form;
    SingularityOnPath where the vertical segment to a point passes a zero: its Im
    between 0 and Im z and its Re within PATH_CLEARANCE of Re z, modulo the period."""
    z = np.asarray(z, dtype=complex)
    return strip_branch(curve, z.real, z.imag, speed_squared(curve, z))


def strip_branch(curve: PlanarCurve, t, s, speed2):
    """``strip_sqrt_array`` at t + i s for t and s that broadcast to speed2's shape.

    Each ratio (m(z) - r)/(m(t) - r) is rank one, 1 + beta(s) alpha(t): for m = e^{ifz},
    f = 2 pi/period, beta = expm1(-fs) and alpha = e^{ift}/(e^{ift} - r), and for m = z,
    beta = s and alpha = i/(t - r).  One ratio per zero of one period stands for the
    f zeros of a period 2 pi in e^{iz}, whose ratios multiply to it.  As
    sqrt(p) sqrt(q) = -sqrt(pq) exactly when p and q lie on one side of the real axis and
    pq on the other (sign bits, as np.sqrt reads signed zeros), the running product of the
    ratios keeps that cut bit.  It ends as speed^2 times a positive real, whose root
    differs from np.sqrt(speed^2) only across the cut."""
    zeros, period = _zero_set(curve)
    trig = math.isfinite(period)
    freq = round(TWO_PI / period) if trig else 1
    foot = np.exp(1j * (freq * t)) if trig else t
    beta = np.expm1(-freq * s) if trig else s
    shape, lower = np.shape(speed2), False
    q, prod, flip = np.empty(shape, complex), np.ones(shape, complex), np.zeros(shape, bool)
    for zero, mult in zeros:
        offset = t - zero.real
        if trig:
            offset -= period * np.round(offset / period)
        passed = (np.abs(offset) <= PATH_CLEARANCE) \
            & ((np.abs(s) >= abs(zero.imag)) & (s * zero.imag >= 0))
        if np.any(passed):
            raise SingularityOnPath("the vertical path to %s passes the speed^2 zero at %s" % (
                np.broadcast_to(t + 1j * s, passed.shape)[passed][0], zero))
        r = cmath.exp(1j * freq * zero) if trig else zero
        np.multiply(beta, foot / (foot - r) if trig else 1j / (t - r), out=q)
        q += 1.0
        for _ in range(mult):
            prod *= q
            side = np.signbit(prod.imag)
            flip ^= (lower == np.signbit(q.imag)) & (side != lower)
            lower = side
    w = np.sqrt(speed2, out=q)
    flip ^= (lower != np.signbit(w.imag)) & (speed2.real < 0)
    return np.negative(w, out=w, where=flip)


def _wrap(d: complex, period: float) -> complex:
    """d shifted by whole periods to the one with the smallest |real part|."""
    return d - period * round(d.real / period) if math.isfinite(period) else d


def _merge_roots(roots, period: float, vanishes):
    """((zero, multiplicity), ...): the roots (mod period) in groups that are one zero.

    The first half of roots are those of x' + i y', the second half their conjugates.
    np.roots splits an m-fold root into m roots about eps^(1/m) apart, 2/m of the digits
    of a double root's sqrt(eps), so each root in turn takes the largest group of its
    nearest roots that lies within ROOT_CLUSTER_TOL^(2/m) of its mean, has m <=
    MAX_ROOT_ORDER and whose mean ``vanishes`` confirms as a zero of x' + i y' (of its
    conjugate for the second half).  A group of m roots from each half is a real zero of
    order m, at the real part of its mean."""
    half, left, merged = len(roots) // 2, list(range(len(roots))), []
    while left:
        c = roots[left[0]]
        near = sorted(left[1:], key=lambda j: abs(_wrap(roots[j] - c, period)))
        for n in range(min(len(near), 2 * MAX_ROOT_ORDER - 1), -1, -1):
            group = sorted((left[0], *near[:n]))
            d = [_wrap(roots[j] - c, period) for j in group]
            offset = sum(d) / len(d)
            own = sum(j < half for j in group)
            real = 0 < own < len(group)
            mean = complex((c + offset).real, 0.0) if real else c + offset if n else c
            order = own if real else len(group)
            if n == 0 or (order <= MAX_ROOT_ORDER and (not real or 2 * own == len(group))
                          and max(abs(x - offset) for x in d)
                          <= ROOT_CLUSTER_TOL ** (2.0 / max(order, 2)) * max(1.0, abs(c))
                          and vanishes(mean if own else mean.conjugate())):
                break
        merged.append((mean, len(group)))
        left = [j for j in left if j not in group]
    return tuple(merged)


@functools.lru_cache(maxsize=None)
def _velocity_terms(curve: PlanarCurve):
    """(trig, ((n, c), ...)): x' + i y' = sum c v^n, v = e^{iz}, if trig, else sum c z^n, for
    ``velocity`` and ``_zero_set``.  InvalidCurveParameters for z^p, p >= 1, beside trig terms."""
    d = curve.derivative()
    trig = d.x.trig + tuple((1j * amp, freq, phase) for amp, freq, phase in d.y.trig)
    poly = d.x.poly + tuple((1j * c, power) for c, power in d.y.poly)
    if trig and any(power >= 1 for _, power in poly):
        raise InvalidCurveParameters("the derivative of %s mixes trigonometric terms "
                                     "with powers of z" % curve.label)
    # cos fz = (v^f + v^-f)/2 and sin fz = (v^f - v^-f)/2i
    coef = collections.defaultdict(complex)
    for amp, freq, phase in trig:
        half = 0.5 * amp if phase == PHASE_COS else -0.5j * amp
        coef[freq] += half
        coef[-freq] += half if phase == PHASE_COS else -half
    for c, power in poly:
        coef[power] += c
    return bool(trig), tuple(sorted((n, c) for n, c in coef.items() if c != 0))


@functools.lru_cache(maxsize=None)
def _zero_set(curve: PlanarCurve):
    """(((zero, multiplicity), ...), period): every zero of speed^2 once modulo
    its period, with its multiplicity.

    x' + i y' = v^low R(v^step) for trigonometric series, with v = e^{iz} and
    step the gcd of the exponent offsets, so the period is 2 pi/step and the
    zeros are those of R in u = v^step; the period is inf for monomial series.
    Raises InvalidCurveParameters when the derivative mixes trigonometric
    terms with powers z^p, p >= 1, or when speed^2 vanishes identically.
    """
    if curve.epitrochoid is not None:
        params = curve.epitrochoid
        return tuple((complex(0.0, sign * params.zero_height), 1)
                     for sign in (-1.0, 1.0)), TWO_PI / (params.k + 1)
    trig, terms = _velocity_terms(curve)
    if not terms:
        raise InvalidCurveParameters("speed^2 of %s vanishes identically" % curve.label)
    coef = dict(terms)
    # v = 0 is no point of the plane, z = 0 is
    low = min(coef) if trig else 0
    step = (math.gcd(*(n - low for n in coef)) or 1) if trig else 1
    poly = np.array([coef.get(n, 0j) for n in range(max(coef), low - 1, -step)])
    roots = np.roots(poly)
    if trig:
        roots = -1j / step * np.log(roots)

    def vanishes(z):
        # x' + i y' is 0 at z up to Horner's rounding, 2 (deg + 1) eps sum |a_k| |w|^k
        w = cmath.exp(1j * step * z) if trig else z
        bound = 2.0 * len(poly) * np.finfo(float).eps * np.polyval(np.abs(poly), abs(w))
        return abs(np.polyval(poly, w)) <= bound

    # the series are real, so the zeros of x' - i y' are the conjugates
    period = TWO_PI / step if trig else math.inf
    return _merge_roots([complex(z) for z in roots] + [complex(z).conjugate() for z in roots],
                        period, vanishes), period


def singularity_scan(curve: PlanarCurve, s_max: float, t_range=None) -> tuple[complex, ...]:
    """All zeros of speed^2 with |Im z| <= s_max and Re z in the window, each once.

    With ``t_range=None`` the window is the curve domain (half open for closed
    curves so one fundamental period is reported once).  An explicit window is
    treated as inclusive.  The zeros are the curve's one exact zero set at
    z + 2 pi j/step, j < step, for a period 2 pi/step, tiled by 2 pi over the
    window: n whole periods 2 pi/step can fall short of 2 pi by rounding
    (75 fl(2 pi/75) < 2 pi), which would report a zero twice.
    """
    if not s_max > 0:
        raise ValueError("s_max must be positive")
    if t_range is None:
        t_lo, t_hi = curve.domain
        half_open = curve.closed
    else:
        t_lo, t_hi = float(t_range[0]), float(t_range[1])
        half_open = False
    zeros, period = _zero_set(curve)
    step = round(TWO_PI / period) if math.isfinite(period) else 1
    found = set()
    for z, _ in zeros:
        if abs(z.imag) > s_max:
            continue
        if math.isinf(period):
            found.add(z)
            continue
        for w in (z + TWO_PI * j / step for j in range(step)):
            found.update(w + n * TWO_PI for n in range(math.floor((t_lo - w.real) / TWO_PI),
                                                       math.ceil((t_hi - w.real) / TWO_PI) + 1))
    return tuple(sorted((z for z in found if t_lo <= z.real
                         and (z.real < t_hi if half_open else z.real <= t_hi)),
                        key=lambda z: (z.real, z.imag)))


@dataclass(frozen=True)
class Strip:
    """The zero-free strip around the geodesic over the t-window ``t_range``.

    ``zeros`` are the speed^2 zeros with Re z within one period of speed^2 of
    the window (2 pi/(k+1) for an epitrochoid; all of them for monomial
    series), ``multiplicities`` their orders, and ``distance`` is the distance
    from the real segment t_range to the nearest one, positive (``find_strip``
    refuses a zero on the window) and inf only when speed^2 has no zero.  A
    zero is never closer to a sub-window than to the whole window, so the
    strip is valid for every t-window inside t_range.
    """

    curve: PlanarCurve
    t_range: tuple[float, float]
    zeros: tuple[complex, ...]
    multiplicities: tuple[int, ...]
    distance: float

    @property
    def cap(self) -> float:
        """Largest usable |Im z|: 0.9 times the distance."""
        return 0.9 * self.distance


def find_strip(curve: PlanarCurve, t_range=None) -> Strip:
    """The strip around t_range (default: the domain), from one zero scan.

    Every zero is a translate by whole periods of one within a period of the
    window, and a translate further out is no closer, so the distance over
    those is the distance over the whole zero set.  This is the package's one
    regularity decision: a zero on the window (distance 0) means the curve is
    not regular there and raises InvalidCurveParameters, naming the zero.
    ValueError unless t_lo <= t_hi, both finite.
    """
    if t_range is None:
        t_range = curve.domain
    t_lo, t_hi = float(t_range[0]), float(t_range[1])
    if not (math.isfinite(t_lo) and math.isfinite(t_hi) and t_lo <= t_hi):
        raise ValueError("the t-window (%r, %r) is not a finite interval with t_lo <= t_hi"
                         % (t_lo, t_hi))
    base, period = _zero_set(curve)
    zeros = singularity_scan(curve, math.inf, (t_lo - period, t_hi + period))
    multiplicities = tuple(min(base, key=lambda b: abs(_wrap(z - b[0], period)))[1]
                           for z in zeros)
    distance = min((abs(z.imag) if t_lo <= z.real <= t_hi
                    else min(abs(z - t_lo), abs(z - t_hi)) for z in zeros),
                   default=math.inf)
    if distance == 0.0:
        zero = next(z for z in zeros if z.imag == 0.0 and t_lo <= z.real <= t_hi)
        raise InvalidCurveParameters(
            "%s is not regular on (%r, %r): speed^2 vanishes at t = %.17g"
            % (curve.label, t_lo, t_hi, zero.real + 0.0))
    return Strip(curve, (t_lo, t_hi), zeros, multiplicities, distance)
