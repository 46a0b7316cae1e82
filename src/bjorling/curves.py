"""Exact planar curves built from finite trigonometric and monomial series.

Curves are stored termwise so differentiation is exact (no finite differences
anywhere downstream) and evaluation extends verbatim to complex arguments:
every series here is an entire function.  ``TrigPolySeries.grid`` evaluates on
a tensor grid t + is with cos/sin on t and cosh/sinh on s only.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

PHASE_COS = 0.0
PHASE_SIN = math.pi / 2.0


class InvalidCurveParameters(ValueError):
    """Requested curve parameters violate a regularity or domain precondition."""


@dataclass(frozen=True)
class TrigPolySeries:
    """Finite series ``sum A*cos(m t | sin(m t))  +  sum c*t**p``.

    ``trig`` holds ``(amplitude, frequency, phase)`` terms with phase 0 for
    cosine and pi/2 for sine; ``poly`` holds ``(coefficient, power)`` terms.
    The family is closed under differentiation.
    """

    trig: tuple[tuple[float, int, float], ...] = ()
    poly: tuple[tuple[float, int], ...] = ()

    def __call__(self, z):
        out = z * 0.0
        for amp, freq, phase in self.trig:
            if phase == PHASE_COS:
                out = out + amp * np.cos(freq * z)
            else:
                out = out + amp * np.sin(freq * z)
        return self._add_poly(out, z)

    def _add_poly(self, out, z):
        for coef, power in self.poly:
            out = out + (coef if power == 0 else coef * z**power)
        return out

    def grid(self, t, s):
        """The series at t[None, :] + i s[:, None], shape (len(s), len(t)): trig terms as
        outer products of 1-D factors, cos f(t+is) = cos ft cosh fs - i sin ft sinh fs and
        sin f(t+is) = sin ft cosh fs + i cos ft sinh fs; monomials at the grid points."""
        t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
        out = np.zeros((s.size, t.size), dtype=complex)
        re, im = out.real, out.imag
        for amp, freq, phase in self.trig:
            c, sn = amp * np.cos(freq * t), amp * np.sin(freq * t)
            ch, sh = np.cosh(freq * s)[:, None], np.sinh(freq * s)[:, None]
            if phase == PHASE_COS:
                re += ch * c
                im -= sh * sn
            else:
                re += ch * sn
                im += sh * c
        return self._add_poly(out, t[None, :] + 1j * s[:, None]) if self.poly else out

    def derivative(self) -> "TrigPolySeries":
        trig = []
        for amp, freq, phase in self.trig:
            if freq == 0:
                continue
            if phase == PHASE_COS:
                trig.append((-amp * freq, freq, PHASE_SIN))
            else:
                trig.append((amp * freq, freq, PHASE_COS))
        poly = [(coef * power, power - 1) for coef, power in self.poly if power >= 1]
        return TrigPolySeries(tuple(trig), tuple(poly))


@dataclass(frozen=True)
class EpitrochoidParams:
    """Single-wrapped epitrochoid parameters: rolling radius 1/(k+1), arm lambda.

    The product a = lambda*(k+1) controls everything downstream; a = 1 is the
    cusped (non-regular) case and is rejected.
    """

    k: int
    lam: float

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or isinstance(self.k, bool) or self.k < 1:
            raise InvalidCurveParameters("k must be a positive integer, got %r" % (self.k,))
        try:  # an int too large for a float overflows here
            finite = math.isfinite(self.lam) and math.isfinite(self.lam * (self.k + 1))
        except OverflowError:
            finite = False
        if not (self.lam > 0 and finite):
            raise InvalidCurveParameters("lambda and lambda*(k+1) must be positive and finite")
        if abs(self.lam * (self.k + 1) - 1.0) < 1e-12:
            raise InvalidCurveParameters(
                "lambda*(k+1) = 1 is excluded: the curve has cusps and "
                "x'(t)^2 + y'(t)^2 > 0 fails")

    @property
    def a(self) -> float:
        return self.lam * (self.k + 1)

    @property
    def zero_height(self) -> float:
        """|Im z| of the speed^2 zeros, ln(max(a, 1/a))/(k+1): the strip half-width."""
        return abs(math.log(self.a)) / (self.k + 1)


@dataclass(frozen=True)
class PlanarCurve:
    """Planar real-analytic curve t -> (x(t), y(t), 0) as exact series.

    Immutable after construction; all evaluation is pure, so instances are
    safe to share between workers.
    """

    x: TrigPolySeries
    y: TrigPolySeries
    domain: tuple[float, float]
    closed: bool
    label: str = "curve"
    epitrochoid: EpitrochoidParams | None = None

    def eval(self, z):
        """Evaluate the (complexified) coordinate series at z."""
        return self.x(z), self.y(z)

    def point3d(self, t):
        """Curve point embedded in R^3 (third coordinate 0)."""
        x, y = self.eval(t)
        return np.stack([x, y, 0.0 * x], axis=-1)

    def derivative(self) -> "PlanarCurve":
        """Exact termwise derivative, again a PlanarCurve-shaped series pair."""
        return PlanarCurve(
            x=self.x.derivative(),
            y=self.y.derivative(),
            domain=self.domain,
            closed=self.closed,
            label=self.label + "'",
            epitrochoid=None,
        )


def make_epitrochoid(params: EpitrochoidParams) -> PlanarCurve:
    """Canonical single-wrapped epitrochoid, scaled so x = (k+2)cos t - (k+1)lam cos((k+2)t)."""
    k, lam = params.k, params.lam
    amp = -(k + 1) * lam
    return PlanarCurve(
        x=TrigPolySeries(trig=((float(k + 2), 1, PHASE_COS), (amp, k + 2, PHASE_COS))),
        y=TrigPolySeries(trig=((float(k + 2), 1, PHASE_SIN), (amp, k + 2, PHASE_SIN))),
        domain=(0.0, TWO_PI),
        closed=True,
        label=f"epitrochoid(k={k}, lam={lam:g})",
        epitrochoid=params,
    )


def epitrochoid_from_radii(r_c: float, r_m: float, lam: float) -> PlanarCurve:
    """Rolling-circle form (fixed radius r_c, rolling radius r_m, arm lam).

    Normalizes r_c to 1, requires the single-wrapped condition r_m = r_c/(k+1)
    for an integer k >= 1, and rescales by (k+1) to the canonical curve.
    """
    if not (r_c > 0 and r_m > 0):
        raise InvalidCurveParameters("radii must be positive")
    ratio = r_c / r_m
    k_float = ratio - 1.0
    k = int(round(k_float))
    if abs(k_float - k) > 1e-9 or k < 1:
        raise InvalidCurveParameters(
            "not single-wrapped: r_c/r_m - 1 = %g is not a positive integer" % k_float)
    return make_epitrochoid(EpitrochoidParams(k=k, lam=lam / r_c))


def make_circle() -> PlanarCurve:
    """Unit circle (cos t, sin t); its Schwarz surface is a catenoid."""
    return PlanarCurve(
        x=TrigPolySeries(trig=((1.0, 1, PHASE_COS),)),
        y=TrigPolySeries(trig=((1.0, 1, PHASE_SIN),)),
        domain=(0.0, TWO_PI),
        closed=True,
        label="circle",
    )


def make_cycloid(delta: float = 0.1) -> PlanarCurve:
    """Cycloid (t - sin t, 1 - cos t) on (delta, 2pi - delta).

    The cusps at t in 2*pi*Z break regularity, so delta must stay positive.
    """
    if not delta > 0:
        raise InvalidCurveParameters("cycloid needs delta > 0: t = 0 is a cusp")
    if delta >= math.pi:
        raise InvalidCurveParameters("delta too large, empty domain")
    return PlanarCurve(
        x=TrigPolySeries(trig=((-1.0, 1, PHASE_SIN),), poly=((1.0, 1),)),
        y=TrigPolySeries(trig=((-1.0, 1, PHASE_COS),), poly=((1.0, 0),)),
        domain=(delta, TWO_PI - delta),
        closed=False,
        label=f"cycloid(delta={delta:g})",
    )


def make_parabola(half_width: float = 2.0) -> PlanarCurve:
    """Parabola (t, t^2) on [-half_width, half_width], its speed^2 1 + 4 t^2 finite."""
    if not (half_width > 0 and math.isfinite(1.0 + 4.0 * half_width * half_width)):
        raise InvalidCurveParameters("half_width must be positive with 1 + 4 half_width^2 finite")
    return PlanarCurve(
        x=TrigPolySeries(poly=((1.0, 1),)),
        y=TrigPolySeries(poly=((1.0, 2),)),
        domain=(-half_width, half_width),
        closed=False,
        label=f"parabola(half_width={half_width:g})",
    )


def regularity_margin(curve: PlanarCurve, n_samples: int = 256) -> float:
    """min over uniform real samples of x'(t)^2 + y'(t)^2."""
    if n_samples < 16:
        raise ValueError("n_samples must be at least 16")
    t = np.linspace(curve.domain[0], curve.domain[1], n_samples)
    dx = curve.x.derivative()(t)
    dy = curve.y.derivative()(t)
    return float(np.min(dx * dx + dy * dy))


def curve_from_config(cfg: dict) -> PlanarCurve:
    """Build a curve from a parsed JSON/TOML mapping.

    Recognized shapes: ``{"type": "epitrochoid", "k": 2, "lambda": 0.5}``,
    ``{"type": "circle"}``, ``{"type": "cycloid", "delta": 0.1}``,
    ``{"type": "parabola", "half_width": 2.0}``.  k must be an int and every
    other value a real number; anything else raises InvalidCurveParameters.
    """
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise InvalidCurveParameters("curve config needs a 'type' key")

    def real(key, default):
        value = cfg.get(key, default)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InvalidCurveParameters("%s must be a real number, got %r" % (key, value))
        try:
            return float(value)
        except OverflowError:
            raise InvalidCurveParameters("%s is too large for a float" % key) from None

    kind = cfg["type"]
    if kind == "epitrochoid":
        if "k" not in cfg or ("lambda" not in cfg and "lam" not in cfg):
            raise InvalidCurveParameters("epitrochoid needs k and lambda")
        lam = real("lambda" if "lambda" in cfg else "lam", None)
        return make_epitrochoid(EpitrochoidParams(k=cfg["k"], lam=lam))
    if kind == "circle":
        return make_circle()
    if kind == "cycloid":
        return make_cycloid(delta=real("delta", 0.1))
    if kind == "parabola":
        return make_parabola(half_width=real("half_width", 2.0))
    raise InvalidCurveParameters("unknown curve type %r" % (kind,))
