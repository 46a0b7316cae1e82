"""Weierstrass data (g, eta) of the Schwarz surface and consistency checks.

Convention: Phi = ((1 - g^2) eta/2, i (1 + g^2) eta/2, g eta) so that
eta = phi1 - i phi2 and, for a planar geodesic,

    g = i W/Q = i sqrt(P/Q),     eta = Q dz = (x'(z) - i y'(z)) dz,

with P = x' + i y', Q and W, the strip branch of sqrt(P Q), from ``continuation``.
The metric density is the conformal factor E = (1/4)(1 + |g|^2)^2 |eta/dz|^2,
which equals x'^2 + y'^2 on the real axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .continuation import strip_branch, velocity
from .curves import PlanarCurve
from .schwarz import HolomorphicTriple, phi, surface_point


class DivisionNearZero(ArithmeticError):
    """g = phi3/(phi1 - i phi2) evaluated at a pole of g."""


@dataclass
class WeierstrassData:
    """Evaluable pair (g, eta/d(chart)) in a named chart."""

    g: Callable
    eta: Callable
    chart: str = "z-strip"


def data_from_curve(curve: PlanarCurve) -> WeierstrassData:
    """Weierstrass data on the strip straight from the curve series: eta = Q and
    g = i W/Q, with W the strip branch of sqrt(P Q)."""

    def eta(z):
        return velocity(curve, np.real(z), np.imag(z))[1]

    def g(z):
        zs = np.asarray(z, dtype=complex)
        _, q, speed2 = velocity(curve, zs.real, zs.imag)
        out = 1j * strip_branch(curve, zs.real, zs.imag, speed2) / q
        return complex(out) if out.ndim == 0 else out

    return WeierstrassData(g=g, eta=eta, chart="z-strip")


def data_from_phi(triple: HolomorphicTriple) -> WeierstrassData:
    """Weierstrass data recovered from the null triple: g = phi3/(phi1 - i phi2)."""

    def eta(z):
        v = triple(z)
        return v[..., 0] - 1j * v[..., 1]

    def g(z):
        v = triple(z)
        den = v[..., 0] - 1j * v[..., 1]
        if np.min(np.abs(den)) < 1e-13:
            raise DivisionNearZero("phi1 - i*phi2 vanishes: pole of g at z=%s" % (z,))
        return v[..., 2] / den

    return WeierstrassData(g=g, eta=eta, chart="z-strip")


def metric_density(data: WeierstrassData, z):
    """Conformal factor (1/4)(1 + |g|^2)^2 |eta|^2 at a chart point."""
    gv = data.g(z)
    ev = data.eta(z)
    return 0.25 * (1.0 + np.abs(gv) ** 2) ** 2 * np.abs(ev) ** 2


def stereographic(n):
    """Projection from the north pole: (n1 + i n2)/(1 - n3)."""
    n = np.asarray(n, dtype=float)
    return (n[..., 0] + 1j * n[..., 1]) / (1.0 - n[..., 2])


def gauss_map_check(curve: PlanarCurve, t_samples, h: float = 1e-3) -> float:
    """max |sigma(nu(t)) - g(t)| with nu the patch normal at (t, 0).

    The s-tangent comes from central differencing of the Schwarz surface at
    step h; the t-tangent along the geodesic row is the exact curve velocity.
    """
    data = data_from_curve(curve)
    triple = phi(curve)
    ts = np.asarray(t_samples, dtype=float)
    worst = 0.0
    for t, p in zip(ts, velocity(curve, ts, 0.0)[0]):
        f_up = surface_point(triple, t, +h, tol=1e-13)
        f_dn = surface_point(triple, t, -h, tol=1e-13)
        fs = (f_up - f_dn) / (2.0 * h)
        ft = np.array([p.real, p.imag, 0.0])
        nu = np.cross(ft, fs)
        nu = nu / np.linalg.norm(nu)
        worst = max(worst, abs(stereographic(nu) - data.g(t)))
    return worst


def period_residual(curve: PlanarCurve) -> np.ndarray:
    """Re of the loop integral of Phi over the closed curve at s = 0.

    Phi1 and Phi2 integrate to x and y exactly and Re Phi3 = 0 on the axis, so
    the residual is (x(t_hi) - x(t_lo), y(t_hi) - y(t_lo), 0).
    """
    if not curve.closed:
        raise ValueError("period residual is defined for closed curves")
    t_lo, t_hi = curve.domain
    (x0, y0), (x1, y1) = curve.eval(t_lo), curve.eval(t_hi)
    return np.array([x1 - x0, y1 - y0, 0.0])
