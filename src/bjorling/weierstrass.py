"""Weierstrass data (g, eta) of the Schwarz surface, and the period residual.

Convention: Phi = ((1 - g^2) eta/2, i (1 + g^2) eta/2, g eta) so that
eta = phi1 - i phi2 and, for a planar geodesic,

    g = i W/Q = i sqrt(P/Q),     eta = Q dz = (x'(z) - i y'(z)) dz,

with P = x' + i y', Q and W, the strip branch of sqrt(P Q), from ``continuation``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .continuation import velocity
from .curves import PlanarCurve
from .schwarz import _strip_parts


@dataclass
class WeierstrassData:
    """Evaluable pair (g, eta/dz) on the strip."""

    g: Callable
    eta: Callable


def data_from_curve(curve: PlanarCurve) -> WeierstrassData:
    """Weierstrass data on the strip straight from the curve series: eta = Q and
    g = i W/Q, with W the strip branch of sqrt(P Q)."""

    def eta(z):
        return velocity(curve, np.real(z), np.imag(z))[1]

    def g(z):
        _, q, w = _strip_parts(curve, np.real(z), np.imag(z))
        out = 1j * w / q
        return complex(out) if out.ndim == 0 else out

    return WeierstrassData(g=g, eta=eta)


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
