"""Independent differential-geometry checks on sampled patches.

Mean curvature and the geodesic property are re-derived from patch points by
central differences only, so they act as an oracle against the construction
pipeline rather than consuming its Weierstrass data.  The symmetry check works
on the null triple directly (it is a resolution-independent identity).  The
curvature and conformality residuals run on ``BLOCK_ROWS`` grid rows at a time, copied into
component planes: bitwise the whole grid's, by its operations in its order.  Conformality
and the null residual read one row per distinct |s|, curvature every row (not mirror-exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import PlanarCurve
from .schwarz import BLOCK_ROWS, PatchGrid, _plane_dot, phi

_W_FLOOR = 1e-14


class DegenerateMetric(ArithmeticError):
    """EG - F^2 fell below 1e-14 at an interior vertex."""


def mean_curvature_residual(points: np.ndarray, ht: float, hs: float) -> float:
    """max |H| over interior vertices from central-difference stencils.

    H = (E N - 2 F M + G L) / (2 (E G - F^2)); expected O(h^2) for patches of
    a minimal surface.  Taken over blocks of BLOCK_ROWS interior rows, as planes.
    """
    P = np.asarray(points, dtype=float)
    h, w_min = -math.inf, math.inf
    # an empty interior is one empty block, so np.min raises as on the whole grid
    for r in range(1, max(len(P) - 1, 2), BLOCK_ROWS):
        B = np.ascontiguousarray(np.moveaxis(P[r - 1:r + BLOCK_ROWS + 1], -1, 0))
        ft = (B[:, 1:-1, 2:] - B[:, 1:-1, :-2]) / (2.0 * ht)
        fs = (B[:, 2:, 1:-1] - B[:, :-2, 1:-1]) / (2.0 * hs)
        E, F, G = _plane_dot(ft, ft), _plane_dot(ft, fs), _plane_dot(fs, fs)
        W = E * G - F * F
        w_min = min(w_min, float(np.min(W)))
        if w_min < _W_FLOOR:
            continue
        ftt = (B[:, 1:-1, 2:] - 2.0 * B[:, 1:-1, 1:-1] + B[:, 1:-1, :-2]) / ht**2
        fss = (B[:, 2:, 1:-1] - 2.0 * B[:, 1:-1, 1:-1] + B[:, :-2, 1:-1]) / hs**2
        fts = (B[:, 2:, 2:] - B[:, 2:, :-2] - B[:, :-2, 2:] + B[:, :-2, :-2]) / (4.0 * ht * hs)
        # np.cross(ft, fs) and its np.linalg.norm, in their order of operations
        n = (ft[1] * fs[2] - ft[2] * fs[1], ft[2] * fs[0] - ft[0] * fs[2],
             ft[0] * fs[1] - ft[1] * fs[0])
        norm = np.sqrt(_plane_dot(n, n))
        n = [c / norm for c in n]
        H = (E * _plane_dot(fss, n) - 2.0 * F * _plane_dot(fts, n)
             + G * _plane_dot(ftt, n)) / (2.0 * W)
        h = np.max(np.abs(H), initial=h)
    if w_min < _W_FLOOR:
        raise DegenerateMetric("EG - F^2 = %g at an interior vertex" % w_min)
    return float(h)


def geodesic_residual(curve: PlanarCurve, patch: PatchGrid) -> float:
    """max geodesic-curvature witness: the sideways tangential part of c''(t).

    c'' is projected onto the discrete tangent plane at (t, 0) and the
    component along the curve direction is removed - that part is pure
    reparametrization (the curves here are not arclength parametrized), not a
    failure of the geodesic property.  Requires s = 0 as an interior row.
    """
    row = patch.geodesic_row
    if row is None or row == 0 or row == len(patch.s_vals) - 1:
        raise ValueError("patch must contain s = 0 as an interior row")
    ht = patch.t_vals[1] - patch.t_vals[0]
    hs = patch.s_vals[1] - patch.s_vals[0]
    P = patch.points
    ft = (P[row, 2:] - P[row, :-2]) / (2.0 * ht)
    fs = (P[row + 1, 1:-1] - P[row - 1, 1:-1]) / (2.0 * hs)
    d2 = curve.derivative().derivative()
    t_int = patch.t_vals[1:-1]
    acc = np.stack([d2.x(t_int), d2.y(t_int), np.zeros_like(t_int)], axis=-1)
    def dot(u, v):  # over the last axis, as component planes
        return _plane_dot(np.moveaxis(u, -1, 0), np.moveaxis(v, -1, 0))

    # tangential component: solve the 2x2 Gram system per sample
    e = dot(ft, ft)
    f = dot(ft, fs)
    g = dot(fs, fs)
    bt = dot(acc, ft)
    bs = dot(acc, fs)
    det = e * g - f * f
    alpha = (bt * g - bs * f) / det
    beta = (bs * e - bt * f) / det
    tangential = alpha[..., None] * ft + beta[..., None] * fs
    unit_t = ft / np.linalg.norm(ft, axis=-1, keepdims=True)
    sideways = tangential - dot(tangential, unit_t)[..., None] * unit_t
    return float(np.max(np.linalg.norm(sideways, axis=-1)))


def symmetry_residual(curve: PlanarCurve, angle: float | None = None,
                      s_values=(0.0,)) -> float:
    """max |Phi(z + angle) - R_angle Phi(z)| / max |Phi(z)| over 64 equispaced t on
    each sampled row, with R a rotation about the x3-axis: relative, as the null
    residual is, since rounding in Phi grows with Phi.

    For an epitrochoid the natural angle 2*pi/(k+1) is used by default; a
    circle is equivariant under every angle.
    """
    if angle is None:
        if curve.epitrochoid is None:
            raise ValueError("angle required for a curve without dihedral symmetry")
        angle = 2.0 * math.pi / (curve.epitrochoid.k + 1)
    t = np.linspace(curve.domain[0], curve.domain[1], 64, endpoint=False)
    s = np.asarray(s_values, dtype=float)[:, None]
    a = phi(curve, t, s)
    b = phi(curve, t + angle, s)
    c, sn = math.cos(angle), math.sin(angle)
    rotated = np.empty_like(a)
    rotated[..., 0] = c * a[..., 0] - sn * a[..., 1]
    rotated[..., 1] = sn * a[..., 0] + c * a[..., 1]
    rotated[..., 2] = a[..., 2]
    return float(np.max(np.abs(b - rotated)) / np.max(np.abs(a)))


@dataclass(frozen=True)
class VerificationReport:
    max_mean_curvature: float
    geodesic_residual: float
    conformality_residual: float
    symmetry_residual: float | None
    null_residual: float
    nt: int
    ns: int
    t_range: tuple[float, float]
    s_range: tuple[float, float]

    def to_json_dict(self) -> dict:
        return {
            "max_mean_curvature": self.max_mean_curvature,
            "geodesic_residual": self.geodesic_residual,
            "conformality_residual": self.conformality_residual,
            "symmetry_residual": self.symmetry_residual,
            "null_residual": self.null_residual,
            "grid": {"nt": self.nt, "ns": self.ns,
                     "t_range": list(self.t_range), "s_range": list(self.s_range)},
        }


def verification_report(curve: PlanarCurve, patch: PatchGrid) -> VerificationReport:
    """Bundle of all residuals for one sampled patch."""
    ht = patch.t_vals[1] - patch.t_vals[0]
    hs = patch.s_vals[1] - patch.s_vals[0]
    conf = max(patch.conformality_residuals())
    if curve.epitrochoid is not None:
        sym = symmetry_residual(curve)
    elif curve.label == "circle":
        sym = symmetry_residual(curve, angle=math.pi / 3.0)
    else:
        sym = None
    return VerificationReport(
        max_mean_curvature=mean_curvature_residual(patch.points, ht, hs),
        geodesic_residual=geodesic_residual(curve, patch),
        conformality_residual=conf,
        symmetry_residual=sym,
        null_residual=patch.null_residual(),
        nt=len(patch.t_vals),
        ns=len(patch.s_vals),
        t_range=(float(patch.t_vals[0]), float(patch.t_vals[-1])),
        s_range=(float(patch.s_vals[0]), float(patch.s_vals[-1])),
    )
