"""Independent differential-geometry checks on sampled patches, and the ``verify``
decision: its t-window (``verify_window``), its residuals and their ``THRESHOLDS``.

Mean curvature and the geodesic property are re-derived from patch points by
central differences only, so they act as an oracle against the construction
pipeline rather than consuming its Weierstrass data.  The symmetry check works
on the null triple directly (it is a resolution-independent identity).  The
curvature and conformality residuals run on ``BLOCK_ROWS`` grid rows at a time, copied into
component planes: bitwise the whole grid's, by its operations in its order.  Every residual
is taken at one row per distinct |s|: the null and conformality residuals read
``PatchGrid.level_phi``, and curvature, whose s-stencils are mirror-exact, reads the rows
from just below s = 0 up of a patch whose points are an exact mirror in s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .continuation import Strip, find_strip
from .curves import InvalidCurveParameters, PlanarCurve
from .schwarz import PatchGrid, phi, surface_patch

# acceptance-grade bounds, in the order ``verify`` prints them
THRESHOLDS = {
    "null_residual": 1e-12,
    "conformality_residual": 1e-6,
    "max_mean_curvature": 1e-3,
    "geodesic_residual": 1e-4,
    "symmetry_residual": 1e-11,
}
_W_FLOOR = 1e-14
PROBE_NT, PROBE_NS = 128, 65    # verify_window's probe patch, nt x ns
# whole grid rows per block of the residual checks, which copy a block into contiguous
# component planes (components, rows, nt) whose temporaries then stay in cache
BLOCK_ROWS = 32


class DegenerateMetric(ArithmeticError):
    """EG - F^2 fell below 1e-14 at an interior vertex."""


def _plane_dot(u, v):
    """u . v over component planes u[i], v[i], summed left to right as np.sum sums 3 terms."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _spacings(patch: PatchGrid) -> tuple[float, float]:
    """(ht, hs), the patch's grid steps in t and s."""
    return patch.t_vals[1] - patch.t_vals[0], patch.s_vals[1] - patch.s_vals[0]


def _level_blocks(patch: PatchGrid):
    """``patch.level_phi``, Phi at one row per distinct |s|, by blocks of BLOCK_ROWS rows."""
    phi = patch.level_phi
    return (phi[r:r + BLOCK_ROWS] for r in range(0, len(phi), BLOCK_ROWS))


def null_residual(patch: PatchGrid) -> float:
    """max |sum phi_i^2| / sum |phi_i|^2 at one row per distinct |s|: relative to its rounding."""
    r = -math.inf
    for p in _level_blocks(patch):
        r = np.max(np.abs(p[..., 0] ** 2 + p[..., 1] ** 2 + p[..., 2] ** 2)
                   / np.einsum("...j,...j", p.view(float), p.view(float)), initial=r)
    return float(r)


def conformality_residuals(patch: PatchGrid) -> tuple[float, float]:
    """(max |E-G|/E, max |F|/E) from the exact first fundamental form, at one row per
    distinct |s|, on component planes of Re phi_i = (f_t)_i and Im phi_i = -(f_s)_i."""
    eg = f = -math.inf
    for p in _level_blocks(patch):
        v = np.ascontiguousarray(np.moveaxis(p.view(float), -1, 0))
        ft, fs = v[0::2], v[1::2]
        E, F, G = _plane_dot(ft, ft), _plane_dot(ft, fs), _plane_dot(fs, fs)
        eg = np.max(np.abs(E - G) / E, initial=eg)
        f = np.max(np.abs(F) / E, initial=f)
    return float(eg), float(f)


def mean_curvature_residual(points: np.ndarray, ht: float, hs: float) -> float:
    """max |H| over interior vertices from central-difference stencils.

    H = (E N - 2 F M + G L) / (2 (E G - F^2)); expected O(h^2) for patches of
    a minimal surface.  Taken over blocks of BLOCK_ROWS interior rows, as planes.
    """
    P = np.asarray(points, dtype=float)
    mid = len(P) // 2
    lo, hi = P[:mid + 1], P[:mid - 1:-1]    # rows 0..mid and ns-1 down to mid
    # an exact mirror in s (rows l and ns-1-l equal in f1 and f2, opposite in f3, about a
    # middle row with f3 = 0) gives mirror rows bitwise-equal |H|: keep rows mid - 1 on.
    # Compared one component plane at a time, which numpy does at full speed
    if len(P) % 2 and np.array_equal(lo[..., 0], hi[..., 0]) and np.array_equal(
            lo[..., 1], hi[..., 1]) and np.array_equal(lo[..., 2], -hi[..., 2]):
        P = P[mid - 1:]
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
        # s-stencils as differences of column neighbours, grouped to be mirror-exact in s
        fss = ((B[:, 2:, 1:-1] - B[:, 1:-1, 1:-1]) + (B[:, :-2, 1:-1] - B[:, 1:-1, 1:-1])) / hs**2
        fts = ((B[:, 2:, 2:] - B[:, :-2, 2:]) - (B[:, 2:, :-2] - B[:, :-2, :-2])) / (4.0 * ht * hs)
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
    ht, hs = _spacings(patch)
    P = np.moveaxis(patch.points, -1, 0)    # component planes (3, ns, nt)
    ft = (P[:, row, 2:] - P[:, row, :-2]) / (2.0 * ht)
    fs = (P[:, row + 1, 1:-1] - P[:, row - 1, 1:-1]) / (2.0 * hs)
    d2 = curve.derivative().derivative()
    t_int = patch.t_vals[1:-1]
    acc = np.stack([d2.x(t_int), d2.y(t_int), np.zeros_like(t_int)])
    # tangential component: solve the 2x2 Gram system per sample
    e = _plane_dot(ft, ft)
    f = _plane_dot(ft, fs)
    g = _plane_dot(fs, fs)
    bt = _plane_dot(acc, ft)
    bs = _plane_dot(acc, fs)
    det = e * g - f * f
    alpha = (bt * g - bs * f) / det
    beta = (bs * e - bt * f) / det
    tangential = alpha * ft + beta * fs
    unit_t = ft / np.sqrt(_plane_dot(ft, ft))
    sideways = tangential - _plane_dot(tangential, unit_t) * unit_t
    return float(np.max(np.sqrt(_plane_dot(sideways, sideways))))


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
        payload = {name: getattr(self, name) for name in THRESHOLDS}
        payload["grid"] = {"nt": self.nt, "ns": self.ns,
                           "t_range": list(self.t_range), "s_range": list(self.s_range)}
        return payload

    def checks(self) -> list[tuple[str, float, float, bool]]:
        """(name, value, bound, passed) of each residual the curve has, in THRESHOLDS
        order; a residual passes when it is below its bound, so nan fails."""
        values = ((name, getattr(self, name), bound) for name, bound in THRESHOLDS.items())
        return [(name, v, bound, v < bound) for name, v, bound in values if v is not None]

    def failed(self) -> list[str]:
        """The names of the residuals that did not pass, in THRESHOLDS order."""
        return [name for name, _, _, passed in self.checks() if not passed]


def verification_report(curve: PlanarCurve, patch: PatchGrid) -> VerificationReport:
    """Bundle of all residuals for one sampled patch."""
    if curve.epitrochoid is not None:
        sym = symmetry_residual(curve)
    elif curve.label == "circle":
        sym = symmetry_residual(curve, angle=math.pi / 3.0)
    else:
        sym = None
    return VerificationReport(
        max_mean_curvature=mean_curvature_residual(patch.points, *_spacings(patch)),
        geodesic_residual=geodesic_residual(curve, patch),
        conformality_residual=max(conformality_residuals(patch)),
        symmetry_residual=sym,
        null_residual=null_residual(patch),
        nt=len(patch.t_vals),
        ns=len(patch.s_vals),
        t_range=(float(patch.t_vals[0]), float(patch.t_vals[-1])),
        s_range=(float(patch.s_vals[0]), float(patch.s_vals[-1])),
    )


def verify_window(curve: PlanarCurve, strip: Strip, halfwidth: float, nt: int):
    """t-window sized so second-order stencils meet the curvature threshold.

    A coarse probe patch estimates the ht^2 error constant; the window is
    anchored at the domain start (a lobe waist for epitrochoids) and shrunk
    only when the full domain cannot meet 2.5e-4, a quarter of the threshold,
    at the requested nt.  A probe whose squared spacings are not finite and
    positive (h^2 underflows or overflows), or whose error constant is not
    finite, is invalid input.
    """
    t_lo, t_hi = curve.domain
    length = t_hi - t_lo
    ht, hs = length / (PROBE_NT - 1), 2.0 * halfwidth / (PROBE_NS - 1)  # the probe's spacings
    ht2, hs2 = ht * ht, hs * hs
    if not (0.0 < min(ht2, hs2) and math.isfinite(max(ht2, hs2))):
        raise InvalidCurveParameters(
            "verify's window probe cannot resolve a domain of length %g and a strip "
            "of half-width %g" % (length, halfwidth))
    probe = surface_patch(curve, curve.domain, (-halfwidth, halfwidth), PROBE_NT, PROBE_NS,
                          strip=strip)
    c_t = mean_curvature_residual(probe.points, *_spacings(probe)) / ht2
    if not math.isfinite(c_t):
        raise InvalidCurveParameters(
            "verify's window probe found no finite curvature error constant (%g)" % c_t)
    if c_t <= 0:
        return curve.domain
    ext = (nt - 1) * math.sqrt(2.5e-4 / c_t)
    if ext >= length:
        return curve.domain
    return (t_lo, t_lo + ext)


def verify_curve(curve: PlanarCurve, nt: int, ns: int, s_fraction: float) -> VerificationReport:
    """The report of ``bjorling verify``: an nt x ns patch (ns made odd, so s = 0 is a
    row) over ``verify_window``, of half-width ``Strip.halfwidth(s_fraction)``."""
    strip = find_strip(curve)
    halfwidth = strip.halfwidth(s_fraction)
    ns = ns if ns % 2 == 1 else ns + 1
    window = verify_window(curve, strip, halfwidth, nt)
    patch = surface_patch(curve, window, (-halfwidth, halfwidth), nt, ns, strip=strip)
    return verification_report(curve, patch)
