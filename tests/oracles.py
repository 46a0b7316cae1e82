"""Test oracles: checks of the package that no command of it calls.

Weierstrass data recovered from a null triple, the conformal factor and the Gauss
map from a patch normal, the v-model's functions (w^2, (w^2)', eta's coefficient, the
Gauss map and the metric density, each from powers of v of its own, as
``VModel.loop_squares`` shares one), its w along the geodesic (with the pullback of
g and eta to the strip data), the divisor degrees of an order table,
the planar normal and curve points in R^3, the closed-form f3 of the cycloid
(Catalan's surface), of the parabola and of the epitrochoid (Carlson's R_F and R_D),
and the term-by-term sum that the column quadrature's contraction equals.
"""

import cmath
import math

import numpy as np

from bjorling.analysis import OrderTable, VModel, _point_classes
from bjorling.continuation import velocity
from bjorling.curves import EpitrochoidParams, PlanarCurve, make_epitrochoid
from bjorling.schwarz import WeierstrassData, data_from_curve, surface_point


def point3d(curve: PlanarCurve, t):
    """Curve point embedded in R^3 (third coordinate 0)."""
    x, y = curve.eval(t)
    return np.stack([x, y, 0.0 * x], axis=-1)


def planar_normal(curve: PlanarCurve, t):
    """Unit normal (-y', x', 0)/|c'| of the Bjorling data along the curve, from P = x' + i y'."""
    p = velocity(curve, t, 0.0)[0]
    speed = np.abs(p)
    return np.stack([-p.imag / speed, p.real / speed, 0.0 * speed], axis=-1)


def data_from_phi(triple) -> WeierstrassData:
    """Weierstrass data recovered from a null triple z -> Phi(z), such as
    lambda z: schwarz.phi(curve, z.real, z.imag): g = phi3/(phi1 - i phi2)."""

    def eta(z):
        v = triple(z)
        return v[..., 0] - 1j * v[..., 1]

    def g(z):
        v = triple(z)
        return v[..., 2] / (v[..., 0] - 1j * v[..., 1])

    return WeierstrassData(g=g, eta=eta)


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
    ts = np.asarray(t_samples, dtype=float)
    worst = 0.0
    for t, p in zip(ts, velocity(curve, ts, 0.0)[0]):
        f_up = surface_point(curve, t, +h, tol=1e-13)
        f_dn = surface_point(curve, t, -h, tol=1e-13)
        fs = (f_up - f_dn) / (2.0 * h)
        ft = np.array([p.real, p.imag, 0.0])
        nu = np.cross(ft, fs)
        nu = nu / np.linalg.norm(nu)
        worst = max(worst, abs(stereographic(nu) - data.g(t)))
    return worst


def w_squared(model: VModel, v):
    """w^2 = v^e (1 - a v^{k+1})(a - v^{k+1})."""
    vk = v ** (model.k + 1)
    return v**model.e * ((1.0 - model.a * vk) * (model.a - vk))


def w_squared_prime(model: VModel, v):
    """(w^2)' = e q r + v^e (q' r + q r') with q = 1 - a v^{k+1}, r = a - v^{k+1}."""
    a, e = model.a, model.e
    vk, vk_d = v ** (model.k + 1), (model.k + 1) * v**model.k
    q, r = 1.0 - a * vk, a - vk
    return e * q * r + v**e * ((-a * vk_d) * r + q * (-vk_d))


def eta_coeff(model: VModel, v):
    """eta = eta_coeff(model, v) dv = -i (k+2) (v^{k+1} - a) / v^{k+3} dv."""
    return -1j * (model.k + 2) * (v ** (model.k + 1) - model.a) / v ** (model.k + 3)


def _resolved_numerator(model: VModel, v):
    """(d, alt, A) with d = v^{k+1} - a, alt = 1 - a v^{k+1} and the numerator
    A = v^{p+e} alt of the pole-resolved g = A / w, None where |d| > |alt|."""
    vk = v ** (model.k + 1)
    d, alt = vk - model.a, 1.0 - model.a * vk
    if abs(d) <= abs(alt):
        return d, alt, v ** (model.p_exponent + model.e) * alt
    return d, alt, None


def model_g(model: VModel, v, w):
    """Gauss map on the v-model's surface; switches to the pole-resolved form near w = 0.

    On the curve v^{k+1} - a = -w^2 / (v^e (1 - a v^{k+1})), so near the
    a-family branch points g = v^{p+e} (1 - a v^{k+1}) / w, with the
    vanishing denominator eliminated.
    """
    d, _, A = _resolved_numerator(model, v)
    if A is not None:
        return A / w
    return -w * v**model.p_exponent / d


def model_density(model: VModel, v, w) -> float:
    """Conformal factor of (1/4)(1+|g|^2)^2 eta etabar in the local coordinate w.

    |dv/dw| = |2w / (w^2)'(v)| supplies the quadratic vanishing at the branch points
    (w = 0); there the a-family's 0/0 is cancelled through the curve relation, as in
    ``model_g``, before evaluating.
    """
    p_prime = w_squared_prime(model, v)
    d, alt, A = _resolved_numerator(model, v)
    if A is not None:
        # a-family-safe form: g = A/w, eta dv/dw = -2 Ceta w^3 / (...), Ceta = -i (k+2)
        pref = 2.0 * (model.k + 2) / abs(v ** (model.k + 3 + model.e) * alt * p_prime)
        return 0.25 * (abs(w) * pref * (abs(w) ** 2 + abs(A) ** 2)) ** 2
    gv = -w * v**model.p_exponent / d
    eta_tau = eta_coeff(model, v) * (2.0 * w / p_prime)
    return 0.25 * (1.0 + abs(gv) ** 2) ** 2 * abs(eta_tau) ** 2


def w_on_geodesic(model: VModel, t):
    """w at v = e^{it}, continued along the unit circle from w(0) = -i|1 - a|.

    There a - v^{k+1} = -v^{k+1} conj(1 - a v^{k+1}), so w^2 = -v^{k+1+e}
    |1 - a v^{k+1}|^2, and k+1+e is even: w = -i e^{i(k+1+e)t/2} |1 - a e^{i(k+1)t}|.
    """
    return (-1j * np.exp(0.5j * (model.k + 1 + model.e) * t)
            * np.abs(1.0 - model.a * np.exp(1j * (model.k + 1) * t)))


def pullback_residual(model: VModel, n_samples: int = 50) -> float:
    """max deviation between the v-model and the strip data on the geodesic.

    Substitutes v = e^{it} and undoes the -pi/2 rotation: the rotated data
    (g', eta') must satisfy g' = -i g_z and eta_z = v * eta'_coeff(v), with w
    from ``w_on_geodesic``.
    """
    curve = make_epitrochoid(EpitrochoidParams(k=model.k, lam=model.lam))
    data = data_from_curve(curve)
    ts = 2.0 * math.pi * np.arange(n_samples) / n_samples
    ws = w_on_geodesic(model, ts)
    worst = 0.0
    for t, w, g_strip, eta_strip in zip(ts.tolist(), ws.tolist(), data.g(ts).tolist(),
                                        data.eta(ts).tolist()):
        v = cmath.exp(1j * t)
        worst = max(worst, abs(model_g(model, v, w) - (-1j) * g_strip),
                    abs(v * eta_coeff(model, v) - eta_strip))
    return worst


def divisor_degree_check(table: OrderTable, model: VModel) -> tuple[int, int]:
    """(deg div(g), deg div(eta)) from the computed table, weighted by multiplicity.

    deg div(g) must be 0 and deg div(eta) must be 2*genus - 2.
    """
    copies = {label: n for label, _, _, n in _point_classes(model)}
    deg_g = sum(copies[r.point] * r.g_order for r in table.rows)
    deg_eta = sum(copies[r.point] * r.eta_order for r in table.rows)
    return deg_g, deg_eta


def cycloid_f3(t, s):
    """f3 of the cycloid (t - sin t, 1 - cos t), Catalan's surface (1855): W = 2 sin(z/2), so
    f3 = -int_0^s Re 2 sin((t + i sigma)/2) d sigma = -4 sin(t/2) sinh(s/2)."""
    return -4.0 * np.sin(0.5 * t) * np.sinh(0.5 * s)


def parabola_f3(t, s):
    """f3 of the parabola (t, t^2): -Im F(t + is) with F' = W = sqrt(1 + 4z^2), F real on
    the axis, F(z) = z sqrt(1 + 4z^2)/2 + asinh(2z)/4.  The principal roots are the strip
    branch: 1 + 4z^2 and 1 + (2z)^2 stay off the negative axis for |Im z| < 1/2."""
    z = t + 1j * s
    root = np.sqrt(1.0 + 4.0 * z * z)
    return -(0.5 * z * root + 0.25 * np.arcsinh(2.0 * z)).imag


def _carlson_rf(x, y, z):
    """Carlson's R_F(x, y, z) by duplication (Numer. Algorithms 10, 1995; DLMF 19.36(i)), for
    complex arguments off the cut (-inf, 0], at most one of them 0: principal roots.  Each
    step divides the spread by 4, so 60 steps end any finite start; a NaN ends as NaN."""
    for _ in range(60):
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        ave = (x + y + z) / 3.0
        dx, dy = (ave - x) / ave, (ave - y) / ave
        dz = -dx - dy
        if max(np.max(np.abs(d)) for d in (dx, dy, dz)) < 2.5e-3:   # truncation ~ 1e-17
            break
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    return (1.0 + (e2 / 24.0 - 0.1 - 3.0 / 44.0 * e3) * e2 + e3 / 14.0) / np.sqrt(ave)


def _carlson_rd(x, y, z):
    """Carlson's R_D(x, y, z) = R_J(x, y, z, z) by duplication, as ``_carlson_rf``."""
    total, fac = 0.0, 1.0
    for _ in range(60):
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        total = total + fac / (sz * (z + lam))
        fac *= 0.25
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        ave = 0.2 * (x + y + 3.0 * z)
        dx, dy, dz = (ave - x) / ave, (ave - y) / ave, (ave - z) / ave
        if max(np.max(np.abs(d)) for d in (dx, dy, dz)) < 1.5e-3:
            break
    ea, eb = dx * dy, dz * dz
    ec, ed = ea - eb, ea - 6.0 * eb
    ee = ed + 2.0 * ec
    series = 1.0 + ed * (-3.0 / 14.0 + 9.0 / 88.0 * ed - 9.0 / 52.0 * dz * ee) \
        + dz * (ee / 6.0 + dz * (-9.0 / 22.0 * ec + dz * 3.0 / 26.0 * ea))
    return 3.0 * total + fac * series / (ave * np.sqrt(ave))


def elliptic_e(phi, m):
    """Incomplete elliptic integral of the second kind E(phi | m) = int_0^phi sqrt(1 - m
    sin^2) for complex phi with |Re phi| <= pi/2, where cos^2 phi stays off R_F's cut:
    sin phi R_F(c, d, 1) - (m/3) sin^3 phi R_D(c, d, 1), c = cos^2 phi, d = 1 - m sin^2 phi."""
    sin, c = np.sin(phi), np.cos(phi) ** 2
    d = 1.0 - m * sin * sin
    return sin * _carlson_rf(c, d, 1.0) - m / 3.0 * sin ** 3 * _carlson_rd(c, d, 1.0)


def epitrochoid_f3(k: int, lam: float, t, s):
    """f3 of the epitrochoid in closed form.  W = (k+2) sqrt(1 + a^2 - 2a cos((k+1)z)), a =
    lam (k+1), is (k+2)(1+a) sqrt(1 - m sin^2 phi) with m = 4a/(1+a)^2 and phi = pi/2 -
    (k+1)z/2, so f3 = -int_0^s Re W(t + i sigma) d sigma = (2(k+2)(1+a)/(k+1)) Im E(phi | m).

    f3 has period 2 pi/(k+1) in t and is even in t (W(-z) = W(z)), so t is first folded
    into [0, pi/(k+1)]: Re phi then lies in [0, pi/2], and at a lobe waist t = 2 pi j/(k+1)
    it is the double nearest pi/2, just below it, so cos phi > 0 keeps cos^2 phi on the
    inner side of R_F's cut.  Reducing Re phi by n pi instead (E(phi + n pi) = E(phi) +
    2n E(m)) puts the far waists on an odd multiple of pi/2 with rounding picking the side:
    at k = 12 the waists from t = 4.35 to 2 pi then get f3 with the wrong sign.
    """
    a = lam * (k + 1)
    period = 2.0 * math.pi / (k + 1)
    t = np.mod(t, period)
    t = np.minimum(t, period - t)
    phi = 0.5 * math.pi - 0.5 * (k + 1) * (t + 1j * np.asarray(s, dtype=float))
    return 2.0 * (k + 2) * (1.0 + a) / (k + 1) * elliptic_e(phi, 4.0 * a / (1.0 + a) ** 2).imag


def chebyshev_increments_by_terms(coef, x, x0):
    """sum_j coef[j] (T_j(x) - T_j(x0)) for coef (J, m) and x (L,), accumulated term by term:
    one (L, m) multiply and one add per j, starting from +0.0, which is the order and the
    rounding that ``schwarz._chebyshev_increments`` keeps for every output of its einsum."""
    u = np.append(x, x0)
    prev, cur = np.ones_like(u), u
    out = np.zeros((len(x), coef.shape[1]))
    for c in coef[1:]:
        out += (cur[:-1] - cur[-1])[:, None] * c
        prev, cur = cur, 2.0 * u * cur - prev
    return out
