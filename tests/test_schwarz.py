import hashlib
import math

import numpy as np
import pytest

from bjorling import schwarz
from bjorling.continuation import SingularityOnPath, find_strip
from bjorling.curves import PlanarCurve, TrigPolySeries, make_circle, make_cycloid, make_parabola
from bjorling.schwarz import (
    CC_FIRST_N,
    CC_MAX_N,
    QuadratureFailure,
    StripTooWide,
    phi,
    planar_normal,
    surface_patch,
    surface_point,
)

from conftest import epi


def catenoid(t, s):
    # closed form of Re int_0^{t+is} (-sin w, cos w, i) dw
    return np.stack([np.cos(t) * np.cosh(s) - 1.0,
                     np.sin(t) * np.cosh(s),
                     -s], axis=-1)


def test_clenshaw_curtis_exact_through_degree_n():
    # the antiderivative of the interpolant at cos(pi k/n) is exact for every
    # polynomial of degree <= n, and T_{n+1} aliases onto T_{n-1}
    x = np.linspace(-1.0, 1.0, 9)
    for n in (CC_FIRST_N, 2 * CC_FIRST_N):
        nodes = np.cos(np.pi * np.arange(n + 1) / n)
        for d in range(n + 1):
            coef = schwarz._chebyshev_antiderivative((nodes**d)[:, None])
            got = schwarz._chebyshev_increments(coef, x, -0.3)[:, 0]
            exact = (x ** (d + 1) - (-0.3) ** (d + 1)) / (d + 1)
            assert np.max(np.abs(got - exact)) < 1e-14, (n, d)
        aliased = np.cos((n + 1) * np.arccos(nodes))[:, None]
        got = schwarz._chebyshev_increments(schwarz._chebyshev_antiderivative(aliased), x, -0.3)
        antider = lambda u: np.cos((n + 2) * np.arccos(u)) / (2 * (n + 2)) \
            - np.cos(n * np.arccos(u)) / (2 * n)
        assert np.max(np.abs(got[:, 0] - (antider(x) - antider(-0.3)))) > 1e-3


def test_phi_values():
    t = np.linspace(0, 2 * math.pi, 9)
    vals = phi(make_circle(), t, 0.0)
    assert np.allclose(vals[:, 0], -np.sin(t), atol=1e-14)
    assert np.allclose(vals[:, 1], np.cos(t), atol=1e-14)
    assert np.allclose(vals[:, 2], 1j, atol=1e-14)

    v = phi(epi(2, 0.5), 0.0, 0.0)
    assert np.allclose(v, [0.0, -2.0, 2.0j], atol=1e-13)

    v = phi(make_parabola(), 0.0, 0.0)
    assert np.allclose(v, [1.0, 0.0, 1.0j], atol=1e-14)


def test_null_identity_on_grid(test_curve):
    cap = find_strip(test_curve).cap
    s_max = 0.8 * cap if math.isfinite(cap) else 0.8
    t = np.linspace(*test_curve.domain, 48)
    s = np.linspace(-s_max, s_max, 7)
    vals = phi(test_curve, t[None, :], s[:, None])
    assert float(np.max(np.abs(np.sum(vals**2, axis=-1)))) < 1e-12


@pytest.mark.parametrize("curve", [epi(2, 0.5), make_circle()], ids=lambda c: c.label)
def test_null_residual_reads_an_error_in_phi3(curve):
    # relative to sum |phi_i|^2, a 1e-9 error in Phi3 reads 1e-9 and fails the
    # 1e-12 verify threshold; the exact triple sits at its rounding floor
    cap = min(find_strip(curve).cap, 0.9)
    patch = surface_patch(curve, curve.domain, (-cap, cap), 64, 17)
    assert patch.null_residual() < 1e-15
    patch.phi[..., 2] *= 1.0 + 1e-9
    assert 0.9e-9 < patch.null_residual() < 1.1e-9


def test_planar_normal():
    assert np.allclose(planar_normal(make_circle(), 0.0), [-1.0, 0.0, 0.0])
    assert np.allclose(planar_normal(epi(2, 0.5), 0.0), [1.0, 0.0, 0.0])
    # formula value at the cycloid peak: x' = 2, y' = 0 -> (-y', x')/|c'| = (0, 1, 0)
    assert np.allclose(planar_normal(make_cycloid(), math.pi), [0.0, 1.0, 0.0])
    n = planar_normal(epi(3, 0.6), 1.234)
    assert abs(np.linalg.norm(n) - 1.0) < 1e-14


def test_surface_patch_rows_and_anchor():
    curve = make_circle()
    patch = surface_patch(curve, (0.0, 2 * math.pi), (-1.0, 1.0), 33, 9)
    row = patch.geodesic_row
    assert row is not None
    expect = curve.point3d(patch.t_vals)
    assert np.max(np.abs(patch.points[row] - expect)) < 1e-10
    # full catenoid, translated back to the raw integral anchor
    T, S = np.meshgrid(patch.t_vals, patch.s_vals)
    assert np.max(np.abs(patch.points - np.array([1.0, 0, 0]) - catenoid(T, S))) < 1e-9
    # f(0, 1) of the anchored patch
    assert np.allclose(patch.points[-1, 0], [math.cosh(1.0), 0.0, -1.0], atol=1e-10)


def test_surface_patch_strip_clamp():
    curve = epi(2, 0.5)
    cap = find_strip(curve).cap
    assert abs(cap - 0.9 * math.log(1.5) / 3.0) < 1e-12
    with pytest.raises(StripTooWide):
        surface_patch(curve, (0.0, 2 * math.pi), (-1.5 * cap, 1.5 * cap), 16, 5)
    patch = surface_patch(curve, (0.0, 2 * math.pi), (-cap, cap), 64, 9)
    row = patch.geodesic_row
    assert np.max(np.abs(patch.points[row] - curve.point3d(patch.t_vals))) < 1e-9


def test_surface_patch_rejects_a_strip_for_another_curve_or_window():
    curve = epi(2, 0.5)
    strip = find_strip(curve)
    h = 0.5 * strip.cap
    with pytest.raises(ValueError, match="does not cover"):
        surface_patch(curve, curve.domain, (-h, h), 8, 3, strip=find_strip(epi(3, 0.6)))
    with pytest.raises(ValueError, match="does not cover"):
        surface_patch(curve, (0.0, 2.0), (-h, h), 8, 3, strip=find_strip(curve, (0.5, 2.0)))
    # the domain's strip serves every window inside the domain
    window = (0.5, 2.0)
    own = surface_patch(curve, window, (-h, h), 8, 3)
    assert np.array_equal(surface_patch(curve, window, (-h, h), 8, 3, strip=strip).points,
                          own.points)


def test_surface_point_matches_patch():
    curve = epi(3, 0.6)
    cap = find_strip(curve).cap
    patch = surface_patch(curve, (0.0, 2.0), (-0.8 * cap, 0.8 * cap), 9, 7)
    for j, l in ((4, 5), (6, 1)):
        pt = surface_point(curve, float(patch.t_vals[j]), float(patch.s_vals[l]))
        assert np.max(np.abs(pt - patch.points[l, j])) < 1e-10


@pytest.mark.parametrize("curve", [make_circle(), make_cycloid(), make_parabola(), epi(2, 0.5),
                                   epi(1, 30.0)], ids=lambda c: c.label)
def test_geodesic_row_is_the_curve_bitwise(curve):
    cap = min(find_strip(curve).cap, 0.9)
    patch = surface_patch(curve, curve.domain, (-cap, cap), 64, 9)
    row = patch.points[patch.geodesic_row]
    x, y = curve.eval(patch.t_vals)
    assert np.array_equal(row[:, 0], x) and np.array_equal(row[:, 1], y)
    assert np.all(row[:, 2] == 0.0)


def _double_zero_curve():
    # x' + i y' = (1 + iz)^2: double zeros of speed^2 at +-i
    return PlanarCurve(x=TrigPolySeries(poly=((1.0, 1), (-1.0 / 3.0, 3))),
                       y=TrigPolySeries(poly=((1.0, 2),)), domain=(-0.5, 0.5), closed=False,
                       label="double")


def _bits_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("ns", [33, 32])
@pytest.mark.parametrize("curve", [make_circle(), make_cycloid(), make_parabola(), epi(2, 0.5),
                                   epi(1, 30.0), epi(2, 0.35), _double_zero_curve()],
                         ids=lambda c: c.label)
def test_symmetric_patch_is_its_own_reflection_bitwise(curve, ns):
    # real series: f1, f2 even in s, f3 odd, Phi1,2(t - is) = conj Phi1,2(t + is)
    # and Phi3(t - is) = -conj Phi3(t + is), bit for bit
    cap = min(find_strip(curve).cap, 0.9)
    patch = surface_patch(curve, curve.domain, (-cap, cap), 48, ns)
    s, pts, ph = patch.s_vals, patch.points, patch.phi
    assert s[0] == -cap and s[-1] == cap
    # rows below the axis against their mirrors; an odd middle row is its own
    low, high = slice(0, ns // 2), slice(ns - 1, (ns - 1) // 2, -1)
    assert _bits_equal(s[low], -s[high])
    assert _bits_equal(pts[low, :, :2], pts[high, :, :2])
    assert _bits_equal(pts[low, :, 2], -pts[high, :, 2])
    assert _bits_equal(ph[low, :, :2], np.conj(ph[high, :, :2]))
    assert _bits_equal(ph[low, :, 2], -np.conj(ph[high, :, 2]))
    if ns % 2:
        mid = ns // 2
        assert patch.geodesic_row == mid and s[mid] == 0.0
        assert np.all(pts[mid, :, 2] == 0.0)
        assert np.all(ph[mid, :, :2].imag == 0.0) and np.all(ph[mid, :, 2].real == 0.0)
    threaded = surface_patch(curve, curve.domain, (-cap, cap), 48, ns, workers=3)
    assert _bits_equal(threaded.points, pts) and _bits_equal(threaded.phi, ph)


@pytest.mark.parametrize("curve", [epi(2, 0.5), make_parabola()], ids=lambda c: c.label)
def test_symmetric_patch_does_not_depend_on_its_blocks(curve, monkeypatch):
    # one block for the whole patch against one column per block, bit for bit
    cap = find_strip(curve).cap
    whole = surface_patch(curve, curve.domain, (-cap, cap), 48, 33)
    monkeypatch.setattr(schwarz, "BLOCK_POINTS", 1)
    split = surface_patch(curve, curve.domain, (-cap, cap), 48, 33)
    assert _bits_equal(split.points, whole.points) and _bits_equal(split.phi, whole.phi)


def test_block_bound_counts_the_distinct_levels(monkeypatch):
    # a symmetric 256 x 129 patch is evaluated at 65 |s| levels: 16640 points,
    # one block under BLOCK_POINTS, though its 33024 rows x columns are two
    calls = [0]
    column_integrals = schwarz._column_integrals

    def counting(*args):
        calls[0] += 1
        return column_integrals(*args)

    monkeypatch.setattr(schwarz, "_column_integrals", counting)
    curve = epi(2, 0.5)
    cap = find_strip(curve).cap
    surface_patch(curve, curve.domain, (-cap, cap), 256, 129)
    assert 65 * 256 <= schwarz.BLOCK_POINTS < 129 * 256
    assert calls[0] == 1


def test_patch_workers_deterministic():
    curve = epi(2, 0.5)
    cap = find_strip(curve).cap
    p1 = surface_patch(curve, (0.0, 3.0), (-cap, cap), 17, 7, workers=1)
    p2 = surface_patch(curve, (0.0, 3.0), (-cap, cap), 17, 7, workers=3)
    assert np.array_equal(p1.points, p2.points)


def test_normal_reproduction_against_planar_normal(test_curve):
    # discrete patch normal at (t, 0) from h = 1e-3 stencils vs planar_normal
    h = 1e-3
    t0, t1 = test_curve.domain
    ts = np.linspace(t0 + 2 * h, t1 - 2 * h, 9)
    worst = 0.0
    for t in ts:
        f_t = (surface_point(test_curve, t + h, 0.0)
               - surface_point(test_curve, t - h, 0.0)) / (2 * h)
        f_s = (surface_point(test_curve, t, +h) - surface_point(test_curve, t, -h)) / (2 * h)
        nu = np.cross(f_t, f_s)
        nu /= np.linalg.norm(nu)
        worst = max(worst, float(np.max(np.abs(nu - planar_normal(test_curve, t)))))
    assert worst < 1e-4


def test_conformality_residuals_machine_level(test_curve):
    cap = find_strip(test_curve).cap
    s_max = 0.7 * cap if math.isfinite(cap) else 0.7
    patch = surface_patch(test_curve, test_curve.domain, (-s_max, s_max), 24, 5)
    r_eg, r_f = patch.conformality_residuals()
    assert r_eg < 1e-6 and r_f < 1e-6


def _f3_closed_form(k, lam, t, s, panels=16, order=40):
    # -int_0^s Re W(t + i sigma) d sigma with W = (k+2) sqrt(1 + a^2 - 2a cos((k+1)z)):
    # the principal root is the strip branch, composite Gauss-Legendre in sigma
    a = lam * (k + 1)
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    total = np.zeros(np.broadcast(t, s).shape)
    for lo, hi in zip(edges[:-1], edges[1:]):
        z = t[..., None] + 1j * s[..., None] * (lo + 0.5 * (hi - lo) * (x + 1.0))
        W = (k + 2) * np.sqrt(1.0 + a * a - 2.0 * a * np.cos((k + 1) * z))
        total += 0.5 * (hi - lo) * np.sum(w * W.real, axis=-1)
    return -s * total


@pytest.mark.parametrize("k,lam", [(1, 30.0), (2, 0.5), (6, 0.9)]
                         + [(k, 10.0 ** d / (k + 1)) for k in (1, 2, 4) for d in range(1, 7)])
def test_f3_matches_closed_form_up_to_strip_cap(k, lam):
    # up to a = 1e6, where x'^2 + y'^2 would lose every digit near the cap (k = 1)
    # and P Q loses none; the step test accepts at the integrand's rounding floor
    curve = epi(k, lam)
    cap = find_strip(curve).cap
    patch = surface_patch(curve, curve.domain, (-cap, cap), 256, 33)
    T, S = np.meshgrid(patch.t_vals, patch.s_vals)
    expect = _f3_closed_form(k, lam, T, S)
    err = np.abs(patch.points[..., 2] - expect) / np.maximum(1.0, np.abs(expect))
    assert float(np.max(err)) < 1e-10


ASYMMETRIC_RANGES = {"(0.1,0.5)": lambda cap: (0.1, 0.5), "(0,cap)": lambda cap: (0.0, cap),
                     "(-0.2cap,cap)": lambda cap: (-0.2 * cap, cap)}


@pytest.mark.parametrize("k,lam,name", [(1, 30.0, "(0.1,0.5)"), (1, 30.0, "(0,cap)"),
                                        (1, 30.0, "(-0.2cap,cap)"), (2, 0.5, "(0,cap)"),
                                        (2, 0.5, "(-0.2cap,cap)"), (2, 0.35, "(0,cap)"),
                                        (2, 0.35, "(-0.2cap,cap)")])
def test_asymmetric_patch_matches_closed_forms(k, lam, name):
    # an s-range that is not symmetric runs the same |s| columns and reflection
    curve = epi(k, lam)
    s_range = ASYMMETRIC_RANGES[name](find_strip(curve).cap)
    patch = surface_patch(curve, curve.domain, s_range, 128, 33)
    assert (patch.s_vals[0], patch.s_vals[-1]) == s_range
    T, S = np.meshgrid(patch.t_vals, patch.s_vals)
    expect = _f3_closed_form(k, lam, T, S)
    err = np.abs(patch.points[..., 2] - expect) / np.maximum(1.0, np.abs(expect))
    assert float(np.max(err)) < 1e-12
    x, y = curve.eval(T + 1j * S)
    planar = np.stack([x.real, y.real], axis=-1)
    scale = max(1.0, float(np.max(np.abs(planar))))
    assert np.max(np.abs(patch.points[..., :2] - planar)) < 4e-15 * scale
    direct = phi(curve, patch.t_vals[None, :], patch.s_vals[:, None])
    assert np.max(np.abs(patch.phi - direct)) < 4e-15 * np.max(np.abs(direct))


def test_patch_work_counters(monkeypatch):
    # series points per 256x33 patch (767446 before the Bjorling-formula
    # construction, 280064 with the G7/K15 level march, 52992 with both halves
    # of s evaluated, 35456 with x' and y' as two series, 22336 with them from
    # one ``velocity`` point, 17472 with Phi evaluated only when read), counted at
    # both entry points of the series and at ``velocity``: a grid costs ns*nt points
    # like its pointwise evaluation.  No point goes through the series one by one:
    # regularity comes from the zero set
    points = {"call": 0, "grid": 0, "velocity": 0, "phi": 0}
    series_call, series_grid, velocity, grid_phi = TrigPolySeries.__call__, \
        TrigPolySeries.grid, schwarz.velocity, schwarz.phi

    def counting_call(self, z):
        points["call"] += int(np.size(z))
        return series_call(self, z)

    def counting_grid(self, t, s):
        points["grid"] += int(np.size(t) * np.size(s))
        return series_grid(self, t, s)

    def counting_velocity(curve, t, s):
        points["velocity"] += int(np.broadcast(t, s).size)
        return velocity(curve, t, s)

    def counting_phi(curve, t, s):
        points["phi"] += int(np.broadcast(t, s).size)
        return grid_phi(curve, t, s)

    monkeypatch.setattr(TrigPolySeries, "__call__", counting_call)
    monkeypatch.setattr(TrigPolySeries, "grid", counting_grid)
    monkeypatch.setattr(schwarz, "velocity", counting_velocity)
    monkeypatch.setattr(schwarz, "phi", counting_phi)
    curve = epi(2, 0.5)
    cap = find_strip(curve).cap
    patch = surface_patch(curve, curve.domain, (-cap, cap), 256, 33)
    # the points take ``velocity`` only at the Chebyshev nodes of the column
    # integrals, and the series on two grids of 17 |s| levels
    assert points["velocity"] > 0 and points["phi"] == 0
    assert points["grid"] == 2 * 17 * 256
    assert points["call"] + points["grid"] + points["velocity"] <= 35456
    assert points["call"] == 0
    # the first read of Phi evaluates it at the 17 levels, the second is cached
    nodes = points["velocity"]
    first = patch.phi
    assert points["velocity"] - nodes == points["phi"] == 17 * 256
    assert patch.phi is first and points["velocity"] - nodes == 17 * 256


def test_column_near_a_zero_matches_patch_and_fails_typed():
    curve = epi(2, 0.5)
    cap = find_strip(curve).cap
    # one column from the axis to the cap under the zero at s = ln(1.5)/3
    pt = surface_point(curve, 0.0, cap)
    patch = surface_patch(curve, (0.0, 1.0), (0.0, cap), 2, 65)
    assert np.max(np.abs(pt - patch.points[-1, 0])) < 1e-12
    # a column through the zero is refused by the zero set
    with pytest.raises(SingularityOnPath):
        surface_point(curve, 0.0, 0.2)


def test_strip_branch_certificate_is_exact():
    # the zero of epi(2,0.5) above t = 0 sits at ln(1.5)/3 ~ 0.135, below 0.2
    curve = epi(2, 0.5)
    with pytest.raises(SingularityOnPath):
        phi(curve, 0.0, 0.2)
    with pytest.raises(SingularityOnPath):
        phi(curve, np.array([[0.5, -0.005]]), np.array([[0.01, -0.2]]))
    # beside the zero by more than PATH_CLEARANCE the vertical path is clear
    assert np.isfinite(phi(curve, 0.011, 0.2)).all()
    # epi(2, a=1.05): the zero is only 0.0016 above the cap, inside
    # PATH_CLEARANCE 0.01 by plain distance, yet no column passes it
    curve = epi(2, 0.35)
    strip = find_strip(curve)
    assert 0.0016 < strip.distance - strip.cap < 0.0017
    patch = surface_patch(curve, curve.domain, (-strip.cap, strip.cap), 64, 17)
    # Phi needs no quadrature: these bytes pin the separable grid evaluation
    # and the reflection that fills the rows with s < 0
    assert (hashlib.sha256(patch.phi.tobytes()).hexdigest()
            == "731a7f278d30fd9f7dd15607ad002b3a6931e6c93b635351e0c3e3d21ca1ab56")
    T, S = np.meshgrid(patch.t_vals, patch.s_vals)
    assert np.max(np.abs(patch.points[..., 2] - _f3_closed_form(2, 0.35, T, S))) < 1e-12


def test_column_quadrature_fails_typed_past_the_largest_grid():
    # a column ending 1e-8 below a zero passes no zero, but W has a branch
    # point just beyond it that no Chebyshev grid up to the largest resolves
    with pytest.raises(QuadratureFailure, match="%d points" % (CC_MAX_N + 1)):
        surface_point(epi(2, 0.5), 0.0, math.log(1.5) / 3.0 - 1e-8)
