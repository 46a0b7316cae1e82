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
    surface_patch,
    surface_point,
)
from bjorling.verify import conformality_residuals, null_residual

from conftest import epi
from oracles import (
    chebyshev_increments_by_terms,
    cycloid_f3,
    epitrochoid_f3,
    parabola_f3,
    planar_normal,
    point3d,
)


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
    assert null_residual(patch) < 1e-15
    patch.level_phi[..., 2] *= 1.0 + 1e-9
    assert 0.9e-9 < null_residual(patch) < 1.1e-9


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
    expect = point3d(curve, patch.t_vals)
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
    assert np.max(np.abs(patch.points[row] - point3d(curve, patch.t_vals))) < 1e-9


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


# the bench's dense_patch surface: epi(2, 0.4634) at 1024 x 129 on |s| <= 0.8 ln(3 lam)/3,
# 65 levels x 1024 columns in blocks of 342, 341 and 341; sha256 of its points
NARROW_STRIP_LAM = 0.4634
NARROW_STRIP_SHA = "f1440f81b8415e5787a7e9bb2de98d7e327599f85151df064ddc2ab5e4f1ce9c"


def _narrow_strip_patch():
    curve = epi(2, NARROW_STRIP_LAM)
    halfwidth = 0.8 * math.log(3.0 * NARROW_STRIP_LAM) / 3.0
    return surface_patch(curve, curve.domain, (-halfwidth, halfwidth), 1024, 129)


def test_narrow_strip_patch_does_not_depend_on_its_blocks(monkeypatch):
    widths = []
    column_integrals = schwarz._column_integrals

    def recording(curve, t, levels, tol):
        widths.append(len(t))
        return column_integrals(curve, t, levels, tol)

    monkeypatch.setattr(schwarz, "_column_integrals", recording)
    whole = _narrow_strip_patch()
    assert widths == [342, 341, 341]
    assert hashlib.sha256(whole.points.tobytes()).hexdigest() == NARROW_STRIP_SHA
    monkeypatch.setattr(schwarz, "BLOCK_POINTS", 1)
    split = _narrow_strip_patch()
    assert len(widths) == 3 + 1024
    assert _bits_equal(split.points, whole.points)


@pytest.mark.parametrize("m", [1, 2, 7, 341, 342, 1024])
@pytest.mark.parametrize("L", [1, 2, 17, 33, 65, 129])
def test_chebyshev_increments_equal_the_term_loop_bitwise(L, m):
    """The einsum contraction against the term-by-term loop, bit for bit, for geometrically
    decaying random coefficients at every J the column quadrature uses.  x starts at x0 = -1
    (the s = 0 level) when L > 1, and the bytes are compared, so +0.0 and -0.0 differ.  The one
    exception is a lone output, (L, m) = (1, 1): einsum sums it by a reduction kernel, in
    another order, so it is held within 4 ulp of sum_j |c_j| |T_j(x) - T_j(x0)| at x = 1,
    the only x of ``surface_point`` (its one level is the top of [0, |s|]).  At x = 0.3 one
    draw differed by 5.5 such ulp at J = 1026, inside the loop's own (J - 1) eps bound."""
    rng = np.random.default_rng(1000 * L + m)
    x = np.linspace(-1.0, 1.0, L) if L > 1 else np.array([1.0 if m == 1 else 0.3])
    for J in (34, 66, 130, 258, 514, CC_MAX_N + 2):
        coef = rng.standard_normal((J, m)) * 0.9 ** np.arange(J)[:, None]
        got = schwarz._chebyshev_increments(coef, x, -1.0)
        expect = chebyshev_increments_by_terms(coef, x, -1.0)
        if (L, m) != (1, 1):
            assert _bits_equal(got, expect), J
            continue
        # |T_j(1) - T_j(-1)| = 1 - (-1)^j
        scale = np.sum(np.abs(coef[:, 0]) * (1.0 - (-1.0) ** np.arange(J)))
        assert abs(got[0, 0] - expect[0, 0]) <= 4.0 * np.spacing(scale)


def test_chebyshev_increments_of_real_patches_equal_the_term_loop(monkeypatch):
    # the narrow strip's three blocks at J = 34, and full-cap patches whose columns
    # double n to J = 66 and 130 (and leave none at J = 34 for epi(2, 30): m = 0)
    calls = []
    increments = schwarz._chebyshev_increments

    def recording(coef, x, x0):
        out = increments(coef, x, x0)
        expect = chebyshev_increments_by_terms(coef, x, x0)
        calls.append((coef.shape, _bits_equal(out, expect)))
        return out

    monkeypatch.setattr(schwarz, "_chebyshev_increments", recording)
    _narrow_strip_patch()
    for curve in (epi(2, 0.35), epi(2, 30.0)):
        cap = find_strip(curve).cap
        surface_patch(curve, curve.domain, (-cap, cap), 256, 33)
    assert all(equal for _, equal in calls)
    shapes = [shape for shape, _ in calls]
    assert {J for J, _ in shapes} == {34, 66, 130} and (34, 0) in shapes


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
    r_eg, r_f = conformality_residuals(patch)
    assert r_eg < 1e-6 and r_f < 1e-6


@pytest.mark.parametrize("k,lam", [(1, 30.0), (2, 0.5), (6, 0.9)]
                         + [(k, 10.0 ** d / (k + 1)) for k in (1, 2, 4) for d in range(1, 7)])
def test_f3_matches_closed_form_up_to_strip_cap(k, lam):
    # up to a = 1e6, where x'^2 + y'^2 would lose every digit near the cap (k = 1)
    # and P Q loses none; the step test accepts at the integrand's rounding floor
    curve = epi(k, lam)
    cap = find_strip(curve).cap
    patch = surface_patch(curve, curve.domain, (-cap, cap), 256, 33)
    T, S = np.meshgrid(patch.t_vals, patch.s_vals)
    expect = epitrochoid_f3(k, lam, T, S)
    f3, scale = patch.points[..., 2], np.maximum(1.0, np.abs(expect))
    assert float(np.max(np.abs(f3 - expect) / scale)) < 1e-10
    # f3 x (1 + 1e-9) on the largest column fails the oracle
    f3[:, np.argmax(np.max(np.abs(expect), axis=0))] *= 1.0 + 1e-9
    assert float(np.max(np.abs(f3 - expect) / scale)) >= 1e-10


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
    expect = epitrochoid_f3(k, lam, T, S)
    err = np.abs(patch.points[..., 2] - expect) / np.maximum(1.0, np.abs(expect))
    assert float(np.max(err)) < 1e-12
    x, y = curve.eval(T + 1j * S)
    planar = np.stack([x.real, y.real], axis=-1)
    scale = max(1.0, float(np.max(np.abs(planar))))
    assert np.max(np.abs(patch.points[..., :2] - planar)) < 4e-15 * scale
    direct = phi(curve, patch.t_vals[None, :], patch.s_vals[:, None])
    assert np.max(np.abs(patch.phi - direct)) < 4e-15 * np.max(np.abs(direct))


@pytest.mark.parametrize("k", [1, 2, 3, 6, 12, 40])
@pytest.mark.parametrize("a", [0.5, 3.0])
def test_epitrochoid_oracle_at_every_lobe_waist(k, a):
    # nt = 4(k+1) + 1 over [0, 2 pi] puts a column on every lobe waist t = 2 pi j/(k+1),
    # where Re phi sits on R_F's cut unless t is folded first, and on every crest between
    curve = epi(k, a / (k + 1))
    cap = find_strip(curve).cap
    patch = surface_patch(curve, curve.domain, (-cap, cap), 4 * (k + 1) + 1, 17)
    T, S = np.meshgrid(patch.t_vals, patch.s_vals)
    expect = epitrochoid_f3(k, a / (k + 1), T, S)
    err = np.abs(patch.points[..., 2] - expect) / np.maximum(1.0, np.abs(expect))
    assert float(np.max(err)) < 1e-12


F3_ORACLES = {"cycloid": cycloid_f3, "parabola": parabola_f3}


@pytest.mark.parametrize("curve", [make_cycloid(d) for d in (0.1, 0.5, 0.009, 1e-3, 1e-6)]
                         + [make_parabola(h) for h in (0.3, 2.0, 50.0, 1e4)],
                         ids=lambda c: c.label)
@pytest.mark.parametrize("lo", [-1.0, -0.2, 0.1])
def test_np_roots_curves_match_closed_form_f3(curve, lo):
    # the curves whose zeros come from np.roots, over (lo cap, cap): the cycloid against
    # Catalan's surface, down to a real zero 1e-6 before the window, and the parabola
    # against -Im F(t + is) with F' = sqrt(1 + 4z^2)
    exact = F3_ORACLES[curve.label.split("(")[0]]
    cap = find_strip(curve).cap
    patch = surface_patch(curve, curve.domain, (lo * cap, cap), 256, 33)
    T, S = np.meshgrid(patch.t_vals, patch.s_vals)
    expect = exact(T, S)
    bound = 1e-13 * np.max(np.abs(expect))
    f3 = patch.points[..., 2]
    assert np.max(np.abs(f3 - expect)) < bound
    # f3 x (1 + 1e-9) on the largest column fails the oracle
    f3[:, np.argmax(np.max(np.abs(expect), axis=0))] *= 1.0 + 1e-9
    assert np.max(np.abs(f3 - expect)) >= bound


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
    assert np.max(np.abs(patch.points[..., 2] - epitrochoid_f3(2, 0.35, T, S))) < 1e-12


def test_column_quadrature_fails_typed_past_the_largest_grid():
    # a column ending 1e-8 below a zero passes no zero, but W has a branch
    # point just beyond it that no Chebyshev grid up to the largest resolves
    with pytest.raises(QuadratureFailure, match="%d points" % (CC_MAX_N + 1)):
        surface_point(epi(2, 0.5), 0.0, math.log(1.5) / 3.0 - 1e-8)
