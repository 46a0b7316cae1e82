import cmath
import dataclasses
import math

import numpy as np
import pytest

from bjorling.continuation import (
    SingularityOnPath,
    _zero_set,
    find_strip,
    singularity_scan,
    strip_branch,
    velocity,
)
from bjorling.curves import (
    PHASE_COS,
    PHASE_SIN,
    TWO_PI,
    InvalidCurveParameters,
    PlanarCurve,
    TrigPolySeries,
    make_circle,
    make_cycloid,
    make_parabola,
)
from bjorling.schwarz import StripTooWide, surface_patch

from conftest import continue_sqrt, epi


def _along(curve, vertices, w, h=1e-2):
    # sqrt(speed^2) continued along a polyline, steps of at most h per segment
    f = lambda z: velocity(curve, z.real, z.imag)[2]
    for a, b in zip(vertices, vertices[1:]):
        w = continue_sqrt(f, a, b, w, int(math.ceil(abs(b - a) / h)))
    return complex(w)


def test_speed_squared_values():
    curve = epi(2, 0.5)
    assert abs(velocity(curve, 0.0, 0.0)[2] - 4.0) < 1e-12
    assert abs(velocity(make_circle(), 0.3, 0.2)[2] - 1.0) < 1e-14
    z0 = 1j * math.log(1.5) / 3.0
    assert abs(velocity(curve, z0.real, z0.imag)[2]) < 1e-12


def test_speed_squared_closed_form_off_axis(rng):
    k, lam = 3, 0.6
    curve = epi(k, lam)
    a = lam * (k + 1)
    z = rng.uniform(0, 2 * math.pi, 20) + 1j * rng.uniform(-0.2, 0.2, 20)
    closed = (k + 2) ** 2 * (1 + a * a - 2 * a * np.cos((k + 1) * z))
    assert np.max(np.abs(velocity(curve, z.real, z.imag)[2] - closed)) < 1e-9


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("d", range(1, 7))
def test_speed_squared_closed_form_on_the_cap_line(k, d):
    # a = 10^d: x'^2 + y'^2 would cancel x' and y' of size a e^{(k+2)s} down to
    # speed^2; P Q loses digits only in the factor that vanishes, away from the cap
    a = 10.0 ** d
    curve = epi(k, a / (k + 1))
    z = np.linspace(0.0, 2 * math.pi, 97) + 1j * find_strip(curve).cap
    closed = (k + 2) ** 2 * (1 + a * a - 2 * a * np.cos((k + 1) * z))
    assert np.max(np.abs(velocity(curve, z.real, z.imag)[2] - closed) / np.abs(closed)) < 2e-14


def test_continue_sqrt_constant_for_circle():
    curve = make_circle()
    f = lambda z: velocity(curve, z.real, z.imag)[2]
    # every point of the path 0 -> 1 + 0.5i -> 2, each continued from 0 in one call
    u = np.linspace(0.0, 1.0, 41)
    z = np.concatenate([u * (1.0 + 0.5j), 1.0 + 0.5j + u * (1.0 - 0.5j)])
    w = continue_sqrt(f, 0j, z, 1.0 + 0j, 50)
    assert w.shape == z.shape
    assert np.max(np.abs(w - 1.0)) < 1e-12
    assert abs(_along(curve, (0j, 1.0 + 0.5j, 2.0 + 0j), 1.0 + 0j) - 1.0) < 1e-12


def test_sqrt_real_axis_loop_returns_to_seed():
    curve = epi(2, 0.5)
    t = np.linspace(0.0, 2 * math.pi, 64)
    w = continue_sqrt(lambda z: velocity(curve, z.real, z.imag)[2], 0j, t, 2.0 + 0j, 629)
    assert abs(w[-1] - 2.0) < 1e-10
    # on the axis the continued root stays the positive one
    assert np.all(w.real > 0)


def test_sqrt_winding_around_simple_zero_flips_sign():
    curve = epi(2, 0.5)
    z0 = 1j * math.log(1.5) / 3.0  # simple zero of speed^2 above t = 0
    loop = (0j, 0.1 + 0.05j, 0.1 + 0.25j, -0.1 + 0.25j, -0.1 + 0.05j, 0j)
    w = _along(curve, loop, 2.0 + 0j)
    assert abs(w - (-2.0)) < 1e-9
    assert abs(w ** 2 - velocity(curve, 0.0, 0.0)[2]) < 1e-12
    assert abs(z0.imag - 0.13515503603605478) < 1e-12


@pytest.mark.parametrize("seed_trial", range(5))
def test_sqrt_sign_flip_random_epitrochoids(seed_trial):
    rng = np.random.default_rng(700 + seed_trial)
    k = int(rng.integers(1, 5))
    lam = float(rng.uniform(0.3, 2.0))
    if abs(lam * (k + 1) - 1.0) < 5e-2:
        lam += 0.1
    curve = epi(k, lam)
    a = lam * (k + 1)
    s0 = abs(math.log(a)) / (k + 1)
    z0 = 1j * s0
    r = 0.45 * s0
    corners = tuple(z0 + r * np.exp(1j * th) for th in
                    (-2.356, -0.785, 0.785, 2.356))  # square around the zero
    c = corners[0]
    seed = complex(strip_branch(curve, c.real, c.imag, velocity(curve, c.real, c.imag)[2]))
    w = _along(curve, corners + (corners[0],), seed, h=min(1e-2, r / 4))
    assert abs(w + seed) < 1e-8 * max(1.0, abs(seed))


def test_homotopic_paths_agree():
    curve = epi(2, 0.5)
    target = 1.0 + 0.1j
    w1 = _along(curve, (0j, target), 2.0 + 0j)
    w2 = _along(curve, (0j, 1.0 + 0j, target), 2.0 + 0j)
    assert abs(w1 - w2) < 1e-10


def test_oracle_refuses_a_coarse_step():
    # sqrt(z^2) = z turns by 2.2 rad along this chord, and by pi - 2 atan(0.1)
    # along the second, which judged from its ends alone looks like a small turn
    # onto -z: one step cannot tell the sheets apart, so the oracle fails
    square = lambda z: z * z
    for a, b in ((np.exp(0.1j), np.exp(2.3j)), (-1 + 0.1j, 1 + 0.1j)):
        with pytest.raises(pytest.fail.Exception, match="pi/4"):
            continue_sqrt(square, a, b, a, 1)
        assert abs(continue_sqrt(square, a, b, a, 32) - b) < 1e-15
    # a root that vanishes on the segment fails as well
    with pytest.raises(pytest.fail.Exception, match="pi/4"):
        continue_sqrt(lambda z: z, 1.0, -1.0, 1.0 + 0j, 4)


def _zero_clear_columns(curve, n):
    # the midpoints of n - 1 equal cells of the domain more than twice
    # PATH_CLEARANCE from every zero (mod the period), and 2.5 times the distance
    # to the nearest zero (0.9 without zeros)
    strip = find_strip(curve)
    t = np.linspace(*curve.domain, n)
    t = (t[:-1] + 0.5 * (t[1] - t[0]))
    period = 2 * math.pi if curve.x.trig else math.inf
    t = t[[all(abs(_wrap_offset(u - z.real, period)) > 0.02 for z in strip.zeros) for u in t]]
    return t, 2.5 * strip.distance if strip.zeros else 0.9


def _principal_root_branch(curve, t, s, speed2):
    # the sign rule as a product of principal roots, one per zero and order:
    # np.sqrt(speed^2) negated where it turns away from prod sqrt(q_j)^mu_j, over
    # every zero of one period 2 pi in m = e^{iz}: the zero set tiled by its period
    zeros, period = _zero_set(curve)
    trig = math.isfinite(period)
    if trig:
        zeros = [(zero + j * period, mult) for zero, mult in zeros
                 for j in range(round(2 * math.pi / period))]
    foot = np.exp(1j * t) if trig else t
    top = foot * np.exp(-s) if trig else t + 1j * s
    turn = 1.0
    for zero, mult in zeros:
        r = cmath.exp(1j * zero) if trig else zero
        turn = turn * np.sqrt((top - r) * (1.0 / (foot - r))) ** mult
    w = np.sqrt(speed2)
    return np.where((w * np.conj(turn)).real < 0, -w, w)


def _double_zeros_curve():
    # x' + i y' = ((1 + iz)(2 + iz))^2: speed^2 = ((1 + z^2)(4 + z^2))^2, double
    # zeros at +-i and +-2i
    return PlanarCurve(x=TrigPolySeries(poly=((4.0, 1), (-13.0 / 3.0, 3), (0.2, 5))),
                       y=TrigPolySeries(poly=((6.0, 2), (-1.5, 4))),
                       domain=(-0.5, 0.5), closed=False, label="double zeros")


@pytest.mark.parametrize("curve", [make_circle(), make_cycloid(), make_parabola(), epi(1, 30.0),
                                   epi(12, 0.95 / 13), epi(2, 0.35), _double_zeros_curve()],
                         ids=lambda c: c.label)
def test_strip_branch_closed_form_equals_vertical_continuation(curve):
    # the closed form against 400 matched steps up every column, bit for bit,
    # up to 2.5 times the distance to the nearest zero: columns that pass
    # beside a zero (by more than twice PATH_CLEARANCE) turn past the
    # principal root's cut
    t, s_max = _zero_clear_columns(curve, 97)
    z = t[None, :] + 1j * np.linspace(-s_max, s_max, 41)[:, None]
    f = lambda p: velocity(curve, p.real, p.imag)[2]
    stepped = continue_sqrt(f, z.real, z, np.sqrt(f(z.real + 0j)), 400)
    assert np.array_equal(strip_branch(curve, z.real, z.imag, f(z)), stepped)


def test_strip_branch_past_double_zeros_is_entire():
    # the root of ((1 + z^2)(4 + z^2))^2 positive on the axis is the polynomial
    # (1 + z^2)(4 + z^2); above the zeros it turns by more than pi, where each
    # zero must count twice
    curve = _double_zeros_curve()
    assert find_strip(curve).multiplicities == (2, 2, 2, 2)
    t = np.linspace(-0.5, 0.5, 41)
    z = t[np.abs(t) > 0.02][None, :] + 1j * np.linspace(-3.0, 3.0, 61)[:, None]
    root = (1 + z * z) * (4 + z * z)
    sp = velocity(curve, z.real, z.imag)[2]
    w = strip_branch(curve, z.real, z.imag, sp)
    assert np.max(np.abs(w - root)) < 1e-12 * np.max(np.abs(root))
    assert np.any(np.abs(np.sqrt(root * root) - w) > 1.0)
    # the axis form: each zero's two factors pass the tracked cut bit
    on_axes = strip_branch(curve, z.real[:1], z.imag[:, :1], sp)
    assert np.array_equal(on_axes, w)


def test_strip_branch_on_the_cut_of_np_sqrt():
    # where (1 + z^2)(4 + z^2) is imaginary, speed^2 lies on the negative axis
    # up to rounding, and the product and speed^2 may round to opposite sides
    # of it: the final cut bit must still give the polynomial root
    curve = _double_zeros_curve()
    s = np.linspace(0.3, 3.0, 400)
    re = lambda t: ((1 + (t + 1j * s) ** 2) * (4 + (t + 1j * s) ** 2)).real
    lo, hi = np.full_like(s, 0.03), np.full_like(s, 0.5)
    keep = np.sign(re(lo)) != np.sign(re(hi))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        left = np.sign(re(mid)) == np.sign(re(lo))
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    t, s = lo[keep], s[keep]
    z = t + 1j * s
    root = (1 + z * z) * (4 + z * z)
    sp = velocity(curve, t, s)[2]
    w = strip_branch(curve, t, s, sp)
    assert t.size > 40 and np.all(sp.real < 0)
    assert np.max(np.abs(w - root) / np.abs(root)) < 1e-12
    assert np.count_nonzero(w != np.sqrt(sp)) > 10
    assert np.array_equal(w, _principal_root_branch(curve, t, s, sp))


@pytest.mark.parametrize("curve", [make_circle(), make_cycloid(), make_parabola(),
                                   _double_zeros_curve(), epi(2, 0.5), epi(3, 0.6), epi(1, 30.0),
                                   epi(6, 0.92 / 7), epi(12, 0.95 / 13), epi(2, 0.35)],
                         ids=lambda c: c.label)
def test_strip_branch_equals_the_product_of_principal_roots(curve):
    # the running product with its cut bit against one principal root per
    # factor, bit for bit, on both entry points; inside the cap no point of
    # these curves changes sign, so the rows out to 2.5 times the distance
    # are the ones that exercise the bit
    t, s_max = _zero_clear_columns(curve, 193)
    s = np.linspace(-s_max, s_max, 65)
    z = t[None, :] + 1j * s[:, None]
    sp = velocity(curve, z.real, z.imag)[2]
    oracle = _principal_root_branch(curve, t[None, :], s[:, None], sp)
    assert np.array_equal(strip_branch(curve, t[None, :], s[:, None], sp), oracle)
    assert np.array_equal(strip_branch(curve, z.real, z.imag, sp), oracle)
    if curve.label == "double zeros":
        assert np.count_nonzero(oracle != np.sqrt(sp)) > 100


def _wrap_offset(d, period):
    return d - period * round(d / period) if math.isfinite(period) else d


def test_scan_circle_empty():
    assert singularity_scan(make_circle(), s_max=10.0) == ()


@pytest.mark.parametrize("k,lam,count,im", [
    (2, 0.5, 6, math.log(1.5) / 3.0),
    (3, 0.6, 8, math.log(2.4) / 4.0),
])
def test_scan_epitrochoid_closed_form(k, lam, count, im):
    zeros = singularity_scan(epi(k, lam), s_max=1.0)
    assert len(zeros) == count
    assert all(abs(abs(z.imag) - im) < 1e-12 for z in zeros)
    # degeneration link: |e^{i z0}| lands on the degeneration radii in v
    a = lam * (k + 1)
    radii = sorted({round(abs(np.exp(1j * z)), 9) for z in zeros})
    expect = sorted({round(a ** (1 / (k + 1)), 9), round(a ** (-1 / (k + 1)), 9)})
    assert radii == expect


def test_scan_generic_parabola():
    zeros = singularity_scan(make_parabola(), s_max=1.0)
    assert len(zeros) == 2
    assert sorted(round(z.imag, 6) for z in zeros) == [-0.5, 0.5]
    assert all(abs(z.real) < 1e-6 for z in zeros)


def test_scan_generic_cycloid_window():
    # double zeros of 2 - 2 cos z at t = 0 and t = 2 pi, outside the open domain
    zeros = singularity_scan(make_cycloid(), s_max=0.5, t_range=(-1.0, 7.0))
    assert len(zeros) == 2
    assert sorted(round(z.real, 4) for z in zeros) == [0.0, round(2 * math.pi, 4)]


def test_nearest_zero_distance():
    circle = find_strip(make_circle())
    assert math.isinf(circle.distance) and math.isinf(circle.cap) and circle.zeros == ()
    strip = find_strip(epi(2, 0.5))
    assert abs(strip.distance - math.log(1.5) / 3.0) < 1e-12
    assert strip.cap == 0.9 * strip.distance
    assert min(abs(z.imag) for z in strip.zeros) == strip.distance
    d = find_strip(make_cycloid()).distance
    assert abs(d - 0.1) < 1e-4
    d = find_strip(make_parabola()).distance
    assert abs(d - 0.5) < 1e-6


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("a", [0.2, 0.9, 1.1, 3.0, 60.0])
def test_generic_zeros_match_epitrochoid_lattice(k, a):
    # the companion-matrix roots against the closed-form lattice 2 pi j/(k+1) +- i s0
    curve = epi(k, a / (k + 1))
    exact = find_strip(curve)
    strip = find_strip(dataclasses.replace(curve, epitrochoid=None))
    assert len(strip.zeros) == len(exact.zeros)
    assert all(min(abs(z - w) for w in exact.zeros) < 1e-12 for z in strip.zeros)
    assert abs(strip.distance - exact.distance) < 1e-12 * exact.distance


def test_generic_strip_finds_zeros_far_off_the_axis():
    # a = 60: the zeros sit at |Im z| = ln(60)/2 = 2.047, above any fixed
    # search height of 2, so a bounded scan reports no zero and no cap
    curve = dataclasses.replace(epi(1, 30.0), epitrochoid=None)
    strip = find_strip(curve)
    assert abs(strip.distance - math.log(60.0) / 2.0) < 1e-12
    with pytest.raises(StripTooWide):
        surface_patch(curve, curve.domain, (-3.0, 3.0), 8, 3)


def test_cycloid_double_zero_reported_once_and_exact():
    # 2 - 2 cos z = (1 - v)(1 - 1/v): v = 1 is a simple root of each factor
    strip = find_strip(make_cycloid())
    assert strip.zeros == (0j, complex(2.0 * math.pi, 0.0))
    assert strip.distance == 2.0 * math.pi - (2.0 * math.pi - 0.1)


def test_double_roots_merged_at_the_cluster_mean():
    # x = t - t^3/3, y = t^2: x' + i y' = (1 + iz)^2, so speed^2 = (1 + z^2)^2
    # has two double zeros +-i, which np.roots alone splits by about 3e-8
    curve = PlanarCurve(x=TrigPolySeries(poly=((1.0, 1), (-1.0 / 3.0, 3))),
                        y=TrigPolySeries(poly=((1.0, 2),)),
                        domain=(-0.5, 0.5), closed=False, label="double")
    strip = find_strip(curve)
    assert len(strip.zeros) == 2
    assert max(abs(z - w) for z, w in zip(strip.zeros, (-1j, 1j))) < 1e-14
    assert strip.multiplicities == (2, 2)
    assert abs(strip.distance - 1.0) < 1e-14
    # simple zeros stay simple; the cycloid's double zero is one root of each factor
    assert set(find_strip(epi(2, 0.5)).multiplicities) == {1}
    assert find_strip(make_cycloid()).multiplicities == (2, 2)


def _cusped_epitrochoid(k):
    # the a = 1 series built by hand (EpitrochoidParams refuses it), so its zeros come
    # from np.roots: speed^2 = 4 (k+2)^2 sin^2((k+1)t/2), double zeros at 2 pi j/(k+1)
    return PlanarCurve(x=TrigPolySeries(trig=((k + 2.0, 1, PHASE_COS), (-1.0, k + 2, PHASE_COS))),
                       y=TrigPolySeries(trig=((k + 2.0, 1, PHASE_SIN), (-1.0, k + 2, PHASE_SIN))),
                       domain=(0.0, TWO_PI), closed=True, label="cusped k=%d" % k)


def _power_curve(m, r, domain):
    # ((t - r)^m, (t - r)^(m+1)) expanded: x' + i y' = (t - r)^(m-1) (m + i (m+1)(t - r))
    def expand(p):
        return tuple((math.comb(p, j) * (-r) ** (p - j), j) for j in range(p + 1))
    return PlanarCurve(x=TrigPolySeries(poly=expand(m)), y=TrigPolySeries(poly=expand(m + 1)),
                       domain=domain, closed=False, label="(t - %r)^%d" % (r, m))


@pytest.mark.parametrize("curve,window,where", [(_cusped_epitrochoid(k), None, "0$")
                                                for k in range(1, 9)] + [
    # the cusp of the cycloid's series at t = 0, inside this window
    (make_cycloid(), (-0.3, 0.2137), "0$"),
    # (t^2, t^3): x' + i y' = z (2 + 3iz), zeros from the companion matrix
    (PlanarCurve(x=TrigPolySeries(poly=((1.0, 2),)), y=TrigPolySeries(poly=((1.0, 3),)),
                 domain=(-1.0, 1.0), closed=False, label="t^2, t^3"), None, "0$"),
    # ((t + 1.5)^3, (t + 1.5)^4) expanded: np.roots splits the double zero of x' + i y'
    # at -1.5, and the merged cluster must still lie on the axis exactly
    (PlanarCurve(x=TrigPolySeries(poly=((3.375, 0), (6.75, 1), (4.5, 2), (1.0, 3))),
                 y=TrigPolySeries(poly=((5.0625, 0), (13.5, 1), (13.5, 2), (6.0, 3), (1.0, 4))),
                 domain=(-2.0, 0.0), closed=False, label="double at -1.5"), None, "-1.49999"),
    # ((t - 0.5)^4, (t - 0.5)^5) expanded: a triple zero of x' + i y' at 0.5, which
    # np.roots splits by about eps^(1/3), far past the double root's cluster radius
    (_power_curve(4, 0.5, (-1.0, 1.0)), None, r"0\.(49999|50000)"),
], ids=lambda v: v.label if isinstance(v, PlanarCurve) else None)
def test_a_zero_on_the_window_is_refused(curve, window, where):
    # a real zero of speed^2 on the window: distance 0, the curve is not regular there
    window = window or curve.domain
    match = "vanishes at t = %s" % where
    with pytest.raises(InvalidCurveParameters, match=match):
        find_strip(curve, window)
    with pytest.raises(InvalidCurveParameters, match=match):
        surface_patch(curve, window, (0.0, 0.1), 8, 3)


def test_a_zero_of_order_three_and_four_is_one_real_zero():
    # np.roots splits an (m-1)-fold zero of x' + i y' by about eps^(1/(m-1)); the
    # cluster must still be one real zero of speed^2, of order 2(m-1), at t = r
    rng = np.random.default_rng(24)
    for m, r in zip(rng.choice([4, 5], 60), rng.uniform(-3.0, 3.0, 60)):
        curve = _power_curve(int(m), float(r), (r - 1.0, r + 1.0))
        zeros, _ = _zero_set(curve)
        assert sorted(mult for _, mult in zeros) == [1, 1, 2 * (m - 1)]
        zero = next(z for z, mult in zeros if mult > 1)
        assert zero.imag == 0.0 and abs(zero.real - r) < 1e-9 * max(1.0, abs(r)), (m, r)
        with pytest.raises(InvalidCurveParameters, match="vanishes at t = "):
            find_strip(curve)


def _lifted_power_curve(m, r, lift, domain):
    # x' = (t - r)^m, y' = lift: x' + i y' has m simple zeros lift^(1/m) from r
    x = tuple((math.comb(m + 1, j) * (-r) ** (m + 1 - j) / (m + 1), j) for j in range(m + 2))
    return PlanarCurve(x=TrigPolySeries(poly=x), y=TrigPolySeries(poly=((lift, 1),)),
                       domain=domain, closed=False, label="(t - %r)^%d + %g i" % (r, m, lift))


@pytest.mark.parametrize("m,lift,mults", [(3, 1e-16, [6]), (3, 1e-13, [1] * 6),
                                          (4, 1e-16, [8]), (4, 1e-13, [1] * 8)])
def test_close_zeros_merge_only_within_rounding(m, lift, mults):
    # every split lies inside the order-m radius; at lift = 1e-13 the value i lift at the
    # group's mean stands far above Horner's rounding there, so the zeros stay apart
    zeros, _ = _zero_set(_lifted_power_curve(m, 0.3, lift, (-1.0, 1.0)))
    assert sorted(mult for _, mult in zeros) == mults


def test_a_ring_of_twelve_simple_zeros_is_not_one_zero():
    # x' + i y' = (t - 5)^12 + 1.7e-5 i: 12 simple zeros on a ring of radius 0.4 about
    # t = 5, inside ROOT_CLUSTER_TOL^(2/12) 5 = 0.5 of their mean, past MAX_ROOT_ORDER
    curve = _lifted_power_curve(12, 5.0, 1.7e-5, (4.0, 6.0))
    zeros, _ = _zero_set(curve)
    assert [mult for _, mult in zeros] == [1] * 24
    assert find_strip(curve).distance > 0.01


@pytest.mark.parametrize("window", [(2.5, 1.5), (float("nan"), 2.5), (1.5, float("nan")),
                                    (1.5, math.inf)])
def test_a_reversed_or_nan_window_is_refused(window):
    # (2.5, 1.5) would read distance 0.4275, past the zero at 2 pi/3 + 0.1352i that
    # (1.5, 2.5) finds, and the patch over it would hold that zero
    curve = epi(2, 0.5)
    assert abs(find_strip(curve, (1.5, 2.5)).distance - math.log(1.5) / 3.0) < 1e-12
    with pytest.raises(ValueError, match="not a finite interval"):
        find_strip(curve, window)
    with pytest.raises(ValueError, match="not a finite interval"):
        surface_patch(curve, window, (0.0, 0.1), 32, 9)


def test_mixed_trig_and_monomial_series_rejected():
    # x' = 1 - sin z + 2z: trig terms next to z^1, no polynomial in one variable
    curve = PlanarCurve(x=TrigPolySeries(trig=((1.0, 1, PHASE_COS),), poly=((1.0, 1), (1.0, 2))),
                        y=TrigPolySeries(poly=((1.0, 1),)),
                        domain=(0.0, 1.0), closed=False, label="mixed")
    with pytest.raises(InvalidCurveParameters, match="mixes"):
        find_strip(curve)


def test_strip_sqrt_positive_on_axis_and_consistent():
    curve = epi(2, 0.5)
    w = complex(strip_branch(curve, 1.2, 0.0, velocity(curve, 1.2, 0.0)[2]))
    assert w.imag == 0 and w.real > 0
    z = 0.7 + 0.09j
    sp = velocity(curve, z.real, z.imag)[2]
    w = complex(strip_branch(curve, z.real, z.imag, sp))
    assert abs(w * w - sp) < 1e-12 * abs(sp)
    # matches path continuation along a different (homotopic) route
    assert abs(w - _along(curve, (0j, 0.7 + 0j, z), 2.0 + 0j)) < 1e-10


def test_strip_sqrt_array_matches_scalar_on_grid():
    # the grid in one call against every point on its own
    curve = epi(3, 0.6)
    s_max = 0.8 * math.log(2.4) / 4.0
    z = np.linspace(0.0, 2 * math.pi, 13)[None, :] + 1j * np.linspace(-s_max, s_max, 5)[:, None]
    sp = velocity(curve, z.real, z.imag)[2]
    w = strip_branch(curve, z.real, z.imag, sp)
    assert w.shape == z.shape
    scalar = np.array([[complex(strip_branch(curve, p.real, p.imag,
                                             velocity(curve, p.real, p.imag)[2]))
                        for p in row] for row in z])
    assert np.max(np.abs(w - scalar)) < 1e-12
    assert np.max(np.abs(w * w - sp) / np.abs(sp)) < 1e-12
    assert np.all(strip_branch(curve, z.real, 0.0, velocity(curve, z.real, 0.0)[2]).real > 0)


@pytest.mark.parametrize("curve", [make_cycloid(), make_parabola(), epi(3, 0.6),
                                   _double_zeros_curve()], ids=lambda c: c.label)
def test_strip_branch_on_axes_equals_the_materialized_grid(curve):
    # one sign rule: the per-axis core and the pointwise call agree bitwise,
    # out to 2.5 times the distance to the nearest zero, where signs flip
    t, s_max = _zero_clear_columns(curve, 41)
    s = np.linspace(-s_max, s_max, 17)
    z = t[None, :] + 1j * s[:, None]
    sp = velocity(curve, z.real, z.imag)[2]
    assert np.array_equal(strip_branch(curve, t[None, :], s[:, None], sp),
                          strip_branch(curve, z.real, z.imag, sp))


def test_strip_branch_on_axes_refuses_the_same_points():
    # the zero of epi(2,0.5) above t = 0 sits at ln(1.5)/3 ~ 0.135, below 0.2
    curve = epi(2, 0.5)
    for t, s in (([0.0], [0.2]), ([0.5, -0.005], [0.01, -0.2])):
        t, s = np.array(t)[None, :], np.array(s)[:, None]
        sp, z = velocity(curve, t, s)[2], t + 1j * s
        with pytest.raises(SingularityOnPath):
            strip_branch(curve, t, s, sp)
        with pytest.raises(SingularityOnPath):
            strip_branch(curve, z.real, z.imag, sp)
    t, s = np.array([[0.011]]), np.array([[0.2]])
    assert np.isfinite(strip_branch(curve, t, s, velocity(curve, t, s)[2])).all()


def test_real_zero_blocks_only_the_column_at_its_foot():
    # the cycloid's cusps t = 2 pi n are real zeros, and a vertical segment meets
    # one only at its foot: columns 1e-9 beside it take Catalan's root 2 sin(z/2)
    curve = make_cycloid(1e-6)
    t = np.array([1e-9, 1e-3, 0.5, 2 * math.pi - 1e-9])
    s = np.array([[0.4], [1e-3], [-0.4]])
    w = strip_branch(curve, t, s, velocity(curve, t, s)[2])
    root = 2.0 * np.sin(0.5 * (t + 1j * s))
    assert np.max(np.abs(w - root) / np.abs(root)) < 1e-14
    for foot in (0.0, 2 * math.pi):
        with pytest.raises(SingularityOnPath, match="passes the speed\\^2 zero at 0j"):
            strip_branch(curve, foot, 0.3, velocity(curve, foot, 0.3)[2])


def _lattice_distance(k, h, t_lo, t_hi):
    # the distance from [t_lo, t_hi] to the closed-form lattice 2 pi j/(k+1) + 2 pi n +- i h,
    # written as one 2 pi period tiled by 2 pi
    best = math.inf
    for j in range(k + 1):
        for n in range(math.floor(t_lo / (2 * math.pi)) - 1, math.ceil(t_hi / (2 * math.pi)) + 2):
            for z in (complex(2 * math.pi * j / (k + 1), h) + n * 2 * math.pi,
                      complex(2 * math.pi * j / (k + 1), -h) + n * 2 * math.pi):
                best = min(best, abs(z.imag) if t_lo <= z.real <= t_hi
                           else min(abs(z - t_lo), abs(z - t_hi)))
    return best


def test_epitrochoid_zeros_reported_once():
    # speed^2 has period 2 pi/(k+1), but n fl(2 pi/(k+1)) can fall short of 2 pi
    # (k = 74: 75 fl(2 pi/75) < 2 pi), so tiling by it would report a zero twice
    assert 75 * (2 * math.pi / 75) < 2 * math.pi
    for k in range(1, 149):
        curve = epi(k, 0.61 / (k + 1))
        assert _zero_set(curve)[1] == 2 * math.pi / (k + 1)
        zeros = singularity_scan(curve, 1.0)
        assert len(zeros) == 2 * (k + 1), k
        assert len(set(zeros)) == len(zeros)
        assert all(0.0 <= z.real < 2 * math.pi for z in zeros)
    zeros = singularity_scan(epi(74, 0.61 / 75), 1.0)
    assert len(zeros) == 150
    assert zeros[-1].real == 2 * math.pi * 74 / 75


@pytest.mark.parametrize("k", range(1, 13))
def test_epitrochoid_strip_distance_is_the_closed_form_lattice(k):
    # bitwise the distance to the closed-form lattice, on the domain and on windows
    # that leave zeros outside at either end
    for a in (0.2, 0.5, 0.9, 1.1, 3.0, 60.0):
        curve = epi(k, a / (k + 1))
        h = curve.epitrochoid.zero_height
        assert find_strip(curve).distance == h
        for window in ((0.3, 1.1), (-1.0, 0.2), (2.0, 9.0), (0.01, 0.02)):
            assert find_strip(curve, window).distance == _lattice_distance(k, h, *window)


@pytest.mark.parametrize("k", range(1, 13))
def test_generic_zero_set_has_the_true_period(k):
    # the companion-matrix path factors x' + i y' = v^low R(v^(k+1)): period
    # 2 pi/(k+1) and a distance at the closed form's rounding floor
    for a in (0.2, 0.5, 0.9, 1.1, 3.0, 60.0):
        fork = epi(k, a / (k + 1))
        curve = dataclasses.replace(fork, epitrochoid=None)
        assert _zero_set(curve)[1] == 2 * math.pi / (k + 1)
        strip = find_strip(curve)
        exact = abs(math.log(a)) / (k + 1)
        assert abs(strip.distance - exact) <= 1e-14 * exact
        # inside the cap both zero sets give bitwise the same branch
        t = np.linspace(*curve.domain, 61)
        s = np.linspace(-strip.cap, strip.cap, 9)
        sp = velocity(curve, t[None, :], s[:, None])[2]
        assert np.array_equal(strip_branch(curve, t[None, :], s[:, None], sp),
                              strip_branch(fork, t[None, :], s[:, None], sp))
