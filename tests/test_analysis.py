import cmath
import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest

from bjorling.analysis import (
    NonConvergent,
    VModel,
    _batches,
    _loop_orders,
    degeneracy_points,
    expected_orders,
    intrinsic_distance,
    obstruction_report,
    order_estimate,
    order_table,
    v_model,
)
from bjorling.cli import main
from bjorling.curves import EpitrochoidParams, InvalidCurveParameters

from conftest import continue_sqrt, metric_length_by_quadrature
from oracles import (
    divisor_degree_check,
    eta_coeff,
    model_density,
    model_g,
    pullback_residual,
    w_on_geodesic,
    w_squared,
    w_squared_prime,
)

GOLDENS = pathlib.Path(__file__).parent / "goldens"

WITNESS_PARAMS = [(2, 0.5), (2, 2.0), (3, 0.6), (4, 0.4)]

DIVISOR_SWEEP = [
    (2, 0.5), (3, 0.6),
    # a near 1
    (2, 0.32), (3, 0.26), (12, 0.95 / 13),
    # a >> 1
    (1, 30.0), (2, 100.0),
    # large k, up to the largest that v_model accepts at a = 0.61
    (8, 0.1), (20, 0.8 / 21), (44, 0.61 / 45), (48, 0.61 / 49), (50, 0.61 / 51),
    (60, 0.01), (148, 0.61 / 149),
    # a^(1/(k+1)) or a^(-1/(k+1)) below 1e-12
    (2, 1e-40), (2, 1e-100), (3, 1e-60), (2, 1e40),
    # a zero of (w^2)' within a tenth of the spacing of a branch point
    (6, 1.1e-4), (6, 1e-6), (6, 200.0),
] + [
    # every k up to 12 at a = 1.3 * 10^d: at the extremes of a the zeros of (w^2)'
    # come nearest the branch points, by a ratio that depends on k
    (k, 1.3 * 10.0**d / (k + 1)) for k in range(1, 13) for d in range(-45, 46, 15)
]


def test_v_model_even():
    m = v_model(2, 0.5)
    assert m.genus == 3 and m.e == 1 and m.p_exponent == 2
    # w^2 = v (1 - 1.5 v^3)(1.5 - v^3)
    v = 0.7 + 0.2j
    expect = v * (1 - 1.5 * v**3) * (1.5 - v**3)
    assert abs(w_squared(m, v) - expect) < 1e-14
    assert m.punctures() == ("(0,0)", "(inf,inf)")


def test_v_model_odd():
    m = v_model(3, 0.6)
    assert m.genus == 3 and m.e == 0 and m.p_exponent == 3
    v = 0.9 - 0.1j
    expect = (1 - 2.4 * v**4) * (2.4 - v**4)
    assert abs(w_squared(m, v) - expect) < 1e-14
    assert m.punctures() == ("(0,+sqrt(a))", "(0,-sqrt(a))", "(inf,inf)")


def test_v_model_k1():
    m = v_model(1, 0.6)
    assert m.genus == 1
    v = 0.5
    assert abs(w_squared(m, v) - (1 - 1.2 * v**2) * (1.2 - v**2)) < 1e-15


def test_v_model_rejects_a_equal_one():
    with pytest.raises(InvalidCurveParameters):
        v_model(2, 1.0 / 3.0)


def test_w_squared_prime_matches_finite_difference(rng):
    for k, lam in WITNESS_PARAMS + [(1, 0.6)]:
        m = v_model(k, lam)
        h = 1e-6
        for v in rng.uniform(0.3, 1.4, 8) + 1j * rng.uniform(-0.5, 0.5, 8):
            fd = (w_squared(m, v + h) - w_squared(m, v - h)) / (2 * h)
            assert abs(fd - w_squared_prime(m, v)) < 1e-6 * max(1.0, abs(fd))


@pytest.mark.parametrize("k,lam", [(2, 0.5), (3, 0.6), (1, 30.0), (148, 0.61 / 149)])
def test_loop_squares_match_the_model_functions(k, lam, rng):
    # loop_squares takes g^2 and eta^2 from one shared power v^{k+1}; the oracles'
    # w^2, (w^2)' and eta_coeff, each with its own powers, must give the same squares
    model = v_model(k, lam)
    radius = model.a ** (1.0 / (k + 1))
    v = radius * np.exp(2j * math.pi * rng.random((2, 32))) * (
        1.0 + 0.05 * rng.standard_normal((2, 32)))
    vk = v ** (k + 1)
    g2 = w_squared(model, v) * (v ** model.p_exponent / (vk - model.a)) ** 2
    eta2 = eta_coeff(model, v) ** 2
    expect = {
        (False, False): eta2,
        (False, True): eta2 * 4.0 * w_squared(model, v) / w_squared_prime(model, v) ** 2,
        (True, False): eta2 * v**4,
        (True, True): eta2 * v**4 * 4.0 / v,
    }
    for (at_infinity, ramified), want_eta2 in expect.items():
        got = model.loop_squares(v, at_infinity, ramified)
        assert got.shape == (2,) + v.shape
        for name, row, want in (("g", got[0], g2), ("eta", got[1], want_eta2)):
            assert np.max(np.abs(row - want) / np.abs(want)) < 1e-11, (
                name, at_infinity, ramified)


@pytest.mark.parametrize("k,lam", WITNESS_PARAMS)
def test_degeneracy_points(k, lam):
    m = v_model(k, lam)
    pts = degeneracy_points(m)
    assert len(pts) == 2 * (k + 1)
    a = m.a
    for v in pts:
        vk = v ** (k + 1)
        assert min(abs(vk - a), abs(vk - 1.0 / a)) < 1e-12
    radii = sorted({round(abs(v), 9) for v in pts})
    assert abs(radii[0] * radii[1] - 1.0) < 1e-9


def test_degeneracy_radii_examples():
    pts = degeneracy_points(v_model(2, 0.5))
    radii = sorted({round(abs(v), 6) for v in pts})
    assert radii == [round(1.5 ** (-1 / 3), 6), round(1.5 ** (1 / 3), 6)]
    assert abs(max(abs(v) for v in pts) - 1.144714) < 1e-6
    pts = degeneracy_points(v_model(3, 0.6))
    assert len(pts) == 8
    assert abs(max(abs(v) for v in pts) - 1.244666) < 1e-6


def test_strip_halfwidth():
    # the strip hits degeneration at |Im z| = ln(max(a, 1/a))/(k+1)
    h2, h3 = (EpitrochoidParams(k=k, lam=lam).zero_height for k, lam in ((2, 0.5), (3, 0.6)))
    assert abs(h2 - math.log(1.5) / 3.0) < 1e-15
    assert abs(h2 - 0.135155) < 1e-6
    assert abs(h3 - math.log(2.4) / 4.0) < 1e-15
    assert abs(h3 - 0.218867) < 1e-6
    with pytest.raises(InvalidCurveParameters):
        EpitrochoidParams(k=2, lam=1.0 / 3.0).zero_height


def test_order_estimate_known_orders():
    # squares of principal-sqrt callables: squaring removes the branch choice
    m = v_model(2, 0.5)

    def g_of_v(v):
        return model_g(m, v, cmath.sqrt(w_squared(m, v)))

    def eta_local(v):
        w = cmath.sqrt(w_squared(m, v))
        return eta_coeff(m, v) * 2.0 * w / w_squared_prime(m, v)

    def squared(fn):
        return np.vectorize(lambda v: fn(v) ** 2, otypes=[complex])

    v0 = 1.5 ** (1 / 3)
    assert order_estimate(squared(g_of_v), [v0], True, [0.02], 160).tolist() == [-1]
    assert order_estimate(squared(g_of_v), [0j], True, [0.05], 160).tolist() == [5]
    assert order_estimate(squared(eta_local), [0j], True, [0.05], 160).tolist() == [-9]


def test_order_estimate_raises_when_square_vanishes_on_loop():
    # v - 0.05 is zero at the loop's first sample v = r0
    with pytest.raises(NonConvergent):
        order_estimate(lambda v: v - 0.05, [0j], False, [0.05], 64)


def test_order_estimate_raises_on_odd_unramified_winding():
    # a square winds an even number of times around an unramified point
    with pytest.raises(NonConvergent):
        order_estimate(lambda v: v**3, [0j], False, [0.05], 64)
    assert order_estimate(lambda v: v**3, [0j], True, [0.05], 64).tolist() == [3]


def test_order_estimate_raises_on_one_odd_row_of_a_batch():
    def squares(v):
        return np.stack((v**2, v**3))

    with pytest.raises(NonConvergent, match="odd winding 3"):
        order_estimate(squares, [0j, 1j], False, [0.05, 0.05], 64)
    assert order_estimate(squares, [0j, 1j], True, [0.05, 0.05], 64).tolist() == [[2, 0],
                                                                                 [3, 0]]


def test_order_estimate_doubles_only_the_rows_that_turn_too_far():
    # v^20 turns by 20 * 2pi/n per step, so it needs 256 samples.  The other row is
    # v^3, except at z1, the second sample of the 128-point loop, where 0/(v - z1)
    # makes it nan: on its own it settles at 64 samples and never meets z1
    z1 = np.exp(2j * math.pi / 128)

    def squares(v):
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.stack((v**20, v**3 + 0.0 / (v - z1)))

    assert order_estimate(lambda v: squares(v)[1:], [0j], True, [1.0], 64).tolist() == [[3]]
    assert order_estimate(lambda v: squares(v)[:1], [0j], True, [1.0], 64).tolist() == [[20]]
    assert order_estimate(squares, [0j], True, [1.0], 64).tolist() == [[20], [3]]
    # a second loop, around a point where both rows have no zero, settles at once
    assert order_estimate(squares, [0j, 3.0], True, [1.0, 0.5], 64).tolist() == [[20, 0],
                                                                                [3, 0]]


def test_order_estimate_raises_when_one_loop_of_a_batch_meets_a_zero():
    # v - 1.05 is zero at the second loop's first sample; the first loop alone is fine
    assert order_estimate(lambda v: v - 1.05, [0j], True, [0.05], 64).tolist() == [0]
    with pytest.raises(NonConvergent):
        order_estimate(lambda v: v - 1.05, [0j, 1.0], True, [0.05, 0.05], 64)


@pytest.mark.parametrize("k,lam", DIVISOR_SWEEP)
def test_batched_orders_equal_each_loop_counted_alone(k, lam):
    # every row (g and eta) of each batch that order_table and obstruction_report
    # count, against the same loop counted on its own
    m = v_model(k, lam)
    specials = (0j,) + degeneracy_points(m)
    batches = [([i for _, i in members], ramified)
               for (ramified, _), members in _batches(m).items()]
    batches.append((list(range(1, len(specials))), True))
    for points, ramified in batches:
        batch = _loop_orders(m, specials, points, ramified)
        alone = np.hstack([_loop_orders(m, specials, [i], ramified) for i in points])
        assert batch.shape == (2, len(points))
        assert batch.tolist() == alone.tolist(), (points, ramified)


@pytest.mark.parametrize("k,lam", DIVISOR_SWEEP)
def test_loop_radii_match_the_pairwise_loop(k, lam, monkeypatch):
    # the distance matrix against min over the other special points, one pair at
    # a time: numpy's complex abs may differ from Python's by an ulp
    m = v_model(k, lam)
    specials = (0j,) + degeneracy_points(m)
    seen = []
    monkeypatch.setattr("bjorling.analysis.order_estimate",
                        lambda fn, centers, ramified, r0, samples: seen.append(r0)
                        or np.zeros((2, len(r0)), dtype=int))
    points = list(range(len(specials)))
    _loop_orders(m, specials, points, True)
    expect = [(0.1 if i == 0 else 0.05) * min(abs(specials[i] - p) for j, p in
                                              enumerate(specials) if j != i) for i in points]
    assert np.allclose(seen[0], expect, rtol=1e-15, atol=0.0)


def test_commands_evaluate_the_loop_squares_once_per_batch_and_level(monkeypatch):
    # a work count that no machine moves: the shapes of the loop arrays evaluated
    shapes = []
    loop_squares = VModel.loop_squares

    def counted(self, v, at_infinity, ramified):
        shapes.append(v.shape)
        return loop_squares(self, v, at_infinity, ramified)

    monkeypatch.setattr(VModel, "loop_squares", counted)
    assert main(["analyze", "--k", "2", "--lambda", "0.5"]) == 0
    # all 6 points in one array, and once more per doubling for the loops still turning
    assert shapes[0] == (6, 160)
    assert [n for _, n in shapes] == [160 * 2**j for j in range(len(shapes))]
    for k, want in ((2, [(3, 160), (1, 160)]), (3, [(1, 192), (2, 192), (1, 192)])):
        shapes.clear()
        assert main(["table", "--k", str(k), "--lambda", "0.5"]) == 0
        # one array per batch: the ramified finite points, the unramified origin, infinity
        assert shapes == want


@pytest.mark.parametrize("k,lam", [(2, 0.5), (4, 0.4), (1, 0.6), (3, 0.6)])
def test_order_table_parametric(k, lam):
    table = order_table(v_model(k, lam))
    expected = expected_orders(k)
    assert len(table.rows) == 4
    for row in table.rows:
        want_g, want_eta = expected[row.point]
        assert row.g_order == want_g, row
        if want_eta is not None:
            assert row.eta_order == want_eta, row
        else:
            assert row.flagged


@pytest.mark.parametrize("k,lam", [(2, 0.5), (1, 0.6)])
def test_order_checks_fail_each_moved_order(k, lam):
    # the verdict `table` prints: a row fails when its g order, or an eta order
    # that expected_orders states, moves by one; the odd-k eta order at infinity
    # is informational and decides nothing
    table = order_table(v_model(k, lam))
    expected = expected_orders(k)
    assert [(row, g, eta) for row, g, eta, _ in table.checks()] == [
        (row,) + expected[row.point] for row in table.rows]
    assert table.failures() == 0
    for i, row in enumerate(table.rows):
        for name in ("g_order", "eta_order"):
            moved = dataclasses.replace(row, **{name: getattr(row, name) + 1})
            other = dataclasses.replace(table, rows=table.rows[:i] + (moved,) + table.rows[i + 1:])
            informational = name == "eta_order" and expected[row.point][1] is None
            assert [passed for *_, passed in other.checks()] == [
                j != i or informational for j in range(len(table.rows))]
            assert other.failures() == (0 if informational else 1)


@pytest.mark.parametrize("k,lam", DIVISOR_SWEEP)
def test_order_table_divisor_degrees(k, lam):
    m = v_model(k, lam)
    table = order_table(m)
    deg_g, deg_eta = divisor_degree_check(table, m)
    assert deg_g == 0
    assert deg_eta == 2 * m.genus - 2
    expected = expected_orders(k)
    for row in table.rows:
        want_g, want_eta = expected[row.point]
        assert row.g_order == want_g, row
        assert want_eta is None or row.eta_order == want_eta, row


@pytest.mark.parametrize("golden", ["order_table_k2_lam0p5.json",
                                    "order_table_k3_lam0p6.json"])
def test_order_table_matches_goldens(golden):
    want = json.loads((GOLDENS / golden).read_text())
    table = order_table(v_model(want["k"], want["lambda"]))
    assert table.to_json_dict() == want


@pytest.mark.parametrize("k,lam", WITNESS_PARAMS + [(1, 0.6), (2, 0.2)])
def test_pullback_consistency(k, lam):
    assert pullback_residual(v_model(k, lam)) < 1e-9


@pytest.mark.parametrize("k,lam", [(2, 0.5), (3, 0.6), (1, 0.6), (2, 0.2), (4, 0.4),
                                   (1, 30.0), (5, 3.0)])
def test_w_on_geodesic_matches_continuation(k, lam):
    # the closed form against w continued numerically from the same seed
    m = v_model(k, lam)
    ts = 2.0 * math.pi * np.arange(200) / 200
    want = continue_sqrt(lambda t: w_squared(m, np.exp(1j * t)), 0.0, ts,
                         -1j * abs(1.0 - m.a), 400)
    assert np.max(np.abs(w_on_geodesic(m, ts) - want)) < 1e-14 * (1.0 + m.a)


@pytest.mark.parametrize("k,lam", WITNESS_PARAMS)
def test_g_quotient_forms_agree_on_curve(k, lam, rng):
    # the raw quotient and the pole-resolved form (curve relation substituted)
    # must agree wherever both are finite
    m = v_model(k, lam)
    for _ in range(40):
        v = rng.uniform(0.4, 1.5) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        w = cmath.sqrt(w_squared(m, v))
        d = v ** (k + 1) - m.a
        alt = 1 - m.a * v ** (k + 1)
        if min(abs(d), abs(alt)) < 1e-3 or abs(w) < 1e-3:
            continue
        raw = -w * v**m.p_exponent / d
        if m.e:
            resolved = v ** (m.p_exponent + 1) * alt / w
        else:
            resolved = v**m.p_exponent * alt / w
        assert abs(raw - resolved) < 1e-10 * max(1.0, abs(raw))
        assert abs(model_g(m, v, w) - raw) < 1e-10 * max(1.0, abs(raw))


@pytest.mark.parametrize("k,lam", WITNESS_PARAMS + [(2, 1e40), (2, 1e-100)])
def test_metric_density_vanishes_at_degeneracies(k, lam):
    # at extreme a the pole-resolved form's factors leave float range, not its value
    m = v_model(k, lam)
    for v0 in degeneracy_points(m):
        assert model_density(m, v0, 0.0) < 1e-10


def test_metric_density_positive_on_annulus(rng):
    m = v_model(2, 0.5)
    lo, hi = m.a ** (-1 / 3), m.a ** (1 / 3)
    degens = degeneracy_points(m)
    count = 0
    while count < 200:
        r = rng.uniform(lo + 1e-3, hi - 1e-3)
        th = rng.uniform(0, 2 * math.pi)
        v = r * cmath.exp(1j * th)
        if min(abs(v - d) for d in degens) < 1e-2:
            continue
        w = cmath.sqrt(w_squared(m, v))
        assert model_density(m, v, w) > 0.0
        count += 1


@pytest.mark.parametrize("k,lam", WITNESS_PARAMS)
def test_vanishing_exponent_is_two(k, lam):
    # the report's winding-count exponents against the density's own decay: the
    # slope of log density vs log tau at the surface point w = tau over each point
    m = v_model(k, lam)
    rep = obstruction_report(m)
    taus = 1e-2 * 0.5 ** np.arange(9)
    for v0, expo in zip(rep.points, rep.vanishing_exponents):
        dens = []
        for tau in taus:
            v = v0 + tau * tau / w_squared_prime(m, v0)
            for _ in range(12):
                v -= (w_squared(m, v) - tau * tau) / w_squared_prime(m, v)
            # on the curve to a few ulps of w^2's terms, of size |v0 (w^2)'(v0)|
            assert abs(w_squared(m, v) - tau * tau) < 1e-14 * abs(v0 * w_squared_prime(m, v0))
            dens.append(model_density(m, v, tau))
        slopes = np.diff(np.log(dens)) / np.diff(np.log(taus))
        assert expo == 2
        assert abs(float(np.mean(slopes[-3:])) - expo) < 0.05


def test_intrinsic_distance_finite_and_stable():
    # the closed form against quadrature, including a near 1 and a >> 1
    for k, lam in ((1, 0.3), (2, 0.5), (2, 2.0), (3, 0.6), (4, 0.15), (6, 0.9),
                   (1, 30.0), (5, 3.0)):
        d = intrinsic_distance(v_model(k, lam))
        assert 0.0 < d < math.inf
        assert abs(d - metric_length_by_quadrature(k, lam)) < 1e-6 * max(1.0, d)
    # crude sanity: length >= min speed * strip height
    s0 = EpitrochoidParams(k=2, lam=0.5).zero_height
    assert intrinsic_distance(v_model(2, 0.5)) > 2.0 * s0 * 0.5


@pytest.mark.parametrize("k,lam", WITNESS_PARAMS)
def test_obstruction_report(k, lam):
    rep = obstruction_report(v_model(k, lam))
    assert len(rep.points) == 2 * (k + 1)
    assert max(rep.density_at_points) < 1e-10
    assert rep.vanishing_exponents == (2,) * len(rep.points)
    assert rep.vanishing_order == 2
    assert rep.intrinsic_distance > 0
    payload = rep.to_json_dict()
    assert payload["genus"] == rep.genus
    assert len(payload["points"]) == len(rep.points)


@pytest.mark.parametrize("change,passed", [
    ({}, True),
    ({"vanishing_exponents": (2, 2, 2, 2, 2, 0)}, False),
    ({"vanishing_exponents": (4,) * 6}, False),
    ({"intrinsic_distance": math.inf}, False),
    ({"intrinsic_distance": math.nan}, False),
    ({"intrinsic_distance": 0.0}, False),
    ({"intrinsic_distance": -1.0}, False),
])
def test_witness_passes_only_with_exponents_two_and_a_finite_positive_distance(change, passed):
    report = dataclasses.replace(obstruction_report(v_model(2, 0.5)), **change)
    assert report.passed() is passed


def test_analyze_large_lambda_radii():
    # a = 6: radii 6^(1/3), 6^(-1/3)
    pts = degeneracy_points(v_model(2, 2.0))
    radii = sorted({round(abs(v), 9) for v in pts})
    assert abs(radii[1] - 6 ** (1 / 3)) < 1e-9
    assert abs(radii[0] - 6 ** (-1 / 3)) < 1e-9
