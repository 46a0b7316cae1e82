import math

import numpy as np
import pytest

from bjorling.curves import (
    EpitrochoidParams,
    InvalidCurveParameters,
    PlanarCurve,
    TrigPolySeries,
    curve_from_config,
    make_circle,
    make_cycloid,
    make_parabola,
    PHASE_COS,
    PHASE_SIN,
)

from bjorling.continuation import find_strip

from conftest import epi


def raw_epitrochoid(k, lam, t):
    # independent oracle: the scaled curve evaluated directly
    x = (k + 2) * np.cos(t) - (k + 1) * lam * np.cos((k + 2) * t)
    y = (k + 2) * np.sin(t) - (k + 1) * lam * np.sin((k + 2) * t)
    return x, y


def test_epitrochoid_values_at_0_and_pi():
    curve = epi(2, 0.5)
    x0, y0 = curve.eval(0.0)
    assert abs(x0 - 2.5) < 1e-14 and abs(y0) < 1e-14
    xp, yp = curve.eval(math.pi)
    assert abs(xp - (-5.5)) < 1e-12 and abs(yp) < 1e-12


def test_epitrochoid_rejects_cusped_parameter():
    with pytest.raises(InvalidCurveParameters):
        EpitrochoidParams(k=2, lam=1.0 / 3.0)
    with pytest.raises(InvalidCurveParameters):
        EpitrochoidParams(k=2, lam=-0.5)
    with pytest.raises(InvalidCurveParameters):
        EpitrochoidParams(k=0, lam=0.5)


def test_reference_curves():
    circle = make_circle()
    assert np.allclose(circle.eval(0.0), (1.0, 0.0))
    cycloid = make_cycloid()
    xp, yp = cycloid.eval(math.pi)
    assert abs(xp - math.pi) < 1e-14 and abs(yp - 2.0) < 1e-14
    parabola = make_parabola()
    assert np.allclose(parabola.eval(1.0), (1.0, 1.0))
    with pytest.raises(InvalidCurveParameters):
        make_cycloid(delta=0.0)


def test_complex_evaluation():
    circle = make_circle()
    x, y = circle.eval(1j)
    assert abs(x - math.cosh(1.0)) < 1e-14
    assert abs(y - 1j * math.sinh(1.0)) < 1e-14
    x, y = epi(2, 0.5).eval(0j)
    assert abs(x - 2.5) < 1e-14
    x, y = make_parabola().eval(1 + 1j)
    assert abs(x - (1 + 1j)) < 1e-15 and abs(y - 2j) < 1e-14


def test_real_evaluation_stays_real(test_curve):
    t = np.linspace(*test_curve.domain, 97)
    x, y = test_curve.eval(t + 0j)
    assert np.max(np.abs(x.imag)) < 1e-14
    assert np.max(np.abs(y.imag)) < 1e-14


def test_derivatives_exact_values():
    d = make_circle().derivative()
    t = np.linspace(0, 2 * math.pi, 17)
    assert np.allclose(d.x(t), -np.sin(t), atol=1e-15)
    assert np.allclose(d.y(t), np.cos(t), atol=1e-15)
    d = epi(2, 0.5).derivative()
    assert abs(d.x(0.0)) < 1e-14
    assert abs(d.y(0.0) - (-2.0)) < 1e-14
    d = make_parabola().derivative()
    assert np.allclose((d.x(2.0), d.y(2.0)), (1.0, 4.0))


def test_derivative_matches_finite_difference(test_curve, rng):
    d = test_curve.derivative()
    h = 1e-5
    t0, t1 = test_curve.domain
    pts = (rng.uniform(t0, t1, 20) + 1j * rng.uniform(-0.05, 0.05, 20))
    for series, dseries in ((test_curve.x, d.x), (test_curve.y, d.y)):
        fd = (series(pts + h) - series(pts - h)) / (2 * h)
        exact = dseries(pts)
        scale = np.maximum(1.0, np.abs(exact))
        assert np.max(np.abs(fd - exact) / scale) < 1e-8


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_epitrochoid_dihedral_symmetry(k):
    curve = epi(k)
    delta = 2 * math.pi / (k + 1)
    t = np.linspace(0.0, 2 * math.pi, 50, endpoint=False)
    x0, y0 = curve.eval(t)
    x1, y1 = curve.eval(t + delta)
    rot = (x0 + 1j * y0) * np.exp(1j * delta)
    assert np.max(np.abs((x1 + 1j * y1) - rot)) < 1e-12


def test_epitrochoid_speed_closed_form(rng):
    # series evaluation against (k+2)^2 (1 + a^2 - 2 a cos((k+1)t))
    for k, lam in ((2, 0.5), (3, 0.6)):
        curve = epi(k, lam)
        d = curve.derivative()
        a = lam * (k + 1)
        t = rng.uniform(0, 2 * math.pi, 40)
        sp = d.x(t) ** 2 + d.y(t) ** 2
        closed = (k + 2) ** 2 * (1 + a * a - 2 * a * np.cos((k + 1) * t))
        assert np.max(np.abs(sp - closed)) < 1e-10


def test_curve_from_config():
    curve = curve_from_config({"type": "epitrochoid", "k": 2, "lambda": 0.5})
    assert curve.epitrochoid == EpitrochoidParams(k=2, lam=0.5)
    assert curve_from_config({"type": "circle"}).label == "circle"
    assert curve_from_config({"type": "cycloid", "delta": 0.2}).domain[0] == 0.2
    assert curve_from_config({"type": "parabola", "half_width": 3}).domain == (-3.0, 3.0)
    with pytest.raises(InvalidCurveParameters):
        curve_from_config({"type": "lemniscate"})
    with pytest.raises(InvalidCurveParameters):
        curve_from_config({"k": 2})


def test_curve_oracle_against_raw_formula(rng):
    k, lam = 3, 0.6
    curve = epi(k, lam)
    t = rng.uniform(0, 2 * math.pi, 25)
    x, y = curve.eval(t)
    xr, yr = raw_epitrochoid(k, lam, t)
    assert np.max(np.abs(x - xr)) < 1e-13
    assert np.max(np.abs(y - yr)) < 1e-13


@pytest.mark.parametrize("curve", [make_circle(), make_cycloid(), make_parabola(), epi(2, 0.5),
                                   epi(1, 30.0)], ids=lambda c: c.label)
def test_grid_matches_pointwise_series(curve):
    # the separable sum of outer products against the series at every grid point
    cap = min(find_strip(curve).cap, 0.9)
    t = np.linspace(*curve.domain, 97)
    s = np.linspace(-cap, cap, 33)
    d = curve.derivative()
    for series in (curve.x, curve.y, d.x, d.y):
        grid = series.grid(t, s)
        points = series(t[None, :] + 1j * s[:, None])
        assert grid.shape == (33, 97)
        assert np.all(np.abs(grid - points) <= 4e-15 * np.maximum(1.0, np.abs(points)))
