import math

import numpy as np
import pytest

from bjorling.curves import make_circle
from bjorling.continuation import find_strip
from bjorling.schwarz import data_from_curve, period_residual, phi

from conftest import EPI_PARAMS, epi
from oracles import data_from_phi, gauss_map_check, metric_density, stereographic


def strip_points(curve, rng, n=100):
    cap = find_strip(curve).cap
    s_max = 0.8 * cap if math.isfinite(cap) else 0.8
    t0, t1 = curve.domain
    return rng.uniform(t0, t1, n) + 1j * rng.uniform(-s_max, s_max, n)


def test_circle_closed_forms():
    data = data_from_curve(make_circle())
    for z in (0.0, 0.9, 1.7 + 0.3j, -0.2j):
        assert abs(data.g(z) - (-np.exp(1j * z))) < 1e-12
        assert abs(data.eta(z) - (-1j * np.exp(-1j * z))) < 1e-14
    assert abs(abs(data.g(0.0)) - 1.0) < 1e-14


def test_unit_modulus_on_axis(test_curve):
    data = data_from_curve(test_curve)
    t = np.linspace(*test_curve.domain, 64)
    gv = data.g(t.astype(complex))
    assert np.max(np.abs(np.abs(gv) - 1.0)) < 1e-10


def test_eta_on_axis_is_velocity(test_curve):
    data = data_from_curve(test_curve)
    d = test_curve.derivative()
    t = np.linspace(*test_curve.domain, 33)
    eta = data.eta(t)
    assert np.max(np.abs(eta - (d.x(t) - 1j * d.y(t)))) < 1e-13
    sp = d.x(t) ** 2 + d.y(t) ** 2
    assert np.max(np.abs(np.abs(eta) ** 2 - sp)) < 1e-11


def phi_of_z(curve):
    return lambda z: phi(curve, np.real(z), np.imag(z))


def test_data_from_phi_matches_curve_route(test_curve, rng):
    data_c = data_from_curve(test_curve)
    data_p = data_from_phi(phi_of_z(test_curve))
    zs = strip_points(test_curve, rng, 25)
    for z in zs:
        assert abs(data_c.g(z) - data_p.g(z)) < 1e-10
        assert abs(data_c.eta(z) - data_p.eta(z)) < 1e-10


def test_data_from_phi_examples():
    data = data_from_phi(phi_of_z(make_circle()))
    assert abs(data.g(0.0) - (-1.0)) < 1e-13
    triple = phi_of_z(epi(2, 0.5))
    data = data_from_phi(triple)
    assert abs(data.eta(0.0) - 2.0j) < 1e-13
    # g * eta = phi3 identity
    z = 0.4 + 0.05j
    v = triple(z)
    assert abs(data.g(z) * data.eta(z) - v[2]) < 1e-12


def test_reconstruction_identity(test_curve, rng):
    data = data_from_curve(test_curve)
    triple = phi_of_z(test_curve)
    for z in strip_points(test_curve, rng, 100):
        gv = data.g(z)
        ev = data.eta(z)
        ph = triple(z)
        recon = np.array([0.5 * (1 - gv**2) * ev,
                          0.5j * (1 + gv**2) * ev,
                          gv * ev])
        scale = np.maximum(1.0, np.abs(ph))
        assert np.max(np.abs(recon - ph) / scale) < 1e-10


def test_density_equals_phi_norm(test_curve, rng):
    data = data_from_curve(test_curve)
    triple = phi_of_z(test_curve)
    for z in strip_points(test_curve, rng, 40):
        lhs = float(np.sum(np.abs(triple(z)) ** 2))
        rhs = 0.5 * (1 + abs(data.g(z)) ** 2) ** 2 * abs(data.eta(z)) ** 2
        assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-10


def test_metric_density_on_axis():
    data = data_from_curve(make_circle())
    assert abs(metric_density(data, 0.7) - 1.0) < 1e-12
    data = data_from_curve(epi(2, 0.5))
    assert abs(metric_density(data, 0.0) - 4.0) < 1e-12
    # equals speed^2 along the axis
    curve = epi(3, 0.6)
    d = curve.derivative()
    data = data_from_curve(curve)
    for t in np.linspace(0, 2 * math.pi, 17):
        sp = float(d.x(t) ** 2 + d.y(t) ** 2)
        assert abs(metric_density(data, float(t)) - sp) < 1e-10 * max(1.0, sp)


def test_stereographic_equator():
    n = np.array([0.6, -0.8, 0.0])
    assert abs(abs(stereographic(n)) - 1.0) < 1e-14


def test_gauss_map_consistency():
    assert gauss_map_check(make_circle(), np.linspace(0, 2 * math.pi, 64)) < 1e-8
    assert gauss_map_check(epi(2, 0.5), np.linspace(0, 2 * math.pi, 64)) < 1e-6


@pytest.mark.parametrize("k", sorted(EPI_PARAMS))
def test_period_residual_epitrochoids(k):
    res = period_residual(epi(k))
    assert np.max(np.abs(res)) < 1e-10


def test_period_residual_circle_and_open_curve():
    assert np.max(np.abs(period_residual(make_circle()))) < 1e-12
    from bjorling.curves import make_parabola
    with pytest.raises(ValueError):
        period_residual(make_parabola())
