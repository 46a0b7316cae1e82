import math

import numpy as np
import pytest

from bjorling.continuation import (
    BranchValue,
    PathPolyline,
    SingularityOnPath,
    match_branch,
    nearest_zero_distance,
    singularity_scan,
    speed_squared,
    sqrt_along_path,
    strip_sqrt,
    strip_sqrt_array,
)
from bjorling.curves import make_circle, make_cycloid, make_parabola

from conftest import epi


def test_speed_squared_values():
    curve = epi(2, 0.5)
    assert abs(speed_squared(curve, 0.0) - 4.0) < 1e-12
    assert abs(speed_squared(make_circle(), 0.3 + 0.2j) - 1.0) < 1e-14
    z0 = 1j * math.log(1.5) / 3.0
    assert abs(speed_squared(curve, z0)) < 1e-12


def test_speed_squared_closed_form_off_axis(rng):
    k, lam = 3, 0.6
    curve = epi(k, lam)
    a = lam * (k + 1)
    z = rng.uniform(0, 2 * math.pi, 20) + 1j * rng.uniform(-0.2, 0.2, 20)
    closed = (k + 2) ** 2 * (1 + a * a - 2 * a * np.cos((k + 1) * z))
    assert np.max(np.abs(speed_squared(curve, z) - closed)) < 1e-9


def test_sqrt_along_path_constant_for_circle():
    path = PathPolyline(vertices=(0.0 + 0j, 1.0 + 0.5j, 2.0 + 0j))
    out = sqrt_along_path(make_circle(), path, BranchValue(0j, 1.0 + 0j))
    assert all(abs(bv.value - 1.0) < 1e-12 for bv in out)


def test_sqrt_real_axis_loop_returns_to_seed():
    curve = epi(2, 0.5)
    path = PathPolyline(vertices=(0j, 2 * math.pi + 0j))
    out = sqrt_along_path(curve, path, BranchValue(0j, 2.0 + 0j))
    assert abs(out[-1].value - 2.0) < 1e-10
    # on the axis the tracked root stays the positive one
    assert all(bv.value.real > 0 for bv in out)


def test_sqrt_winding_around_simple_zero_flips_sign():
    curve = epi(2, 0.5)
    z0 = 1j * math.log(1.5) / 3.0  # simple zero of speed^2 above t = 0
    loop = PathPolyline(vertices=(
        0j, 0.1 + 0.05j, 0.1 + 0.25j, -0.1 + 0.25j, -0.1 + 0.05j, 0j))
    out = sqrt_along_path(curve, loop, BranchValue(0j, 2.0 + 0j))
    assert abs(out[-1].value - (-2.0)) < 1e-9
    assert abs(out[-1].value ** 2 - speed_squared(curve, 0.0)) < 1e-12
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
    start = corners[0]
    seed = BranchValue(start, strip_sqrt(curve, start))
    loop = PathPolyline(vertices=corners + (corners[0],),
                        refinement=min(1e-2, r / 4))
    out = sqrt_along_path(curve, loop, seed)
    assert abs(out[-1].value + seed.value) < 1e-8 * max(1.0, abs(seed.value))


def test_homotopic_paths_agree():
    curve = epi(2, 0.5)
    target = 1.0 + 0.1j
    direct = PathPolyline(vertices=(0j, target))
    dogleg = PathPolyline(vertices=(0j, 1.0 + 0j, target))
    w1 = sqrt_along_path(curve, direct, BranchValue(0j, 2.0 + 0j))[-1].value
    w2 = sqrt_along_path(curve, dogleg, BranchValue(0j, 2.0 + 0j))[-1].value
    assert abs(w1 - w2) < 1e-10


def test_singularity_on_path_detected():
    curve = epi(2, 0.5)
    z0 = 1j * math.log(1.5) / 3.0
    path = PathPolyline(vertices=(0j, z0 + 1e-4), refinement=1e-2)
    with pytest.raises(SingularityOnPath):
        sqrt_along_path(curve, path, BranchValue(0j, 2.0 + 0j))


def test_bad_seed_rejected():
    with pytest.raises(ValueError):
        sqrt_along_path(epi(2, 0.5), PathPolyline(vertices=(0j, 1.0 + 0j)),
                        BranchValue(0j, 1.0 + 0j))


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
    assert math.isinf(nearest_zero_distance(make_circle()))
    d = nearest_zero_distance(epi(2, 0.5))
    assert abs(d - math.log(1.5) / 3.0) < 1e-12
    d = nearest_zero_distance(make_cycloid())
    assert abs(d - 0.1) < 1e-4
    d = nearest_zero_distance(make_parabola())
    assert abs(d - 0.5) < 1e-6


def test_strip_sqrt_positive_on_axis_and_consistent():
    curve = epi(2, 0.5)
    w = strip_sqrt(curve, 1.2)
    assert w.imag == 0 and w.real > 0
    z = 0.7 + 0.09j
    w = strip_sqrt(curve, z)
    assert abs(w * w - speed_squared(curve, z)) < 1e-12 * abs(speed_squared(curve, z))
    # matches path continuation along a different (homotopic) route
    path = PathPolyline(vertices=(0j, 0.7 + 0j, z))
    via_path = sqrt_along_path(curve, path, BranchValue(0j, 2.0 + 0j))[-1].value
    assert abs(w - via_path) < 1e-10


def test_match_branch_flips_and_flags_fast_turns():
    ref = np.array([1.0, 1.0, 1.0, 1j, 1.0])
    cand = np.array([-1.0 + 0.1j, 1.0 + 0.9j, 1.0 + 1.1j, -0.2 - 1j, 0.0])
    w, ok = match_branch(cand, ref)
    assert np.array_equal(w, [1.0 - 0.1j, 1.0 + 0.9j, 1.0 + 1.1j, 0.2 + 1j, 0.0])
    assert ok.tolist() == [True, True, False, True, False]


def test_strip_sqrt_array_matches_scalar_on_grid():
    curve = epi(3, 0.6)
    s_max = 0.8 * math.log(2.4) / 4.0
    z = np.linspace(0.0, 2 * math.pi, 13)[None, :] + 1j * np.linspace(-s_max, s_max, 5)[:, None]
    w = strip_sqrt_array(curve, z)
    assert w.shape == z.shape
    scalar = np.array([[strip_sqrt(curve, p) for p in row] for row in z])
    assert np.max(np.abs(w - scalar)) < 1e-12
    sp = speed_squared(curve, z)
    assert np.max(np.abs(w * w - sp) / np.abs(sp)) < 1e-12
    assert np.all(strip_sqrt_array(curve, z.real).real > 0)
