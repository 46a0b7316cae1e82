import math

import numpy as np
import pytest

from bjorling.curves import make_circle, make_cycloid, make_parabola
from bjorling.continuation import find_strip
from bjorling.schwarz import surface_patch
from bjorling.verify import (
    DegenerateMetric,
    geodesic_residual,
    mean_curvature_residual,
    symmetry_residual,
    verification_report,
)

from conftest import epi


def patch_for(curve, nt=128, ns=17, frac=0.5, t_range=None):
    cap = find_strip(curve).cap
    s = frac * cap if math.isfinite(cap) else frac
    return surface_patch(curve, t_range or curve.domain, (-s, s), nt, ns)


def test_mean_curvature_catenoid_and_convergence():
    circle = make_circle()
    p1 = surface_patch(circle, (0, 2 * math.pi), (-0.5, 0.5), 256, 64)
    h1 = mean_curvature_residual(p1.points, p1.t_vals[1] - p1.t_vals[0],
                                 p1.s_vals[1] - p1.s_vals[0])
    assert h1 < 1e-3
    p2 = surface_patch(circle, (0, 2 * math.pi), (-0.5, 0.5), 511, 127)
    h2 = mean_curvature_residual(p2.points, p2.t_vals[1] - p2.t_vals[0],
                                 p2.s_vals[1] - p2.s_vals[0])
    order = math.log2(h1 / h2)
    assert abs(order - 2.0) < 0.3


def test_mean_curvature_parabola_patch():
    patch = patch_for(make_parabola(), nt=256, ns=33, frac=0.4)
    h = mean_curvature_residual(patch.points, patch.t_vals[1] - patch.t_vals[0],
                                patch.s_vals[1] - patch.s_vals[0])
    assert h < 1e-2


def test_mean_curvature_degenerate_grid_raises():
    flat = np.zeros((5, 5, 3))  # all points coincide: EG - F^2 = 0
    with pytest.raises(DegenerateMetric):
        mean_curvature_residual(flat, 0.1, 0.1)


def test_geodesic_residual_circle():
    patch = patch_for(make_circle(), nt=256, ns=9, frac=0.05)
    assert geodesic_residual(make_circle(), patch) < 1e-6


def test_geodesic_residual_epitrochoid_and_cycloid():
    patch = patch_for(epi(2, 0.5), nt=512, ns=9, frac=0.05)
    assert geodesic_residual(epi(2, 0.5), patch) < 1e-4
    patch = patch_for(make_cycloid(), nt=512, ns=9, frac=0.05)
    assert geodesic_residual(make_cycloid(), patch) < 1e-4


def test_geodesic_residual_needs_interior_axis_row():
    curve = make_circle()
    patch = surface_patch(curve, (0, 2 * math.pi), (0.1, 0.5), 32, 5)
    with pytest.raises(ValueError):
        geodesic_residual(curve, patch)


@pytest.mark.parametrize("k", [2, 3])
def test_symmetry_residual_epitrochoids(k):
    assert symmetry_residual(epi(k), s_values=(0.0, 0.02, -0.02)) < 1e-11


def test_symmetry_residual_circle_any_angle():
    assert symmetry_residual(make_circle(), angle=math.pi / 3,
                             s_values=(0.0, 0.3)) < 1e-12


def test_symmetry_requires_angle_for_generic_curve():
    with pytest.raises(ValueError):
        symmetry_residual(make_parabola())


def test_verification_report_bundles(tmp_path):
    curve = epi(2, 0.5)
    patch = patch_for(curve, nt=192, ns=17, frac=0.45, t_range=(0.0, 1.2))
    rep = verification_report(curve, patch)
    assert rep.null_residual < 1e-12
    assert rep.conformality_residual < 1e-6
    assert rep.symmetry_residual is not None and rep.symmetry_residual < 1e-11
    payload = rep.to_json_dict()
    assert payload["grid"]["nt"] == 192


def test_geodesic_residual_resolution_independent():
    # the sideways witness is an identity for planar Bjorling data: the
    # discrete s-tangent is exactly vertical, so the residual sits at
    # rounding level at any resolution
    curve = epi(2, 0.5)
    r1 = geodesic_residual(curve, patch_for(curve, nt=128, ns=9, frac=0.05))
    r2 = geodesic_residual(curve, patch_for(curve, nt=512, ns=9, frac=0.05))
    assert r1 < 1e-12 and r2 < 1e-12
