import math

import numpy as np
import pytest

from bjorling import cli, schwarz, verify
from bjorling.curves import make_circle, make_cycloid, make_parabola
from bjorling.continuation import find_strip
from bjorling.schwarz import PatchGrid, surface_patch
from bjorling.verify import (
    BLOCK_ROWS,
    DegenerateMetric,
    conformality_residuals,
    geodesic_residual,
    mean_curvature_residual,
    null_residual,
    symmetry_residual,
    verification_report,
)

from conftest import epi
from oracles import grid_phi


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


@pytest.mark.parametrize("lam", [500.0, 5e3, 5e5])
def test_symmetry_residual_is_relative(lam):
    # k = 1 at large lambda: |Phi| ~ 3 a, so an absolute residual read 1e-11 ..
    # 1e-8 on a correct surface; relative to max |Phi| it sits at rounding
    assert symmetry_residual(epi(1, lam)) < 1e-14


@pytest.mark.parametrize("lam", [0.3, 500.0, 5e5])
def test_symmetry_residual_fails_wrong_angle_or_scaled_phi(lam, monkeypatch):
    # mutations: an angle off by 1e-9, and Phi scaled by 1 + 1e-9 on the
    # rotated side only; both must stay far above the 1e-11 threshold
    curve = epi(1, lam)
    assert symmetry_residual(curve, angle=math.pi + 1e-9) > 1e-10

    calls = [0]
    phi = verify.phi

    def scaled_second_call(curve, t, s):
        calls[0] += 1
        values = phi(curve, t, s)
        return values * (1.0 + 1e-9) if calls[0] == 2 else values

    monkeypatch.setattr(verify, "phi", scaled_second_call)
    assert symmetry_residual(curve) > 1e-10


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


def test_verify_evaluates_phi_for_its_final_patch_only(monkeypatch, capsys):
    # ``velocity`` points under ``phi`` (the grid Phi and the symmetry rows) against
    # those at the Chebyshev nodes of the column integrals: the window probe reads
    # only its points, so it takes none under ``phi``
    points = {"nodes": 0, "phi": 0}
    inside = [False]
    probe = {}
    velocity, phi, window = schwarz.velocity, schwarz.phi, verify.verify_window

    def counting_velocity(curve, t, s):
        points["phi" if inside[0] else "nodes"] += int(np.broadcast(t, s).size)
        return velocity(curve, t, s)

    def counting_phi(curve, t, s):
        inside[0] = True
        try:
            return phi(curve, t, s)
        finally:
            inside[0] = False

    def counting_window(*args, **kwargs):
        before = dict(points)
        try:
            return window(*args, **kwargs)
        finally:
            probe.update({key: points[key] - before[key] for key in points})

    report = verify.verification_report
    final = []

    def keeping_report(curve, patch):
        final.append(patch)
        return report(curve, patch)

    monkeypatch.setattr(schwarz, "velocity", counting_velocity)
    monkeypatch.setattr(schwarz, "phi", counting_phi)
    monkeypatch.setattr(verify, "phi", counting_phi)
    monkeypatch.setattr(verify, "verify_window", counting_window)
    monkeypatch.setattr(verify, "verification_report", keeping_report)
    nt, ns = 64, 33
    assert cli.main(["verify", "--curve", "epitrochoid", "--k", "2", "--lambda", "0.5",
                     "--nt", str(nt), "--ns", str(ns)]) == cli.EXIT_OK
    capsys.readouterr()
    assert probe["nodes"] > 0 and probe["phi"] == 0
    # the final patch's (ns + 1)/2 = 17 |s| levels by nt columns, and symmetry_residual's
    # two rows of 64: the residuals read Phi at the levels only
    assert points["phi"] == (ns + 1) // 2 * nt + 2 * 64
    [patch] = final
    assert "level_phi" in patch.__dict__


def test_geodesic_residual_resolution_independent():
    # the sideways witness is an identity for planar Bjorling data: the
    # discrete s-tangent is exactly vertical, so the residual sits at
    # rounding level at any resolution
    curve = epi(2, 0.5)
    r1 = geodesic_residual(curve, patch_for(curve, nt=128, ns=9, frac=0.05))
    r2 = geodesic_residual(curve, patch_for(curve, nt=512, ns=9, frac=0.05))
    assert r1 < 1e-12 and r2 < 1e-12


def _dot(u, v):
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


def _whole_grid_curvature(P, ht, hs):
    # the unblocked stencils: H and EG - F^2 at every interior vertex
    ft = (P[1:-1, 2:] - P[1:-1, :-2]) / (2.0 * ht)
    fs = (P[2:, 1:-1] - P[:-2, 1:-1]) / (2.0 * hs)
    ftt = (P[1:-1, 2:] - 2.0 * P[1:-1, 1:-1] + P[1:-1, :-2]) / ht**2
    fss = ((P[2:, 1:-1] - P[1:-1, 1:-1]) + (P[:-2, 1:-1] - P[1:-1, 1:-1])) / hs**2
    fts = ((P[2:, 2:] - P[:-2, 2:]) - (P[2:, :-2] - P[:-2, :-2])) / (4.0 * ht * hs)
    E, F, G = _dot(ft, ft), _dot(ft, fs), _dot(fs, fs)
    W = E * G - F * F
    n = np.cross(ft, fs)
    n = n / np.linalg.norm(n, axis=-1, keepdims=True)
    H = (E * _dot(fss, n) - 2.0 * F * _dot(fts, n) + G * _dot(ftt, n)) / (2.0 * W)
    return H, W


def _whole_grid_conformality(phi):
    # the unblocked |E - G|/E and |F|/E at every vertex
    ft, fs = np.real(phi), -np.imag(phi)
    E = np.sum(ft * ft, axis=-1)
    G = np.sum(fs * fs, axis=-1)
    F = np.sum(ft * fs, axis=-1)
    return np.abs(E - G) / E, np.abs(F) / E


def _graph_points(ns, nt=40):
    # a smooth non-minimal graph over t x s, so every vertex has H != 0
    t = np.linspace(0.0, 4.0, nt)
    s = np.linspace(-1.0, 1.0, ns)
    P = np.empty((ns, nt, 3))
    P[..., 0], P[..., 1] = t[None, :], s[:, None]
    P[..., 2] = 0.1 * np.sin(t)[None, :] * np.cosh(s)[:, None]
    return P, t[1] - t[0], s[1] - s[0]


def _seam_rows(first, last):
    # the rows on either side of each block boundary, blocks of BLOCK_ROWS rows
    # starting at row `first`, and the last row
    return sorted({r for b in range(first + BLOCK_ROWS, last + 1, BLOCK_ROWS) for r in (b - 1, b)
                   if first <= r <= last} | {last})


@pytest.mark.parametrize("ns", [3, 34, 35, 65, 129])
def test_blocked_curvature_equals_the_whole_grid_at_every_seam(ns):
    base, ht, hs = _graph_points(ns)
    for row in _seam_rows(1, ns - 2):
        P = base.copy()
        P[row, 17, 2] += 0.05   # the largest |H| sits on this row
        H, W = _whole_grid_curvature(P, ht, hs)
        assert np.unravel_index(np.argmax(np.abs(H)), H.shape) == (row - 1, 16)
        assert mean_curvature_residual(P, ht, hs) == float(np.max(np.abs(H)))


@pytest.mark.parametrize("ns", [35, 65])
def test_degenerate_vertex_in_the_last_partial_block_raises(ns):
    # ft = 0 at the one vertex (ns - 2, 20), the last interior row, which sits
    # in a block shorter than BLOCK_ROWS
    assert (ns - 2) % BLOCK_ROWS != 0
    P, ht, hs = _graph_points(ns)
    P[ns - 2, 21] = P[ns - 2, 19]
    with np.errstate(invalid="ignore"):
        _, W = _whole_grid_curvature(P, ht, hs)
    assert list(zip(*np.nonzero(W < 1e-14))) == [(ns - 3, 19)]
    with pytest.raises(DegenerateMetric):
        mean_curvature_residual(P, ht, hs)


@pytest.mark.parametrize("ns", [3, 34, 35, 65, 129])
def test_blocked_conformality_equals_the_whole_grid_at_every_seam(ns):
    rng = np.random.default_rng(ns)
    nt = 24
    ft = np.array([1.0, 0.0, 0.0]) + 1e-3 * rng.standard_normal((ns, nt, 3))
    fs = np.array([0.0, 1.0, 0.0]) + 1e-3 * rng.standard_normal((ns, nt, 3))
    for row in _seam_rows(0, ns - 1):
        a, b = ft.copy(), fs.copy()
        b[row, 5] *= 2.0                # |E - G|/E about 3
        b[row, 11] += 0.5 * a[row, 11]  # |F|/E about 0.5
        patch = PatchGrid(curve=make_circle(), t_vals=np.arange(nt), s_vals=np.arange(ns),
                          points=np.zeros((ns, nt, 3)))
        patch.level_phi = a - 1j * b    # an instance value shadows the evaluated Phi
        eg, f = _whole_grid_conformality(patch.level_phi)
        assert np.unravel_index(np.argmax(eg), eg.shape) == (row, 5)
        assert np.unravel_index(np.argmax(f), f.shape) == (row, 11)
        assert conformality_residuals(patch) == (float(np.max(eg)), float(np.max(f)))


def _whole_grid_null(phi):
    # the unblocked relative null residual at every vertex
    f = phi.view(float)
    return np.abs(phi[..., 0] ** 2 + phi[..., 1] ** 2 + phi[..., 2] ** 2) / np.einsum(
        "...j,...j", f, f)


FAMILIES = [make_circle(), make_cycloid(), make_parabola(), epi(2, 0.5)]


@pytest.mark.parametrize("curve", FAMILIES, ids=lambda c: c.label)
@pytest.mark.parametrize("ns, lo, hi", [(129, -0.5, 0.5), (34, -0.9, 0.9), (33, -0.2, 1.0),
                                        (17, 0.1, 0.9), (17, -0.9, -0.1)])
def test_residuals_at_distinct_abs_s_equal_the_whole_grid(curve, ns, lo, hi):
    # one row per distinct |s| gives the whole grid's maxima bit for bit: symmetric
    # odd and even ns, an asymmetric range and one-sided ones
    cap = find_strip(curve).cap
    cap = cap if math.isfinite(cap) else 1.0
    patch = surface_patch(curve, curve.domain, (lo * cap, hi * cap), 64, ns)
    phi = grid_phi(patch)
    eg, f = _whole_grid_conformality(phi)
    assert conformality_residuals(patch) == (float(np.max(eg)), float(np.max(f)))
    assert null_residual(patch) == float(np.max(_whole_grid_null(phi)))


def _row_curvature(P, ht, hs):
    # max |H| on each interior row l, from its own three rows l - 1 .. l + 1
    return [mean_curvature_residual(P[l - 1:l + 2], ht, hs) for l in range(1, len(P) - 1)]


@pytest.mark.parametrize("curve", FAMILIES, ids=lambda c: c.label)
@pytest.mark.parametrize("nt, ns", [(128, 65), (256, 129)])
@pytest.mark.parametrize("frac", [0.05, 0.5, 0.9])
def test_mirror_rows_give_equal_curvature(curve, nt, ns, frac):
    # the s-stencils are mirror-exact: on a patch whose rows l and ns-1-l are mirrors,
    # both rows have the same max |H| bit for bit, so the rows from just below s = 0 up
    # give the all-rows maximum
    strip = find_strip(curve)
    halfwidth = strip.halfwidth(frac)
    patch = surface_patch(curve, curve.domain, (-halfwidth, halfwidth), nt, ns, strip=strip)
    ht, hs = patch.t_vals[1] - patch.t_vals[0], patch.s_vals[1] - patch.s_vals[0]
    rows = _row_curvature(patch.points, ht, hs)
    assert rows == rows[::-1]
    assert mean_curvature_residual(patch.points, ht, hs) == max(rows)


def test_curvature_stencils_difference_neighbours_near_a_cusp():
    # (a + c) - 2b is mirror-exact too, but a + c rounds by eps |f|: on the cycloid 0.009
    # from its cusp, at s-fraction 0.05, it read 1.8e-2 against the 1e-3 bound, where
    # differences of same-sign neighbours read 3.1e-4
    assert verify.verify_curve(make_cycloid(0.009), 256, 129, 0.05).max_mean_curvature < 1e-3


@pytest.mark.parametrize("case", ["mirror", "asymmetric", "even_ns", "hand_built"])
def test_curvature_halves_only_an_exact_mirror(case, monkeypatch):
    # an exact mirror in s is read from the row below s = 0 up; any other patch on
    # every interior row, at the whole grid's value
    curve = epi(2, 0.5)
    cap = find_strip(curve).cap
    ns, lo, hi = {"asymmetric": (33, -0.25, 0.75), "even_ns": (34, -0.5, 0.5)}.get(
        case, (33, -0.5, 0.5))
    patch = surface_patch(curve, curve.domain, (lo * cap, hi * cap), 64, ns)
    if case == "hand_built":
        patch.points[3, 17, 2] += 1e-3     # below s = 0: no mirror, and the largest |H|
    ht, hs = patch.t_vals[1] - patch.t_vals[0], patch.s_vals[1] - patch.s_vals[0]
    H, _ = _whole_grid_curvature(patch.points, ht, hs)
    assert mean_curvature_residual(patch.points, ht, hs) == float(np.max(np.abs(H)))
    if case != "even_ns":            # verification_report needs an s = 0 row
        assert verification_report(curve, patch).max_mean_curvature == float(np.max(np.abs(H)))
    rows, copy = [], np.ascontiguousarray

    def counting_copy(a):            # each curvature block: its interior rows
        rows.append(a.shape[1] - 2)
        return copy(a)

    monkeypatch.setattr(np, "ascontiguousarray", counting_copy)
    mean_curvature_residual(patch.points, ht, hs)
    assert sum(rows) == ((ns - 1) // 2 if case == "mirror" else ns - 2)


@pytest.mark.parametrize("curve", FAMILIES, ids=lambda c: c.label)
@pytest.mark.parametrize("nt, ns", [(128, 65), (256, 129)])
def test_curvature_on_real_patches_equals_the_whole_grid(curve, nt, ns):
    # 128 x 65 is verify's window probe, 256 x 129 its default patch
    strip = find_strip(curve)
    halfwidth = strip.halfwidth(0.5)
    patch = surface_patch(curve, curve.domain, (-halfwidth, halfwidth), nt, ns, strip=strip)
    ht, hs = patch.t_vals[1] - patch.t_vals[0], patch.s_vals[1] - patch.s_vals[0]
    H, _ = _whole_grid_curvature(patch.points, ht, hs)
    assert mean_curvature_residual(patch.points, ht, hs) == float(np.max(np.abs(H)))
