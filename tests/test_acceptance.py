"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math
import time

import numpy as np

from bjorling.analysis import (
    expected_orders,
    intrinsic_distance,
    obstruction_report,
    order_table,
    v_model,
)
from bjorling.cli import main
from bjorling.curves import make_circle, make_cycloid, make_parabola
from bjorling.continuation import find_strip
from bjorling.schwarz import data_from_curve, period_residual, phi, surface_patch, surface_point
from bjorling.verify import (
    conformality_residuals,
    mean_curvature_residual,
    null_residual,
    symmetry_residual,
)

from conftest import EPI_PARAMS, epi, metric_length_by_quadrature
from oracles import planar_normal, point3d

WITNESS_PARAMS = [(2, 0.5), (2, 2.0), (3, 0.6), (4, 0.4)]


def all_test_curves():
    curves = [make_circle(), make_cycloid(), make_parabola()]
    curves += [epi(k) for k in sorted(EPI_PARAMS)]
    return curves


def safe_smax(curve, frac=0.8):
    cap = find_strip(curve).cap
    return frac * cap if math.isfinite(cap) else frac


def report(num, name, ok, detail):
    line = "ACCEPTANCE %02d %-22s %s (%s)" % (num, name, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def test_criterion_01_catenoid_oracle():
    start = time.perf_counter()
    curve = make_circle()
    patch = surface_patch(curve, (0.0, 2 * math.pi), (-1.0, 1.0), 64, 17)
    T, S = np.meshgrid(patch.t_vals, patch.s_vals)
    closed_form = np.stack([np.cos(T) * np.cosh(S) - 1.0,
                            np.sin(T) * np.cosh(S),
                            -S], axis=-1)
    raw_integral = patch.points - np.asarray(point3d(curve, 0.0))
    err = float(np.max(np.abs(raw_integral - closed_form)))
    elapsed = time.perf_counter() - start
    report(1, "catenoid oracle", err < 1e-9 and elapsed < 5.0,
           "max err %.2e, %.2fs" % (err, elapsed))


def test_criterion_02_null_and_conformality():
    worst_null = 0.0
    worst_conf = 0.0
    for curve in all_test_curves():
        s = safe_smax(curve)
        patch = surface_patch(curve, curve.domain, (-s, s), 64, 9)
        worst_null = max(worst_null, null_residual(patch))
        worst_conf = max(worst_conf, *conformality_residuals(patch))
    report(2, "null/conformality", worst_null < 1e-12 and worst_conf < 1e-6,
           "null %.2e, conf %.2e" % (worst_null, worst_conf))


def test_criterion_03_bjorling_contract():
    h = 1e-3
    worst_row = 0.0
    worst_normal = 0.0
    for curve in all_test_curves():
        s = safe_smax(curve, 0.5)
        patch = surface_patch(curve, curve.domain, (-s, s), 129, 9)
        row = patch.geodesic_row
        worst_row = max(worst_row, float(np.max(np.abs(
            patch.points[row] - point3d(curve, patch.t_vals)))))
        t0, t1 = curve.domain
        for t in np.linspace(t0 + 2 * h, t1 - 2 * h, 17):
            f_t = (surface_point(curve, t + h, 0.0)
                   - surface_point(curve, t - h, 0.0)) / (2 * h)
            f_s = (surface_point(curve, t, +h)
                   - surface_point(curve, t, -h)) / (2 * h)
            nu = np.cross(f_t, f_s)
            nu /= np.linalg.norm(nu)
            worst_normal = max(worst_normal, float(np.max(np.abs(
                nu - planar_normal(curve, t)))))
    report(3, "bjorling contract", worst_row < 1e-9 and worst_normal < 1e-4,
           "row %.2e, normal %.2e" % (worst_row, worst_normal))


def test_criterion_04_weierstrass_consistency():
    rng = np.random.default_rng(20240817)
    worst_recon = 0.0
    worst_norm = 0.0
    worst_axis = 0.0
    for curve in all_test_curves():
        data = data_from_curve(curve)
        t0, t1 = curve.domain
        s = safe_smax(curve)
        zs = rng.uniform(t0, t1, 100) + 1j * rng.uniform(-s, s, 100)
        for z in zs:
            gv = data.g(z)
            ev = data.eta(z)
            ph = phi(curve, z.real, z.imag)
            recon = np.array([0.5 * (1 - gv**2) * ev,
                              0.5j * (1 + gv**2) * ev,
                              gv * ev])
            scale = np.maximum(1.0, np.abs(ph))
            worst_recon = max(worst_recon, float(np.max(np.abs(recon - ph) / scale)))
            lhs = float(np.sum(np.abs(ph) ** 2))
            rhs = 0.5 * (1 + abs(gv) ** 2) ** 2 * abs(ev) ** 2
            worst_norm = max(worst_norm, abs(lhs - rhs) / max(1.0, rhs))
        gt = data.g(np.linspace(t0, t1, 64).astype(complex))
        worst_axis = max(worst_axis, float(np.max(np.abs(np.abs(gt) - 1.0))))
    ok = worst_recon < 1e-10 and worst_norm < 1e-10 and worst_axis < 1e-10
    report(4, "weierstrass identity", ok,
           "recon %.2e, norm %.2e, |g|-1 %.2e" % (worst_recon, worst_norm, worst_axis))


def test_criterion_05_period_condition():
    worst = 0.0
    for k in sorted(EPI_PARAMS):
        worst = max(worst, float(np.max(np.abs(period_residual(epi(k))))))
    report(5, "period condition", worst < 1e-10, "max |Re loop Phi| %.2e" % worst)


def test_criterion_06_order_tables():
    start = time.perf_counter()
    failures = []
    for k, lam in ((2, 0.5), (4, 0.4), (1, 0.6), (3, 0.6)):
        table = order_table(v_model(k, lam))
        expected = expected_orders(k)
        for row in table.rows:
            want_g, want_eta = expected[row.point]
            if row.g_order != want_g:
                failures.append((k, row.point, "g", row.g_order, want_g))
            if want_eta is not None and row.eta_order != want_eta:
                failures.append((k, row.point, "eta", row.eta_order, want_eta))
    elapsed = time.perf_counter() - start
    report(6, "order tables", not failures and elapsed < 30.0,
           "k in {2,4,1,3} all asserted entries exact, %.2fs%s"
           % (elapsed, "" if not failures else "; mismatches " + repr(failures)))


def test_criterion_07_degeneration_witness():
    worst_density = 0.0
    worst_expo = 0.0
    worst_distance = 0.0
    for k, lam in WITNESS_PARAMS:
        model = v_model(k, lam)
        rep = obstruction_report(model)
        worst_density = max(worst_density, max(rep.density_at_points))
        worst_expo = max(worst_expo, max(abs(e - 2.0) for e in rep.vanishing_exponents))
        d = intrinsic_distance(model)
        assert math.isfinite(d) and d > 0
        worst_distance = max(worst_distance, abs(d - metric_length_by_quadrature(k, lam)))
    ok = worst_density < 1e-10 and worst_expo < 0.05 and worst_distance < 1e-6
    report(7, "degeneration witness", ok,
           "density %.2e, |expo-2| %.3f, distance vs Gauss-Legendre %.2e"
           % (worst_density, worst_expo, worst_distance))


def test_criterion_08_minimality():
    def residual(curve, t_range, s_range, nt, ns):
        p = surface_patch(curve, t_range, s_range, nt, ns)
        return mean_curvature_residual(
            p.points, p.t_vals[1] - p.t_vals[0], p.s_vals[1] - p.s_vals[0])

    # catenoid over a full period; epitrochoid over a waist-to-apex window
    # (t-extent chosen so second-order stencils resolve the lobe at nt = 256)
    cases = [
        (make_circle(), (0.0, 2 * math.pi), (-0.5, 0.5)),
        (epi(2, 0.5), (0.0, 1.2), (-0.06, 0.06)),
    ]
    details = []
    ok = True
    for curve, t_range, s_range in cases:
        h1 = residual(curve, t_range, s_range, 256, 64)
        h2 = residual(curve, t_range, s_range, 511, 127)
        order = math.log2(h1 / h2)
        ok = ok and h1 < 1e-3 and abs(order - 2.0) < 0.3
        details.append("%s: %.2e order %.2f" % (curve.label.split("(")[0], h1, order))
    report(8, "discrete minimality", ok, "; ".join(details))


def test_criterion_09_symmetry():
    worst = 0.0
    for k in sorted(EPI_PARAMS):
        worst = max(worst, symmetry_residual(epi(k), s_values=(0.0, 0.05, -0.05)))
    report(9, "phi equivariance", worst < 1e-11, "max residual %.2e" % worst)


def test_criterion_10_determinism(tmp_path):
    argv = ["generate", "--curve", "epitrochoid", "--k", "3", "--lambda", "0.6",
            "--nt", "32", "--ns", "7", "--clip"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    same = True
    for p in sorted(out_a.iterdir()):
        same = same and p.read_bytes() == (out_b / p.name).read_bytes()
    ta, tb = tmp_path / "ta.json", tmp_path / "tb.json"
    assert main(["table", "--k", "2", "--lambda", "0.5", "--json", str(ta)]) == 0
    assert main(["table", "--k", "2", "--lambda", "0.5", "--json", str(tb)]) == 0
    same = same and ta.read_bytes() == tb.read_bytes()
    report(10, "determinism", same, "mesh + report bytes identical across runs")
