"""Command-line front end: mesh generation, degeneration analysis, patch
verification, and zero/pole table reproduction.

Identical configuration produces byte-identical outputs; timestamps only
appear behind --timestamp.

The parser is built once per process, on the first `main` call, and reused by
every later call.  It holds only immutable defaults and each call parses into a
fresh Namespace; the command function is looked up by name at each call.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import sys

import numpy as np

from . import analysis, meshing, verify, weierstrass
from .continuation import find_strip
from .curves import InvalidCurveParameters, curve_from_config, regularity_margin
from .schwarz import QuadratureFailure, StripTooWide, surface_patch

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_BAD_PARAMS = 2
EXIT_IO = 3

# acceptance-grade thresholds used by `verify`
THRESHOLDS = {
    "null_residual": 1e-12,
    "conformality_residual": 1e-6,
    "max_mean_curvature": 1e-3,
    "geodesic_residual": 1e-4,
    "symmetry_residual": 1e-11,
}


def _add_curve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--curve", choices=["epitrochoid", "circle", "cycloid", "parabola"],
                   help="curve family (or use --config)")
    p.add_argument("--k", type=int, help="epitrochoid winding parameter k >= 1")
    p.add_argument("--lambda", dest="lam", type=float, help="epitrochoid arm length")
    p.add_argument("--delta", type=float, help="cycloid cusp clearance (default 0.1)")
    p.add_argument("--half-width", type=float, help="parabola half width (default 2.0)")
    p.add_argument("--config", help="JSON (or TOML, python>=3.11) curve config file")


def _load_config_file(path: str) -> dict:
    """The parsed file; a parse or decode error is an InvalidCurveParameters."""
    try:
        if path.endswith(".toml"):
            try:
                import tomllib
            except ImportError as exc:
                raise OSError("TOML config requires python >= 3.11: %s" % exc) from exc
            with open(path, "rb") as fh:
                return tomllib.load(fh)
        with open(path) as fh:
            return json.load(fh)
    except ValueError as exc:
        raise InvalidCurveParameters("malformed config %s: %s" % (path, exc)) from exc


def _build_curve(args):
    """The curve from --config, or from the --curve flags read as the same config."""
    if args.config:
        return curve_from_config(_load_config_file(args.config))
    if args.curve is None:
        raise InvalidCurveParameters("either --curve or --config is required")
    flags = {"type": args.curve, "k": args.k, "lambda": args.lam, "delta": args.delta,
             "half_width": args.half_width}
    return curve_from_config({key: v for key, v in flags.items() if v is not None})


def _slug(curve) -> str:
    if curve.epitrochoid is not None:
        return "epitrochoid_k%d_lam%s" % (curve.epitrochoid.k,
                                          ("%g" % curve.epitrochoid.lam).replace(".", "p"))
    return curve.label.split("(")[0]


def _write_json(payload: dict, path: str, timestamp: bool) -> None:
    if timestamp:
        payload = dict(payload)
        payload["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _add_patch_args(p: argparse.ArgumentParser, ns: int, s_fraction: float) -> None:
    p.add_argument("--nt", type=int, default=256)
    p.add_argument("--ns", type=int, default=ns)
    p.add_argument("--s-fraction", type=float, default=s_fraction,
                   help="strip half-width as a multiple of the distance to the "
                        "nearest speed^2 zero (of 10/9 when there is none), in (0, 1]; "
                        "values above 0.9 exit 2 on curves that have zeros")


def _check_patch_args(args) -> None:
    if args.nt < 2 or args.ns < 2:
        raise InvalidCurveParameters("--nt and --ns must be at least 2")
    if not 0.0 < args.s_fraction <= 1.0:
        raise InvalidCurveParameters("--s-fraction must be in (0, 1]")


def _halfwidth(strip, s_fraction: float) -> float:
    """s_fraction x the distance to the nearest zero; 10/9 stands in for the
    distance when the strip has no zero, so the default 0.9 gives 1."""
    if math.isfinite(strip.distance):
        return s_fraction * strip.distance
    return s_fraction * 10.0 / 9.0


def cmd_generate(args) -> int:
    _check_patch_args(args)
    curve = _build_curve(args)
    strip = find_strip(curve)
    halfwidth = _halfwidth(strip, args.s_fraction)
    mesh = meshing.sample_mesh(surface_patch(curve, curve.domain, (-halfwidth, halfwidth),
                                             args.nt, args.ns, strip=strip))
    os.makedirs(args.out, exist_ok=True)
    slug = _slug(curve)
    obj_path = os.path.join(args.out, slug + ".obj")
    ply_path = os.path.join(args.out, slug + ".ply")
    # the half-cut's vertices are mostly the mesh's own, and a symmetric
    # patch's lower rows mirror its upper ones: one text table serves both OBJs
    half = meshing.clip_halfspace(mesh, (0.0, 0.0, 1.0), 0.0) if args.clip else None
    texts = meshing.vertex_texts(*(m.vertices for m in (mesh, half) if m is not None))
    meshing.export_obj(mesh, obj_path, texts[0])
    meshing.export_ply(mesh, ply_path)
    outputs = [obj_path, ply_path]
    if half is not None:
        half_path = os.path.join(args.out, slug + "_halfcut.obj")
        meshing.export_obj(half, half_path, texts[1])
        outputs.append(half_path)
    summary = {
        "curve": curve.label,
        "strip_halfwidth_used": halfwidth,
        "strip_distance_to_singularity": (strip.distance if math.isfinite(strip.distance)
                                          else None),
        "regularity_margin": regularity_margin(curve),
        "nt": args.nt,
        "ns": args.ns,
        "outputs": [os.path.basename(p) for p in outputs],
    }
    if curve.closed:
        summary["period_residual"] = float(np.max(np.abs(
            weierstrass.period_residual(curve))))
    summary_path = os.path.join(args.out, slug + "_summary.json")
    _write_json(summary, summary_path, args.timestamp)
    print("wrote %s" % ", ".join(outputs + [summary_path]))
    return EXIT_OK


def cmd_table(args) -> int:
    model = analysis.v_model(args.k, args.lam)
    table = analysis.order_table(model)
    expected = analysis.expected_orders(args.k)
    failures = 0
    for row in table.rows:
        want_g, want_eta = expected[row.point]
        ok = row.g_order == want_g and (want_eta is None or row.eta_order == want_eta)
        failures += not ok
        eta_note = ("%+d (informational)" % row.eta_order if want_eta is None
                    else "%+d (expect %+d)" % (row.eta_order, want_eta))
        print("%-22s g %+d (expect %+d)   eta %s   %s"
              % (row.point, row.g_order, want_g, eta_note, "PASS" if ok else "FAIL"))
    if args.json:
        _write_json(table.to_json_dict(), args.json, args.timestamp)
    print("table k=%d lambda=%g: %s" % (args.k, args.lam,
                                        "PASS" if failures == 0 else "FAIL"))
    return EXIT_OK if failures == 0 else EXIT_THRESHOLD


def cmd_analyze(args) -> int:
    model = analysis.v_model(args.k, args.lam)
    report = analysis.obstruction_report(model)
    if args.json:
        _write_json(report.to_json_dict(), args.json, args.timestamp)
    print("degeneracy points: %d  (radii %.6f, %.6f)"
          % (len(report.points), model.a ** (1.0 / (model.k + 1)),
             model.a ** (-1.0 / (model.k + 1))))
    print("max metric density at degeneracy points: %.3e"
          % max(report.density_at_points))
    print("vanishing exponents: %s" % ", ".join(
        "%d" % e for e in report.vanishing_exponents))
    print("intrinsic distance to nearest degeneration: %.9f"
          % report.intrinsic_distance)
    ok = (max(report.density_at_points) < 1e-10
          and all(e == 2 for e in report.vanishing_exponents)
          and math.isfinite(report.intrinsic_distance)
          and report.intrinsic_distance > 0)
    if not ok:
        print("FAIL: degeneration witness out of tolerance")
        return EXIT_THRESHOLD
    print("PASS")
    return EXIT_OK


def _verify_window(curve, strip, halfwidth: float, nt: int, target: float = 2.5e-4):
    """t-window sized so second-order stencils meet the curvature threshold.

    A coarse probe patch estimates the ht^2 error constant; the window is
    anchored at the domain start (a lobe waist for epitrochoids) and shrunk
    only when the full domain cannot meet `target` at the requested nt.  A
    probe whose squared spacings are not finite and positive (h^2 underflows
    or overflows), or whose error constant is not finite, is invalid input.
    """
    t_lo, t_hi = curve.domain
    length = t_hi - t_lo
    ht, hs = length / 127.0, 2.0 * halfwidth / 64.0  # the probe's spacings
    ht2, hs2 = ht * ht, hs * hs
    if not (0.0 < min(ht2, hs2) and math.isfinite(max(ht2, hs2))):
        raise InvalidCurveParameters(
            "verify's window probe cannot resolve a domain of length %g and a strip "
            "of half-width %g" % (length, halfwidth))
    probe = surface_patch(curve, curve.domain, (-halfwidth, halfwidth), 128, 65, strip=strip)
    h_probe = verify.mean_curvature_residual(
        probe.points, probe.t_vals[1] - probe.t_vals[0],
        probe.s_vals[1] - probe.s_vals[0])
    c_t = h_probe / ht2
    if not math.isfinite(c_t):
        raise InvalidCurveParameters(
            "verify's window probe found no finite curvature error constant (%g)" % c_t)
    if c_t <= 0:
        return curve.domain
    ext = (nt - 1) * math.sqrt(target / c_t)
    if ext >= length:
        return curve.domain
    return (t_lo, t_lo + ext)


def cmd_verify(args) -> int:
    _check_patch_args(args)
    if args.nt < 3:
        raise InvalidCurveParameters("verify's stencils need an interior column: --nt >= 3")
    curve = _build_curve(args)
    strip = find_strip(curve)
    halfwidth = _halfwidth(strip, args.s_fraction)
    ns = args.ns if args.ns % 2 == 1 else args.ns + 1  # keep s = 0 as a row
    window = _verify_window(curve, strip, halfwidth, args.nt)
    patch = surface_patch(curve, window, (-halfwidth, halfwidth), args.nt, ns, strip=strip)
    report = verify.verification_report(curve, patch)
    if args.json:
        _write_json(report.to_json_dict(), args.json, args.timestamp)
    failed = []
    for name, bound in THRESHOLDS.items():
        value = getattr(report, name)
        if value is None:
            continue
        status = "PASS" if value < bound else "FAIL"
        if status == "FAIL":
            failed.append(name)
        print("%-24s %.3e  (< %.0e)  %s" % (name, value, bound, status))
    if failed:
        print("FAIL: %s" % ", ".join(failed))
        return EXIT_THRESHOLD
    print("PASS")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser: built on the first call and returned by every
    later one, so callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="bjorling",
        description="Minimal surfaces through planar geodesics: generation, "
                    "analysis, verification, order tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="sample a surface patch and export meshes")
    _add_curve_args(p_gen)
    _add_patch_args(p_gen, ns=33, s_fraction=0.9)
    p_gen.add_argument("--out", default="out")
    p_gen.add_argument("--clip", action="store_true",
                       help="also export the half cut away by the x1x2-plane")
    p_gen.add_argument("--timestamp", action="store_true")

    p_tab = sub.add_parser("table", help="reproduce the zero/pole order table")
    p_tab.add_argument("--k", type=int, required=True)
    p_tab.add_argument("--lambda", dest="lam", type=float, required=True)
    p_tab.add_argument("--json", help="write the table as JSON")
    p_tab.add_argument("--timestamp", action="store_true")

    p_ana = sub.add_parser("analyze", help="degeneration report for an epitrochoid")
    p_ana.add_argument("--k", type=int, required=True)
    p_ana.add_argument("--lambda", dest="lam", type=float, required=True)
    p_ana.add_argument("--json", help="write the report as JSON")
    p_ana.add_argument("--timestamp", action="store_true")

    p_ver = sub.add_parser("verify", help="independent patch checks")
    _add_curve_args(p_ver)
    _add_patch_args(p_ver, ns=129, s_fraction=0.5)
    p_ver.add_argument("--json", help="write the report as JSON")
    p_ver.add_argument("--timestamp", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up at each call, so the cached parser holds no function
        return globals()["cmd_" + args.command](args)
    except (InvalidCurveParameters, StripTooWide) as exc:
        print("invalid parameters: %s" % exc, file=sys.stderr)
        return EXIT_BAD_PARAMS
    except analysis.NonConvergent as exc:
        print("order count failed: %s" % exc, file=sys.stderr)
        return EXIT_THRESHOLD
    except QuadratureFailure as exc:
        print("quadrature failed: %s" % exc, file=sys.stderr)
        return EXIT_THRESHOLD
    except OSError as exc:
        print("io failure: %s" % exc, file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
