"""Command-line front end: mesh generation, degeneration analysis, patch
verification, and zero/pole table reproduction.

``cmd_verify``, ``cmd_table`` and ``cmd_analyze`` only check their arguments
and print: the window, residuals, thresholds and pass/fail list are
``verify``'s, the expected orders and the witness's pass condition
``analysis``'s, the half-width ``Strip``'s.

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

from . import analysis, meshing, verify
from .continuation import SingularityOnPath, find_strip, velocity
from .curves import InvalidCurveParameters, curve_from_config
from .schwarz import QuadratureFailure, StripTooWide, period_residual, surface_patch

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_BAD_PARAMS = 2
EXIT_IO = 3


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


def cmd_generate(args) -> int:
    _check_patch_args(args)
    curve = _build_curve(args)
    strip = find_strip(curve)
    halfwidth = strip.halfwidth(args.s_fraction)
    patch = surface_patch(curve, curve.domain, (-halfwidth, halfwidth), args.nt, args.ns,
                          strip=strip)
    # min speed^2 over the patch's t-values at s = 0: positive, as find_strip certified
    margin = float(np.min(velocity(curve, patch.t_vals, 0.0)[2].real))
    mesh = meshing.sample_mesh(patch)
    del patch  # the mesh holds copies: free the patch before the clip and the exports
    os.makedirs(args.out, exist_ok=True)
    slug = _slug(curve)
    obj_path = os.path.join(args.out, slug + ".obj")
    ply_path = os.path.join(args.out, slug + ".ply")
    # the half-cut's vertices are mostly the mesh's own, and a symmetric
    # patch's lower rows mirror its upper ones: one cell table serves both OBJs
    half = meshing.clip_halfspace(mesh, (0.0, 0.0, 1.0), 0.0) if args.clip else None
    cells = meshing.vertex_cells(*(m.vertices for m in (mesh, half) if m is not None))
    meshing.export_obj(mesh, obj_path, cells[0])
    meshing.export_ply(mesh, ply_path)
    outputs = [obj_path, ply_path]
    if half is not None:
        half_path = os.path.join(args.out, slug + "_halfcut.obj")
        meshing.export_obj(half, half_path, cells[1])
        outputs.append(half_path)
    summary = {
        "curve": curve.label,
        "strip_halfwidth_used": halfwidth,
        "strip_distance_to_singularity": (strip.distance if math.isfinite(strip.distance)
                                          else None),
        "regularity_margin": margin,
        "nt": args.nt,
        "ns": args.ns,
        "outputs": [os.path.basename(p) for p in outputs],
    }
    if curve.closed:
        summary["period_residual"] = float(np.max(np.abs(period_residual(curve))))
    summary_path = os.path.join(args.out, slug + "_summary.json")
    _write_json(summary, summary_path, args.timestamp)
    print("wrote %s" % ", ".join(outputs + [summary_path]))
    return EXIT_OK


def cmd_table(args) -> int:
    table = analysis.order_table(analysis.v_model(args.k, args.lam))
    for row, want_g, want_eta, passed in table.checks():
        eta_note = ("%+d (informational)" % row.eta_order if want_eta is None
                    else "%+d (expect %+d)" % (row.eta_order, want_eta))
        print("%-22s g %+d (expect %+d)   eta %s   %s"
              % (row.point, row.g_order, want_g, eta_note, "PASS" if passed else "FAIL"))
    if args.json:
        _write_json(table.to_json_dict(), args.json, args.timestamp)
    failed = table.failures()
    print("table k=%d lambda=%g: %s" % (args.k, args.lam, "FAIL" if failed else "PASS"))
    return EXIT_THRESHOLD if failed else EXIT_OK


def cmd_analyze(args) -> int:
    model = analysis.v_model(args.k, args.lam)
    report = analysis.obstruction_report(model)
    if args.json:
        _write_json(report.to_json_dict(), args.json, args.timestamp)
    print("degeneracy points: %d  (radii %.6f, %.6f)"
          % (len(report.points), model.a ** (1.0 / (model.k + 1)),
             model.a ** (-1.0 / (model.k + 1))))
    print("max metric density at degeneracy points: %.3e"
          % np.max(report.density_at_points))
    print("vanishing exponents: %s" % ", ".join(
        "%d" % e for e in report.vanishing_exponents))
    print("intrinsic distance to nearest degeneration: %.9f"
          % report.intrinsic_distance)
    if not report.passed():
        print("FAIL: degeneration witness out of tolerance")
        return EXIT_THRESHOLD
    print("PASS")
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_patch_args(args)
    if args.nt < 3:
        raise InvalidCurveParameters("verify's stencils need an interior column: --nt >= 3")
    report = verify.verify_curve(_build_curve(args), args.nt, args.ns, args.s_fraction)
    if args.json:
        _write_json(report.to_json_dict(), args.json, args.timestamp)
    for name, value, bound, passed in report.checks():
        print("%-24s %.3e  (< %.0e)  %s" % (name, value, bound, "PASS" if passed else "FAIL"))
    failed = report.failed()
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
    except (InvalidCurveParameters, StripTooWide, SingularityOnPath) as exc:
        print("invalid parameters: %s" % exc, file=sys.stderr)
        return EXIT_BAD_PARAMS
    except analysis.NonConvergent as exc:
        print("order count failed: %s" % exc, file=sys.stderr)
        return EXIT_THRESHOLD
    except QuadratureFailure as exc:
        print("quadrature failed: %s" % exc, file=sys.stderr)
        return EXIT_THRESHOLD
    except verify.DegenerateMetric as exc:  # verify's stencils at a vanishing speed
        print("verification failed: %s" % exc, file=sys.stderr)
        return EXIT_THRESHOLD
    except MemoryError as exc:  # a grid of --nt x --ns too large to allocate
        print("invalid parameters: %s x %s grid points (--nt x --ns) do not fit in memory: %s"
              % (getattr(args, "nt", "-"), getattr(args, "ns", "-"), exc), file=sys.stderr)
        return EXIT_BAD_PARAMS
    except OSError as exc:
        print("io failure: %s" % exc, file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
