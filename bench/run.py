#!/usr/bin/env python3
"""Benchmark for bjorling: CLI latency and surface throughput, per workload.

Usage (from the repository root):

    python3 bench/run.py --workload epi_paper --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35

Each workload is one closed-loop client in one process: it cycles through a
fixed list of two operations, sending the next call only when the previous
one has returned, for ``--seconds`` seconds after one warm-up cycle.  Every
operation has exactly one configuration per workload, so each median belongs
to one configuration.  The CLI operations call ``bjorling.cli.main(argv)``
in process; the library operation calls ``bjorling.schwarz.surface_patch``.

``--trace 0`` reports the end-to-end metrics: ``op1_rel`` and ``op2_rel``,
the median over the run of each call's wall time divided by the mean wall
time of the two runs of a fixed reference kernel that bracket it;
``setup_s``, the median time a fresh interpreter takes to import
``bjorling.cli``; and ``peak_rss_mb``.  The operations are gated on that
ratio, not on seconds, because small shared hosts change speed by up to 40%
for seconds to minutes at a time, which moves the wall-time median of a run
by more than any useful bound; the bracketing reference slows down and
speeds up with the host, so the ratio keeps only the program's cost.  The
wall-time median of every operation is printed and recorded next to it.

``--trace 1`` alternates untraced and traced passes over the same operations
and reports per-layer self times and work counters, with spans recorded at
the public functions of each package module (see tracer.py).

The seed draws lambda for k=2 from [0.45, 0.55], lambda for k=3 from
[0.55, 0.65] and the cycloid delta from [0.08, 0.12]; the program only sees
the resulting CLI arguments.  Every output is checked (exit code, PASS lines,
closed-form oracles, byte identity across repeats); a failed check counts the
operation as failed.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Generated files,
spans and a full record of each run go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

import checks                      # bench/ is sys.path[0] when run as a script
from tracer import LAYER, NAME, OK, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("epi_paper", "generic_strip", "dense_patch")
LAYERS = ("curves", "continuation", "schwarz", "weierstrass", "analysis", "verify",
          "meshing", "cli")
SETUP_PROBES = 9        # fresh-interpreter imports per untraced run
THREAD_PROBES = 3       # workers=1 / workers=2 patch pairs per traced run
RUN_TIMEOUT_S = 600


# -- operations ---------------------------------------------------------------

class Op:
    """One benchmark operation: ``call()`` returns (seconds, result) and
    ``check(result)`` returns failure messages."""

    def __init__(self, name: str, label: str, call, check, points: int = 0):
        self.name = name
        self.label = label
        self.call = call
        self.check = check
        self.points = points    # surface points per call, for a throughput figure
        self.times: list[float] = []
        self.rel: list[float] = []   # each time over the reference time of its cycle

    def run(self) -> list[str]:
        try:
            dt, result = self.call()
        except Exception:  # the loop must go on: record the failure
            return ["%s raised:\n%s" % (self.label, traceback.format_exc())]
        self.times.append(dt)
        try:
            return self.check(result)
        except Exception:
            return ["%s: check raised:\n%s" % (self.label, traceback.format_exc())]


def cli_call(argv):
    from bjorling import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        dt = time.perf_counter() - t0
    return dt, (rc, buf.getvalue())


def cli_op(name: str, argv: list[str]) -> Op:
    """A CLI command whose last output line must report PASS."""
    label = "bjorling " + " ".join(argv)
    return Op(name, label, lambda: cli_call(argv),
              lambda res: checks.pass_line(res[1], res[0], label))


def analysis_op(params: dict) -> Op:
    """table k=2, table k=3, analyze k=2, analyze k=3 back to back: one sample."""
    argvs = [[cmd, "--k", str(k), "--lambda", params["lambda_k%d" % k]]
             for cmd in ("table", "analyze") for k in (2, 3)]

    def call():
        total, results = 0.0, []
        for argv in argvs:
            dt, res = cli_call(argv)
            total += dt
            results.append(res)
        return total, results

    def check(results):
        errors = []
        for argv, (rc, out) in zip(argvs, results):
            errors += checks.pass_line(out, rc, "bjorling " + " ".join(argv))
        return errors

    label = "; ".join("bjorling " + " ".join(a) for a in argvs)
    return Op("analysis", label, call, check)


def generate_op(argv: list[str], xy, domain, catenoid: bool, state: dict) -> Op:
    """`bjorling generate`: oracles on the first output, byte identity after.

    The strip half-width the program chose is kept in ``state`` for the
    thread-path probe."""
    label = "bjorling " + " ".join(argv)
    hashes: dict = {}

    def check(res):
        rc, out = res
        paths, errors = checks.generate_outputs(out, rc, label)
        if errors:
            return errors
        digest = {os.path.basename(p): checks.sha256_file(p) for p in paths}
        if hashes:
            if digest != hashes:
                return ["%s: outputs differ from the first call's bytes" % label]
            return []
        hashes.update(digest)
        from bjorling.meshing import load_obj
        errors = checks.generate_mesh_checks(paths, load_obj, xy, domain, catenoid, label)
        summary = next(p for p in paths if p.endswith("_summary.json"))
        with open(summary) as fh:
            state["halfwidth"] = json.load(fh)["strip_halfwidth_used"]
        return errors

    return Op("generate", label, lambda: cli_call(argv), check)


def patch_op(curve, k: int, lam: float, nt: int, ns: int, halfwidth: float) -> Op:
    """Library surface_patch: planar oracle on the first result, bitwise after."""
    from bjorling import schwarz
    label = "surface_patch epitrochoid k=%d lambda=%g %dx%d |s|<=%.6g" % (
        k, lam, nt, ns, halfwidth)
    first: dict = {}

    def call():
        t0 = time.perf_counter()
        patch = schwarz.surface_patch(curve, curve.domain, (-halfwidth, halfwidth), nt, ns)
        return time.perf_counter() - t0, patch

    def check(patch):
        digest = hashlib.sha256(patch.points.tobytes()).hexdigest()
        if first:
            return [] if digest == first["digest"] else [
                "%s: points differ from the first call's bits" % label]
        first["digest"] = digest
        return checks.planar_oracle(patch.points, patch.t_vals, patch.s_vals,
                                    lambda z: checks.epitrochoid_xy(k, lam, z), label)

    return Op("patch", label, call, check, points=nt * ns)


def draw_params(seed: int) -> dict:
    rng = random.Random(seed)
    return {"lambda_k2": "%.4f" % rng.uniform(0.45, 0.55),
            "lambda_k3": "%.4f" % rng.uniform(0.55, 0.65),
            "delta": "%.4f" % rng.uniform(0.08, 0.12)}


def build_workload(name: str, params: dict, out_dir: str):
    """The workload's two operations and its thread-path probe config.

    The probe is (curve, nt, ns, halfwidth) for the workload's surface patch,
    resolved after the first cycle (the generate workloads take the strip
    half-width their own output reports)."""
    from bjorling.curves import EpitrochoidParams, make_circle, make_epitrochoid
    lam2 = float(params["lambda_k2"])
    epi2 = make_epitrochoid(EpitrochoidParams(k=2, lam=lam2))
    two_pi = 2.0 * math.pi
    state: dict = {}
    if name == "epi_paper":
        # the paper's construction: meshing ~half the pass, zeros in closed form
        ops = [generate_op(["generate", "--curve", "epitrochoid", "--k", "2", "--lambda",
                            params["lambda_k2"], "--nt", "256", "--ns", "33",
                            "--out", out_dir, "--clip"],
                           lambda z: checks.epitrochoid_xy(2, lam2, z), (0.0, two_pi),
                           False, state),
               analysis_op(params)]
        return ops, lambda: (epi2, 256, 33, state["halfwidth"])
    if name == "generic_strip":
        # no closed-form zero set: the damped-Newton scan dominates
        ops = [generate_op(["generate", "--curve", "circle", "--nt", "256", "--ns", "33",
                            "--out", out_dir, "--clip"],
                           checks.circle_xy, (0.0, two_pi), True, state),
               cli_op("verify", ["verify", "--curve", "cycloid", "--delta", params["delta"]])]
        return ops, lambda: (make_circle(), 256, 33, state["halfwidth"])
    if name == "dense_patch":
        # narrow fine strip, quadrature bound; no meshing, no scans
        halfwidth = 0.8 * math.log(3.0 * lam2) / 3.0
        ops = [cli_op("verify", ["verify", "--curve", "epitrochoid", "--k", "2", "--lambda",
                                 params["lambda_k2"], "--nt", "256", "--ns", "129"]),
               patch_op(epi2, 2, lam2, 1024, 129, halfwidth)]
        return ops, lambda: (epi2, 1024, 129, halfwidth)
    raise ValueError("unknown workload %r" % name)


# -- measurement --------------------------------------------------------------

def reference_kernel() -> float:
    """Seconds for a fixed piece of work that does not use the program.

    It mixes the program's hot-path kinds of work (complex trig over a 33x1024
    numpy grid, and a plain Python loop) so that it slows down and speeds up
    with the host the way the operations do."""
    import numpy as np
    t0 = time.perf_counter()
    t = np.linspace(0.0, 2.0 * math.pi, 1024)
    z = t[None, :] + 1j * np.linspace(-0.1, 0.1, 33)[:, None]
    acc = np.zeros_like(z)
    for k in range(1, 5):
        acc += np.cos(k * z) / k + 1j * np.sin(k * z)
    x = 0.0
    for i in range(10000):
        x += (i % 7) * 0.5
    return time.perf_counter() - t0


def setup_probe() -> float:
    """Seconds a fresh interpreter spends importing bjorling.cli."""
    code = ("import sys, time; sys.path.insert(0, %r); t0 = time.perf_counter(); "
            "import bjorling.cli; print(repr(time.perf_counter() - t0))" % SRC)
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def environment(seed: int, params: dict) -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu, "seed": seed, "params": params}


def median(values) -> float:
    return float(statistics.median(values))


class Run:
    """Failure bookkeeping shared by the untraced and traced runs."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def op(self, op: Op) -> None:
        self.attempted += 1
        errors = op.run()
        if errors:
            self.errors.append(errors[0])
            for line in errors:
                print("FAIL " + line, file=sys.stderr)

    @property
    def failed(self) -> int:
        return len(self.errors)


def run_untraced(ops, seconds: float, run: Run):
    """End-to-end metrics, their sample counts, and the wall-time medians under
    the operation names (plus patch throughput) for the printed report."""
    for op in ops:                       # warm-up cycle, checked but not timed
        run.op(op)
        op.times.clear()
    setup: list[float] = []
    refs = [reference_kernel()]
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        for op in ops:
            # every call is bracketed by two reference runs; it is timed against
            # their mean, so a change of host speed moves both alike
            n = len(op.times)
            run.op(op)
            refs.append(reference_kernel())
            op.rel += [t / (0.5 * (refs[-2] + refs[-1])) for t in op.times[n:]]
        now = time.perf_counter()
        # spread the fresh-interpreter imports over the run
        if len(setup) < SETUP_PROBES and now >= start + seconds * len(setup) / SETUP_PROBES:
            setup.append(setup_probe())
        if now >= deadline:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    metrics, samples, named = {}, {}, []
    for i, op in enumerate(ops, 1):
        key = "op%d_rel" % i
        metrics[key] = (median(op.rel), "ratio")
        samples[key] = n = len(op.rel)
        p50 = median(op.times)
        named.append(("%s_p50_s" % op.name, p50, "s", n))
        if op.points:
            named.append(("%s_pts_per_s" % op.name, op.points / p50, "points/s", n))
    metrics["setup_s"] = (median(setup), "s")
    samples["setup_s"] = len(setup)
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    samples["peak_rss_mb"] = 1
    named.append(("reference_kernel_p50_s", median(refs), "s", len(refs)))
    return metrics, samples, named, {"reference_kernel_times_s": refs}


def _bound_arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def make_tracer() -> Tracer:
    import numpy as np
    from bjorling import meshing, schwarz

    def series(tr, args, kwargs, result):
        n = int(np.size(args[1]))
        tr.counters["curves.series_points"] += n
        if tr.open["continuation.singularity_scan"]:
            tr.counters["continuation.scan_points"] += n

    def zeros(tr, args, kwargs, result):
        tr.counters["continuation.zeros_found"] += len(result)

    def patch(tr, args, kwargs, result):
        tr.counters["schwarz.patch_points"] += (
            _bound_arg(schwarz.surface_patch, args, kwargs, "nt")
            * _bound_arg(schwarz.surface_patch, args, kwargs, "ns"))

    def export(fn, faces_of):
        def hook(tr, args, kwargs, result):
            tr.counters["meshing.bytes_written"] += os.path.getsize(
                _bound_arg(fn, args, kwargs, "path"))
            tr.counters["meshing.faces_written"] += faces_of(
                _bound_arg(fn, args, kwargs, "mesh"))
        return hook

    hooks = {
        "curves.TrigPolySeries.__call__": series,
        "continuation.singularity_scan": zeros,
        "schwarz.surface_patch": patch,
        "meshing.export_obj": export(meshing.export_obj, lambda m: len(m.faces)),
        "meshing.export_ply": export(meshing.export_ply,
                                     lambda m: sum(len(f) - 2 for f in m.faces)),
        "meshing.export_csv": export(meshing.export_csv, lambda m: 0),
    }
    return Tracer("bjorling", hooks=hooks, watch=("continuation.singularity_scan",))


# span name -> counter reported as the number of such spans
CALL_COUNTERS = {
    "continuation.singularity_scan": "continuation.scan_calls",
    "continuation.strip_sqrt": "continuation.scalar_sqrt_calls",
    "schwarz.integrate_segment": "schwarz.segment_integrations",
    "analysis.order_estimate": "analysis.order_estimates",
    "meshing.SurfaceMesh.validate": "meshing.validate_calls",
}
SIZE_COUNTERS = ("curves.series_points", "continuation.scan_points",
                 "continuation.zeros_found", "schwarz.patch_points",
                 "meshing.bytes_written", "meshing.faces_written")


def traced_pass(tracer: Tracer, ops, run: Run) -> dict:
    """One pass over the ops with spans on; per-layer figures for that pass."""
    first = len(tracer.spans)
    tracer.counters.clear()
    pass_s = 0.0
    tracer.install()
    try:
        for op in ops:
            tracer.begin_op(op.name)
            n = len(op.times)
            run.op(op)
            pass_s += sum(op.times[n:])
    finally:
        tracer.uninstall()
    spans = tracer.spans[first:]
    out = {"%s.self_s" % layer: 0.0 for layer in LAYERS}
    for layer, t in tracer.self_times(first).items():
        out["%s.self_s" % layer] = t
    attributed = sum(out.values())
    if not abs(attributed - pass_s) <= 0.005 + 0.01 * pass_s:
        run.errors.append("trace: layer self times sum to %.4f s, traced pass took %.4f s"
                          % (attributed, pass_s))
    calls = Counter(s[NAME] for s in spans)
    for span_name, key in CALL_COUNTERS.items():
        out[key] = calls[span_name]
    for key in SIZE_COUNTERS:
        out[key] = tracer.counters[key]
    errors = Counter(s[LAYER] for s in spans if not s[OK])
    for layer in LAYERS:
        out["%s.errors" % layer] = errors[layer]
    out["continuation.scan_s"] = tracer.inclusive_time("continuation.singularity_scan", first)
    out["meshing.export_s"] = sum(tracer.inclusive_time("meshing.export_" + fmt, first)
                                  for fmt in ("obj", "ply", "csv"))
    out["meshing.clip_s"] = tracer.inclusive_time("meshing.clip_halfspace", first)
    out["traced_pass_s"] = pass_s
    return out


def thread_probe(probe, run: Run) -> dict:
    """workers=1 against workers=2 on the workload's patch; points must match bitwise."""
    from bjorling import schwarz
    curve, nt, ns, h = probe()
    first: dict = {}

    def patch_op(workers):
        label = "surface_patch %s %dx%d workers=%d" % (curve.label, nt, ns, workers)

        def call():
            t0 = time.perf_counter()
            patch = schwarz.surface_patch(curve, curve.domain, (-h, h), nt, ns,
                                          workers=workers)
            return time.perf_counter() - t0, patch.points.tobytes()

        def check(bits):
            if first.setdefault("bits", bits) != bits:
                return ["%s: points differ from workers=1" % label]
            return []

        return Op("patch_workers%d" % workers, label, call, check)

    ops = {1: patch_op(1), 2: patch_op(2)}
    for _ in range(THREAD_PROBES):
        for op in ops.values():
            run.op(op)
    return {"schwarz.patch_workers%d_s" % w: median(op.times) for w, op in ops.items()}


def per_layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    return "bytes" if key.endswith("bytes_written") else "count"


def run_traced(ops, probe, seconds: float, run: Run, spans_path: str):
    for op in ops:                       # warm-up cycle, checked but not timed
        run.op(op)
    tracer = make_tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        t = 0.0
        for op in ops:
            n = len(op.times)
            run.op(op)
            t += sum(op.times[n:])
        untraced.append(t)
        traced.append(traced_pass(tracer, ops, run))
    tracer.write_spans(spans_path)
    metrics = {key: median([p[key] for p in traced]) for key in traced[0]}
    metrics["untraced_pass_s"] = median(untraced)
    metrics["trace_overhead_s"] = metrics["traced_pass_s"] - metrics["untraced_pass_s"]
    metrics.update(thread_probe(probe, run))
    out = {}
    for key, value in sorted(metrics.items()):
        unit = per_layer_unit(key)
        out[key] = (value if unit == "s" else int(round(value)), unit)
    return out, {}, [], {"passes": len(traced)}


# -- entry points -------------------------------------------------------------

def run_workload(args) -> int:
    os.environ.pop("BJORLING_THREADS", None)   # workers come only from arguments
    sys.path.insert(0, SRC)
    import bjorling.cli  # noqa: F401  (fails early when the sources are missing)

    params = draw_params(args.seed)
    os.makedirs(OUT, exist_ok=True)
    out_dir = os.path.join(OUT, args.workload)
    ops, probe = build_workload(args.workload, params, out_dir)
    run = Run()
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        metrics, samples, named, extra = run_traced(ops, probe, args.seconds, run,
                                                    os.path.join(OUT, "spans-%s.tsv" % tag))
    else:
        metrics, samples, named, extra = run_untraced(ops, args.seconds, run)
    fail_frac = run.failed / run.attempted

    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "env": environment(args.seed, params),
              "ops": [{"slot": "op%d" % i, "name": op.name, "call": op.label,
                       "samples": len(op.times), "times_s": op.times, "rel": op.rel}
                     for i, op in enumerate(ops, 1)],
              "samples": samples, "attempted": run.attempted, "failed": run.failed,
              "fail_frac": fail_frac, "errors": run.errors, **extra,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT, "result-%s.json" % tag), "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    env = record["env"]
    print("workload %s seed %d %s" % (args.workload, args.seed, json.dumps(params)))
    print("python %s numpy %s nproc %s cpu %s" % (env["python"], env["numpy"], env["nproc"],
                                                  env["cpu_model"]))
    for op in record["ops"]:
        print("%s = %s (%d samples): %s" % (op["slot"], op["name"], op["samples"], op["call"]))
    for key, (value, unit) in metrics.items():
        n = samples.get(key)
        print("%-34s %14.6g %-6s%s" % (key, value, unit, "" if n is None else " n=%d" % n))
    for key, value, unit, n in named:
        print("  as %-31s %14.6g %-8s n=%d" % (key, value, unit, n))
    print("%-34s %14.6g %-6s n=%d" % ("fail_frac", fail_frac, "ratio", run.attempted))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload untraced, then every workload traced, each in a fresh process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace in (0, 1):
        for workload in WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout)
                print("workload %s trace %d exited with %d" % (workload, trace,
                                                               proc.returncode))
                return 1
            print("\n".join(lines[:-1]))
            print()
            result = json.loads(lines[-1])
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                total["metrics"]["%s.%s" % (workload, key)] = metric
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bjorling", "cli.py")):
        print("bjorling sources not found under %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
