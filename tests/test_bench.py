"""Smoke run of the benchmark harness, so a rename of anything it binds fails here."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _traced_smoke(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_bench_epi_paper_traced_smoke():
    _traced_smoke("epi_paper")


def test_bench_generic_strip_traced_smoke():
    # the workload whose curves have no closed-form zeros, so the scan runs
    _traced_smoke("generic_strip")


def test_bench_dense_patch_traced_smoke():
    # the workload that runs the 1024x129 library patch and its thread probe
    _traced_smoke("dense_patch")
