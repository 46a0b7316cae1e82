import argparse
import concurrent.futures
import dataclasses
import hashlib
import json
import math
import os
import threading

import numpy as np
import pytest

from bjorling import analysis, cli, continuation, meshing, schwarz, verify
from bjorling.cli import main
from bjorling.continuation import find_strip
from bjorling.meshing import export_csv, sample_mesh
from bjorling.schwarz import surface_patch

from conftest import epi


def test_generate_circle(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["generate", "--curve", "circle", "--nt", "24", "--ns", "7",
                 "--out", str(out)])
    assert code == 0
    assert (out / "circle.obj").exists()
    assert (out / "circle.ply").exists()
    summary = json.loads((out / "circle_summary.json").read_text())
    assert summary["curve"] == "circle"
    assert summary["period_residual"] < 1e-10
    assert summary["strip_distance_to_singularity"] is None
    assert abs(summary["strip_halfwidth_used"] - 1.0) < 1e-12


@pytest.mark.parametrize("argv,expect", [
    (["--curve", "epitrochoid", "--k", "2", "--lambda", "0.5", "--nt", "24", "--ns", "7"], {
        "epitrochoid_k2_lam0p5.obj":
            "f32995f98afdfff190158d73273c5e52f405e51ed96a6d56036a09f038b27fce",
        "epitrochoid_k2_lam0p5.ply":
            "4e57cc2503791d89b2583c407df41d58b45ffe46598ce280a9e5c5a6050fa303",
        "epitrochoid_k2_lam0p5_halfcut.obj":
            "624f1814e4bf2fb1bc0c21d801bc7e82c6d7e8b37ec93059ae24df56f9c9eb2d",
    }),
    (["--curve", "cycloid", "--nt", "32", "--ns", "9"], {
        "cycloid.obj": "68775f5ad568fae3cbda82520608ec7ec48307016eaea6f90335a9a8b8a22b23",
        "cycloid.ply": "48e1e465778dc04a0d8fe787cc46016471f436e904130430752d895a8036af42",
        "cycloid_halfcut.obj":
            "6622f9811131e373cab49e7754ae71f96b67bbc037e13be77d4395daadaccb5c",
    }),
])
def test_generate_output_bytes_pinned(argv, expect, tmp_path):
    # SHA-256 of the exported meshes: any change to the surface values or to
    # the OBJ/PLY writers that moves a byte fails here
    out = tmp_path / "run"
    assert main(["generate"] + argv + ["--clip", "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in expect}
    assert got == expect


@pytest.mark.parametrize("argv,expect", [
    (["--curve", "epitrochoid", "--k", "2", "--lambda", "0.5", "--nt", "24", "--ns", "7"],
     {"epitrochoid_k2_lam0p5_summary.json":
          "3b9c2be636874cfea8f097f24f13688b0ffc6fc41de56daa98908c6cab99bd5c"}),
    (["--curve", "cycloid", "--nt", "32", "--ns", "9"],
     {"cycloid_summary.json": "95c3faef6e50332124337b10bde1a23fb8c9be69eae51451d38c72260f171f4c"}),
])
def test_generate_summary_bytes_pinned(argv, expect, tmp_path):
    # SHA-256 of the run summary of test_generate_output_bytes_pinned's cases: the
    # strip half-width, the distance, the margin and the period residual
    out = tmp_path / "run"
    assert main(["generate"] + argv + ["--clip", "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in expect}
    assert got == expect


@pytest.mark.parametrize("argv,stdout,payload", [
    (["--curve", "cycloid", "--delta", "0.1"],
     "e83b2aa85d055371bcb154fc6d50495424889077f04006bf37508015265b2fd0",
     "f11f03151e18e69664d85abb80f2c406a77f665a65b6547afb197a7d49401db0"),
    (["--curve", "epitrochoid", "--k", "2", "--lambda", "0.4634", "--nt", "256", "--ns", "129"],
     "a266cce3575c40ead0e3b95980979e842e6f05bf8026e604d149a5ca00397cbf",
     "1db78bda9b2d4c4d0659eed5f66e195ffbb480f40696cd2ecba0b94d36f707d9"),
    (["--curve", "circle", "--nt", "128", "--ns", "17"],
     "1c7ddacdd3f0bce95676428af49831bc53b77aaf874d5b4306eff847fb628a81",
     "2673c46dace03ebfdcadc11c2e336d6bbcdf502e21b12009f1f29c4a52bc5f0a"),
    (["--curve", "parabola"],
     "98fb49dc72204d3e89b6cfc79a022505cf8cd44a8e34365d9af6f47a297366e1",
     "9fcda89ad6e93631ca4e58a54db66067a16180aad32f203ac6886267fc7fff04"),
])
def test_verify_output_bytes_pinned(argv, stdout, payload, tmp_path, capsys):
    # SHA-256 of verify's stdout and of its --json file: any change to a residual, a
    # threshold, the window or the report's layout fails here
    path = tmp_path / "v.json"
    assert main(["verify"] + argv + ["--json", str(path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout
    assert hashlib.sha256(path.read_bytes()).hexdigest() == payload


def test_csv_output_bytes_pinned(tmp_path):
    # SHA-256 of the CSV export of the epi(2, 0.5) 24x7 patch at the full cap
    curve = epi(2, 0.5)
    h = find_strip(curve).cap
    export_csv(sample_mesh(surface_patch(curve, curve.domain, (-h, h), 24, 7)), tmp_path / "m.csv")
    assert (hashlib.sha256((tmp_path / "m.csv").read_bytes()).hexdigest()
            == "d8a6796678edae0e9a2bbcfe1ff6c4c8422692a6f830f04e9098f848321efa0f")


def test_cli_starts_no_thread(tmp_path, monkeypatch, capsys):
    # the CLI is serial: a worker count of 2 would put the two column blocks of these
    # patches on threads
    def no_threads(*args, **kwargs):
        raise AssertionError("the CLI started a thread")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_threads)
    monkeypatch.setattr(threading.Thread, "start", no_threads)
    curve = ["--curve", "epitrochoid", "--k", "2", "--lambda", "0.5", "--nt", "24"]
    assert main(["generate"] + curve + ["--ns", "7", "--clip", "--out", str(tmp_path)]) == 0
    assert main(["verify"] + curve + ["--ns", "33"]) == 0


@pytest.mark.parametrize("command", ["generate", "verify"])
@pytest.mark.parametrize("curve", ["circle", "cycloid"])
def test_one_zero_scan_per_command(command, curve, tmp_path, monkeypatch, capsys):
    calls = [0]
    scan = continuation.singularity_scan

    def counting_scan(*args, **kwargs):
        calls[0] += 1
        return scan(*args, **kwargs)

    monkeypatch.setattr(continuation, "singularity_scan", counting_scan)
    argv = [command, "--curve", curve, "--nt", "32", "--ns", "9"]
    if command == "generate":
        argv += ["--out", str(tmp_path / "x")]
    assert main(argv) == 0
    assert calls[0] == 1


def test_one_validation_per_built_mesh(tmp_path, monkeypatch, capsys):
    # generate --clip builds two meshes, the patch mesh and its half-cut; each
    # is validated once when built and never again by the writers
    calls = [0]
    validate = meshing.SurfaceMesh.validate

    def counting_validate(self):
        calls[0] += 1
        return validate(self)

    monkeypatch.setattr(meshing.SurfaceMesh, "validate", counting_validate)
    assert main(["generate", "--curve", "epitrochoid", "--k", "2", "--lambda", "0.5",
                 "--nt", "24", "--ns", "7", "--clip", "--out", str(tmp_path / "x")]) == 0
    assert calls[0] == 2


def test_generate_formats_each_distinct_value_once(tmp_path, monkeypatch):
    # the pinned epi(2, 0.5) 24x7 --clip case: one cell table for the mesh and
    # its half-cut, and one % call on the distinct |v| alone.  The half-cut's
    # shared vertices and the patch's mirrored rows keep that under half of
    # the values: the rows with s < 0 share their f1, f2 cells with their
    # mirror rows and their f3 cells differ only in the sign byte, so a patch
    # that stops being its own mirror fails here
    calls, formatted = [], []
    vertex_cells, cell_text = meshing.vertex_cells, meshing._cell_text

    def recording(*tables):
        cells = vertex_cells(*tables)
        calls.append((tables, cells))
        return cells

    def recording_text(values):
        formatted.append(values)
        return cell_text(values)

    monkeypatch.setattr(meshing, "vertex_cells", recording)
    monkeypatch.setattr(meshing, "_cell_text", recording_text)
    assert main(["generate", "--curve", "epitrochoid", "--k", "2", "--lambda", "0.5",
                 "--nt", "24", "--ns", "7", "--clip", "--out", str(tmp_path / "x")]) == 0
    (tables, cells), = calls
    assert len(tables) == 2 and tables[0].shape == (24 * 7, 3)
    assert 0 < len(tables[1]) < 24 * 7
    values = np.concatenate([t.reshape(-1) for t in tables])
    (texted,) = formatted
    assert sorted(np.array(texted).view(np.int64).tolist()) == sorted(
        set(np.abs(values).view(np.int64).tolist()))
    assert 2 * len(texted) < len(values)
    for table, cell in zip(tables, cells):
        assert [bytes(c[c != 0]).decode() for c in cell] == [
            meshing.FLOAT_FMT % v for v in table.reshape(-1).tolist()]
    grid = cells[0].reshape(7, 24, 3, meshing.CELL)
    for row in range(3):
        assert np.array_equal(grid[row, :, :2], grid[6 - row, :, :2])
        assert np.array_equal(grid[row, :, 2, 1:], grid[6 - row, :, 2, 1:])
        assert np.all(grid[row, :, 2, 0] != grid[6 - row, :, 2, 0])


def test_generate_epitrochoid_with_clip(tmp_path):
    out = tmp_path / "epi"
    code = main(["generate", "--curve", "epitrochoid", "--k", "2",
                 "--lambda", "0.5", "--nt", "48", "--ns", "9",
                 "--out", str(out), "--clip"])
    assert code == 0
    summary = json.loads((out / "epitrochoid_k2_lam0p5_summary.json").read_text())
    assert abs(summary["strip_halfwidth_used"] - 0.9 * 0.13515503603605478) < 1e-9
    # min speed^2 on the patch's t-values at s = 0, where t = 0 gives (k+2)^2 (1 - a)^2
    assert summary["regularity_margin"] == 4.0
    assert (out / "epitrochoid_k2_lam0p5_halfcut.obj").exists()


def test_generate_rejects_cusped_parameters(tmp_path, capsys):
    code = main(["generate", "--curve", "epitrochoid", "--k", "2",
                 "--lambda", str(1.0 / 3.0), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "lambda" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # past the 0.9 strip cap: StripTooWide
    ["generate", "--curve", "epitrochoid", "--k", "2", "--lambda", "0.5",
     "--s-fraction", "0.95"],
    ["generate", "--curve", "cycloid", "--s-fraction", "1.0"],
    # grids need two nodes per direction
    ["generate", "--curve", "circle", "--nt", "1"],
    ["verify", "--curve", "circle", "--nt", "1"],
    # verify's stencils need an interior column
    ["verify", "--curve", "circle", "--nt", "2"],
    ["verify", "--curve", "circle", "--nt", "2", "--ns", "9"],
    # the window probe's h^2 underflows: hs on the circle, ht on the parabola
    ["verify", "--curve", "circle", "--s-fraction", "1e-300"],
    ["verify", "--curve", "parabola", "--half-width", "1e-300"],
    # speed^2 = 1 + 4 t^2 overflows (1e200); the probe's error constant is inf (1e-155)
    ["generate", "--curve", "parabola", "--half-width", "1e200"],
    ["verify", "--curve", "parabola", "--half-width", "1e200"],
    ["verify", "--curve", "parabola", "--half-width", "1e-155"],
    # the patch leaves float range: W is not finite on the columns
    ["generate", "--curve", "epitrochoid", "--k", "1", "--lambda", "1e300"],
    ["generate", "--curve", "epitrochoid", "--k", "1", "--lambda", "1e-300"],
    ["verify", "--curve", "epitrochoid", "--k", "1", "--lambda", "1e200"],
])
def test_bad_input_exits_with_bad_params(argv, tmp_path, capsys):
    if argv[0] == "generate":
        argv = argv + ["--out", str(tmp_path / "x")]
    assert main(argv) == 2
    assert "invalid parameters" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("config,flags", [
    ('{"type": "epitrochoid", "k": 2.7, "lambda": 0.5}', None),
    ('{"type": "epitrochoid", "k": true, "lambda": 0.3}', None),
    ('{"type": "epitrochoid", "k": 2, "lambda": null}', None),
    ('{"type": "epitrochoid", "k": 2, "lambda": Infinity}', None),
    ('{"type": "cycloid", "delta": "abc"}', None),
    ('{"type": "parabola", "half_width": [1]}', None),
    ('3', None),
    ('not json {', None),
    (None, ["generate", "--curve", "epitrochoid", "--k", "2", "--lambda", "inf"]),
    (None, ["generate", "--curve", "parabola", "--half-width", "inf"]),
    (None, ["verify", "--curve", "epitrochoid", "--k", "2", "--lambda", "inf"]),
    (None, ["table", "--k", "2", "--lambda", "inf"]),
    (None, ["analyze", "--k", "2", "--lambda", "inf"]),
    # integers too large for a float
    pytest.param('{"type": "cycloid", "delta": 1%s}' % ("0" * 400), None, id="delta-1e400"),
    pytest.param('{"type": "epitrochoid", "k": 1%s, "lambda": 0.5}' % ("0" * 400), None,
                 id="k-1e400"),
    pytest.param(None, ["table", "--k", "1" + "0" * 400, "--lambda", "0.5"], id="table-k-1e400"),
    # models whose order-table loops leave float range
    (None, ["table", "--k", "2", "--lambda", "1e200"]),
    (None, ["analyze", "--k", "2", "--lambda", "1e200"]),
    (None, ["analyze", "--k", "2", "--lambda", "1e-200"]),
    # the smallest k past the supported range at a = 0.61
    (None, ["table", "--k", "149", "--lambda", repr(0.61 / 150)]),
])
def test_bad_curve_input_exits_2_and_writes_nothing(config, flags, tmp_path, capsys):
    # config files and --curve flags go through the one validator in curve_from_config
    out = tmp_path / "out"
    if config is not None:
        (tmp_path / "curve.json").write_text(config)
        flags = ["generate", "--config", str(tmp_path / "curve.json")]
    argv = flags + (["--out", str(out)] if flags[0] == "generate" else ["--json", str(out)])
    assert main(argv) == 2
    assert "invalid parameters" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == (["curve.json"] if config else [])


@pytest.mark.parametrize("fraction", ["0", "-0.5", "1.5"])
@pytest.mark.parametrize("curve", [["--curve", "circle"],
                                   ["--curve", "epitrochoid", "--k", "2", "--lambda", "0.5"]])
def test_verify_rejects_s_fraction_outside_unit_interval(curve, fraction, capsys):
    assert main(["verify"] + curve + ["--nt", "16", "--ns", "5", "--s-fraction", fraction]) == 2
    err = capsys.readouterr().err
    assert "invalid parameters" in err and "--s-fraction" in err


def test_generate_io_failure(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    code = main(["generate", "--curve", "circle", "--nt", "8", "--ns", "3",
                 "--out", str(target)])
    assert code == 3


def test_generate_from_config_file(tmp_path):
    cfg = tmp_path / "curve.json"
    cfg.write_text(json.dumps({"type": "epitrochoid", "k": 3, "lambda": 0.6}))
    out = tmp_path / "cfg_run"
    code = main(["generate", "--config", str(cfg), "--nt", "24", "--ns", "5",
                 "--out", str(out)])
    assert code == 0
    assert (out / "epitrochoid_k3_lam0p6.obj").exists()


@pytest.mark.parametrize("k,lam,extra", [(2, 0.5, 0), (3, 0.6, 1), (4, 0.4, 0)])
def test_table_pass(k, lam, extra, capsys, tmp_path):
    json_path = tmp_path / "table.json"
    code = main(["table", "--k", str(k), "--lambda", str(lam),
                 "--json", str(json_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    payload = json.loads(json_path.read_text())
    assert payload["k"] == k
    assert len(payload["rows"]) == 4
    assert sum(r["flagged"] for r in payload["rows"]) == extra


def test_table_rejects_bad_lambda(capsys):
    assert main(["table", "--k", "2", "--lambda", str(1.0 / 3.0)]) == 2


def test_table_fails_when_one_order_moves(monkeypatch, capsys):
    table = analysis.order_table(analysis.v_model(2, 0.5))
    row = table.rows[1]
    moved = dataclasses.replace(table, rows=(table.rows[0], dataclasses.replace(
        row, g_order=row.g_order + 1)) + table.rows[2:])
    monkeypatch.setattr(analysis, "order_table", lambda model: moved)
    assert main(["table", "--k", "2", "--lambda", "0.5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.endswith("FAIL") for line in lines] == [False, True, False, False, True]
    assert lines[1].startswith("(a^(1/(k+1)),0)        g +0 (expect -1)")
    assert lines[-1] == "table k=2 lambda=0.5: FAIL"


def test_table_nonconvergent_exits_1_without_traceback(monkeypatch, capsys):
    def fail(model):
        raise analysis.NonConvergent("square not finite and nonzero on the loop")

    monkeypatch.setattr(analysis, "order_table", fail)
    assert main(["table", "--k", "2", "--lambda", "0.5"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "square not finite" in err


def test_generate_quadrature_failure_exits_1_without_traceback(capsys, tmp_path, monkeypatch):
    # no column converges on the first Chebyshev grid, and none may double:
    # nothing is written
    monkeypatch.setattr(schwarz, "CC_MAX_N", 32)
    out = tmp_path / "out"
    assert main(["generate", "--curve", "epitrochoid", "--k", "2", "--lambda", "0.5",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("quadrature failed: ") and err.endswith(" 33 points\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "verify"])
def test_singularity_on_path_exits_2_without_traceback(command, capsys, tmp_path, monkeypatch):
    def on_path(*args, **kwargs):
        raise continuation.SingularityOnPath("the vertical path to 1 passes the speed^2 zero")

    # generate builds its patch in cli, verify in verify
    monkeypatch.setattr(cli if command == "generate" else verify, "surface_patch", on_path)
    out = tmp_path / "out"
    argv = [command, "--curve", "epitrochoid", "--k", "2", "--lambda", "0.5"]
    assert main(argv + (["--out", str(out)] if command == "generate" else [])) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("invalid parameters: the vertical path")
    assert not out.exists()


@pytest.mark.parametrize("delta", ["0.009", "1e-3"])
def test_cycloid_beside_a_real_zero_generates_and_verifies(delta, tmp_path, capsys):
    # the cusp at t = 0 is a real zero delta before the window: no column reaches it
    curve = ["--curve", "cycloid", "--delta", delta]
    assert main(["generate", *curve, "--out", str(tmp_path / "out")]) == 0
    assert main(["verify", *curve]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


@pytest.mark.parametrize("curve", [["--curve", "cycloid", "--delta", "1e-12"],
                                   ["--curve", "epitrochoid", "--k", "2",
                                    "--lambda", "0.33333333333400003"]])
def test_s_fraction_one_past_a_tiny_cap_exits_2_naming_the_cap(curve, tmp_path, capsys):
    # the cap's slack is relative: at a distance near 1e-12 an absolute 1e-12
    # let --s-fraction 1.0 pass the 0.9 cap
    out = tmp_path / "out"
    assert main(["generate", *curve, "--s-fraction", "1.0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exceeds the usable strip half-width" in err
    assert not out.exists()


def test_degenerate_metric_exits_1_without_traceback(capsys):
    # at delta = 1e-5 the speed near the ends is 1e-5, and EG - F^2 falls below
    # verify's absolute floor: a one-line failure, not a traceback
    assert main(["verify", "--curve", "cycloid", "--delta", "1e-5"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("verification failed: EG - F^2 = ")


@pytest.mark.parametrize("command", ["generate", "verify"])
def test_grid_too_large_for_memory_exits_2_without_traceback(command, capsys, tmp_path,
                                                              monkeypatch):
    # what numpy raises for --nt 100000000000, without allocating anything
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)")

    monkeypatch.setattr(cli if command == "generate" else verify, "surface_patch", no_memory)
    out = tmp_path / "out"
    argv = [command, "--curve", "circle", "--nt", "100000000000", "--ns", "33"]
    assert main(argv + (["--out", str(out)] if command == "generate" else [])) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("invalid parameters: 100000000000 x 33 grid points (--nt x --ns) "
                          "do not fit in memory: Unable to allocate 745. GiB")
    assert not out.exists()


@pytest.mark.parametrize("lam", ["500", "5000", "500000"])
def test_verify_passes_k1_at_large_lambda(lam, capsys):
    # the symmetry residual is relative to |Phi|, which grows like 3 lambda
    assert main(["verify", "--curve", "epitrochoid", "--k", "1", "--lambda", lam]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_generate_far_from_the_cusp_raises_no_warning(tmp_path, capsys):
    # a = 1e6: speed^2 = P Q stays finite and accurate up to the cap
    out = tmp_path / "out"
    assert main(["generate", "--curve", "epitrochoid", "--k", "1", "--lambda", "5e5",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("k,a", [(1, 10.0), (2, 10.0), (3, 10.0), (6, 5.0)])
def test_verify_passes_where_the_absolute_null_check_failed(k, a, capsys):
    # the null residual is relative to sum |phi_i|^2: with speed^2 exact, an
    # absolute one read its own rounding, eps |Phi|^2, and failed these surfaces
    assert main(["verify", "--curve", "epitrochoid", "--k", str(k),
                 "--lambda", repr(a / (k + 1))]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


def test_analyze(capsys, tmp_path):
    json_path = tmp_path / "degen.json"
    code = main(["analyze", "--k", "2", "--lambda", "0.5", "--json", str(json_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "degeneracy points: 6" in out
    assert "PASS" in out
    payload = json.loads(json_path.read_text())
    assert payload["genus"] == 3
    assert payload["vanishing_order"] == 2


def test_analyze_large_lambda(capsys):
    code = main(["analyze", "--k", "2", "--lambda", "2.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "1.817121" in out  # 6^(1/3)


@pytest.mark.parametrize("k,lam", [
    # a^(1/(k+1)) or a^(-1/(k+1)) below 1e-12
    ("2", "1e-40"), ("3", "1e-60"), ("2", "1e-100"), ("2", "1e40"),
    # small a: the inner roots lie within 0.1 of the origin
    ("2", "1e-4"), ("8", "1e-10"),
])
def test_analyze_extreme_a(k, lam, capsys):
    assert main(["analyze", "--k", k, "--lambda", lam]) == 0
    out = capsys.readouterr().out
    assert "vanishing exponents: 2, 2," in out
    assert out.strip().endswith("PASS")


def test_analyze_passes_wherever_table_does(capsys):
    # every k up to 12 at a = 1.3 * 10^d, d = -45..45: analyze shares table's loops
    failures = []
    for k in range(1, 13):
        for d in range(-45, 46, 9):
            argv = ["--k", str(k), "--lambda", repr(1.3 * 10.0**d / (k + 1))]
            if main(["table"] + argv) == 0 and main(["analyze"] + argv) != 0:
                failures.append((k, d))
    capsys.readouterr()
    assert failures == []


@pytest.mark.parametrize("point", [0, 3])  # on the a-family and on the 1/a-family
def test_analyze_fails_when_one_eta_order_drops(point, monkeypatch, tmp_path, capsys):
    # one eta order one lower makes that point's exponent 2 (ord eta - 2) or 2 ord eta
    # zero: analyze FAILs, and that point's density reads nan in the JSON
    loop_orders = analysis._loop_orders

    def shifted(*args):
        orders = loop_orders(*args)
        orders[1, point] -= 1
        return orders

    monkeypatch.setattr(analysis, "_loop_orders", shifted)
    path = tmp_path / "analyze.json"
    assert main(["analyze", "--k", "2", "--lambda", "0.5", "--json", str(path)]) == 1
    assert "FAIL: degeneration witness out of tolerance" in capsys.readouterr().out
    density = json.loads(path.read_text())["density_at_points"]
    assert [math.isnan(x) for x in density] == [i == point for i in range(6)]
    assert all(x == 0.0 for i, x in enumerate(density) if i != point)


@pytest.mark.parametrize("distance", [math.inf, math.nan, 0.0])
def test_analyze_fails_without_a_finite_positive_distance(distance, monkeypatch, capsys):
    monkeypatch.setattr(analysis, "intrinsic_distance", lambda model: distance)
    assert main(["analyze", "--k", "2", "--lambda", "0.5"]) == 1
    assert capsys.readouterr().out.strip().endswith(
        "FAIL: degeneration witness out of tolerance")


@pytest.mark.parametrize("k,lam,expect", [
    ("2", "0.5", {
        "table": "b5122b7abf9450376132809d5d24ef1fdc18c9ea271abeb32a9a79a804831206",
        "analyze": "4f88340e3272f5d16f87ab8593ea50da9d01436f8590d282853adca5736e5ae3"}),
    ("3", "0.6", {
        "table": "ef9a798e69e1dd7ce29a5d2063f9b694e5c5f658ffde0a4797457971b92d39cd",
        "analyze": "190bdbe0176f2d527010accfd14f41b06282e58c3812a6745d2c22ebd8e1257d"}),
    ("1", "0.6", {
        "table": "415d294825c71573f3ac3a9f7b7d118624e29af13759185930266b4bc22ee7d7",
        "analyze": "885195210e87f639ae9b0a77bb32bc4be4599c37cc9ce966d8d38c1b4810bd8d"}),
    ("4", "0.4", {
        "table": "a450af3b71638e0fa05faf0e4f8baeeef8109e3fa5f8898666df2482fba56dcc",
        "analyze": "f14739cbd15217bc32edd2de05d0f4d6011698e92e9759ea8b630bacabc77eee"}),
    # a = 1.3e40 and a = 1.3e-40: a >> 1 and a << 1
    ("2", "4.3333333333333334e+39", {
        "table": "e97f341a96ed2ead1f8134d8a107fb1c4c0c2c87d3b1d1d0715ae21da2e7668a",
        "analyze": "af71b2b91bea649dad118c4f4aac6c2ded67e77101b9b11b180bf2beb7420b67"}),
    ("2", "4.3333333333333337e-41", {
        "table": "ee232cf5ed5e6d631a3d63d59384be909e4b85a646a7aca69cfbaf0c90f5b088",
        "analyze": "f6126976f9f3fdc9f7756bd7dd53bae7778b6328e87b3481e6579f929445d79a"}),
])
def test_analysis_json_bytes_pinned(k, lam, expect, tmp_path, capsys):
    # SHA-256 of the `table --json` and `analyze --json` files: any change to an
    # estimated order, a density, a vanishing exponent or the distance fails here
    got = {}
    for command in expect:
        path = tmp_path / (command + ".json")
        assert main([command, "--k", k, "--lambda", lam, "--json", str(path)]) == 0
        got[command] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == expect


def test_verify_circle(capsys, tmp_path):
    code = main(["verify", "--curve", "circle", "--nt", "128", "--ns", "17",
                 "--json", str(tmp_path / "v.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().endswith("PASS")
    payload = json.loads((tmp_path / "v.json").read_text())
    assert payload["max_mean_curvature"] < 1e-3


def test_cli_outputs_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    argv = ["generate", "--curve", "epitrochoid", "--k", "2", "--lambda", "0.5",
            "--nt", "32", "--ns", "7", "--clip"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    for name in ["epitrochoid_k2_lam0p5.obj", "epitrochoid_k2_lam0p5.ply",
                 "epitrochoid_k2_lam0p5_halfcut.obj",
                 "epitrochoid_k2_lam0p5_summary.json"]:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_timestamp_only_behind_flag(tmp_path):
    out = tmp_path / "ts"
    main(["generate", "--curve", "circle", "--nt", "8", "--ns", "3",
          "--out", str(out)])
    summary = json.loads((out / "circle_summary.json").read_text())
    assert "generated_at" not in summary
    main(["generate", "--curve", "circle", "--nt", "8", "--ns", "3",
          "--out", str(out), "--timestamp"])
    summary = json.loads((out / "circle_summary.json").read_text())
    assert "generated_at" in summary


def test_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    cli.build_parser.cache_clear()
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    counts = []
    for argv in (["generate", "--curve", "circle", "--nt", "8", "--ns", "3",
                  "--out", str(tmp_path / "g")],
                 ["verify", "--curve", "circle", "--nt", "128", "--ns", "17"],
                 ["table", "--k", "2", "--lambda", "0.5"],
                 ["analyze", "--k", "2", "--lambda", "0.5"]):
        assert main(argv) == 0, argv
        counts.append(len(added))
    assert counts[0] > 0
    assert counts == [counts[0]] * 4
    assert cli.build_parser.cache_info().misses == 1
    # the command is looked up at each call, not held by the cached parser
    monkeypatch.setattr(cli, "cmd_table", lambda args: 7)
    assert main(["table", "--k", "2", "--lambda", "0.5"]) == 7


def test_generate_clip_does_not_leak_into_the_next_call(tmp_path, capsys):
    argv = ["generate", "--curve", "circle", "--nt", "8", "--ns", "3"]
    assert main(argv + ["--clip", "--out", str(tmp_path / "a")]) == 0
    assert (tmp_path / "a" / "circle_halfcut.obj").exists()
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    assert sorted(os.listdir(tmp_path / "b")) == ["circle.obj", "circle.ply",
                                                 "circle_summary.json"]


def test_verify_json_does_not_leak_into_the_next_call(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "--curve", "circle", "--nt", "128", "--ns", "17"]
    assert main(argv + ["--json", "p"]) == 0
    written = (tmp_path / "p").read_bytes()
    assert main(argv) == 0
    assert os.listdir(tmp_path) == ["p"]
    assert (tmp_path / "p").read_bytes() == written


def test_parse_error_does_not_leak_into_the_next_call(tmp_path, capsys):
    argv = ["table", "--k", "2", "--lambda", "0.5"]
    first = main(argv), capsys.readouterr().out
    # --k and --json are parsed before --lambda fails
    with pytest.raises(SystemExit) as exc:
        main(["table", "--k", "3", "--json", str(tmp_path / "t.json"), "--lambda", "x"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert (main(argv), capsys.readouterr().out) == first
    assert first[0] == 0
    assert not (tmp_path / "t.json").exists()
