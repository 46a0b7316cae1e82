import json

import pytest


def test_toml_config_when_supported(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    from bjorling.cli import main

    cfg = tmp_path / "curve.toml"
    cfg.write_text('type = "epitrochoid"\nk = 2\nlambda = 0.5\n')
    out = tmp_path / "run"
    assert main(["generate", "--config", str(cfg), "--nt", "12", "--ns", "5",
                 "--out", str(out)]) == 0


def test_toml_config_clean_error_when_unsupported(tmp_path):
    try:
        import tomllib  # noqa: F401
        pytest.skip("tomllib available; covered by the positive test")
    except ImportError:
        pass
    from bjorling.cli import main

    cfg = tmp_path / "curve.toml"
    cfg.write_text('type = "circle"\n')
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3


def test_analyze_json_deterministic(tmp_path):
    from bjorling.cli import main

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["analyze", "--k", "3", "--lambda", "0.6", "--json", str(a)]) == 0
    assert main(["analyze", "--k", "3", "--lambda", "0.6", "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["punctures"] == ["(0,+sqrt(a))", "(0,-sqrt(a))", "(inf,inf)"]
