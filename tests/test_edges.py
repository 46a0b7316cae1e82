import json

import numpy as np
import pytest

from bjorling.weierstrass import DivisionNearZero, data_from_phi


class _StubTriple:
    """Null-triple stand-in whose phi1 - i*phi2 vanishes at z = 0."""

    def __call__(self, z):
        z = complex(z)
        return np.array([z, 0j, 1.0 + 0j])


def test_division_near_zero_at_pole_of_g():
    data = data_from_phi(_StubTriple())
    with pytest.raises(DivisionNearZero):
        data.g(0.0)
    assert abs(data.g(1.0) - 1.0) < 1e-15


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
