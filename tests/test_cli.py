import json
import math

import pytest

from mirror_teleport import ConfigError
from mirror_teleport.cli import bundled_config_path, load_config, main


@pytest.fixture()
def bench_json():
    return json.loads(bundled_config_path().read_text())


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_bundled_config_loads(bench_config):
    assert bench_config.params.power == 10.0
    assert bench_config.params.mirror_freq == 5e8
    assert bench_config.nbar_values == (0.0, 1.0, 10.0, 1000.0)
    assert bench_config.grid_points == 2000
    assert bench_config.couplings_override is None


def test_missing_field_rejected(tmp_path, bench_json):
    del bench_json["power_watts"]
    with pytest.raises(ConfigError, match="power_watts"):
        load_config(_write_config(tmp_path, bench_json))


def test_bad_value_rejected(tmp_path, bench_json):
    bench_json["mass_kg"] = "heavy"
    with pytest.raises(ConfigError, match="mass_kg"):
        load_config(_write_config(tmp_path, bench_json))


def test_negative_nbar_rejected(tmp_path, bench_json):
    bench_json["nbar_values"] = [0, -1]
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, bench_json))


def test_temperatures_converted(tmp_path, bench_json):
    del bench_json["nbar_values"]
    bench_json["temperatures_k"] = [0.0, 300.0]
    cfg = load_config(_write_config(tmp_path, bench_json))
    assert cfg.nbar_from_temperatures
    assert cfg.nbar_values[0] == 0.0
    assert cfg.nbar_values[1] > 1e3  # room temperature, 5e8 rad/s mirror


def test_ordinary_frequency_convention(tmp_path, bench_json):
    import math

    bench_json["angular_frequencies"] = False
    del bench_json["laser_freq_rad_per_s"], bench_json["mirror_freq_rad_per_s"]
    bench_json["laser_freq_hz"] = 2e15 / (2.0 * math.pi)
    bench_json["mirror_freq_hz"] = 5e8 / (2.0 * math.pi)
    cfg = load_config(_write_config(tmp_path, bench_json))
    assert cfg.params.laser_freq == pytest.approx(2e15, rel=1e-12)


def test_unknown_tolerance_rejected(tmp_path, bench_json):
    bench_json["tolerances"] = {"no_such_gate": 1.0}
    with pytest.raises(ConfigError, match="no_such_gate"):
        load_config(_write_config(tmp_path, bench_json))


def test_main_reports_config_error(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "couplings"]) == 1
    assert main(["--config", str(tmp_path / "absent.json"), "couplings"]) == 1


@pytest.mark.parametrize(
    "patch, command",
    [
        ({"nbar_values": ["x"]}, "couplings"),
        ({"nbar_values": [math.nan]}, "curve"),
        ({"nbar_values": None, "temperatures_k": [-1]}, "couplings"),
        ({"tolerances": {"fidelity_identity": "loose"}}, "verify"),
        ({"readout_times_count": -1}, "readout"),
        ({"temperature_k": math.nan}, "couplings"),
        ({"damping_hz": math.nan}, "readout"),
        ({"power_watts": math.inf}, "couplings"),
        ({"grid_points": 2000.5}, "curve"),
        ({"mass_kg": True}, "couplings"),
    ],
)
def test_bad_config_exits_1(tmp_path, bench_json, capsys, patch, command):
    for field, value in patch.items():
        if value is None:
            del bench_json[field]
        else:
            bench_json[field] = value
    cfg = _write_config(tmp_path, bench_json)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), command]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_couplings_command(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "couplings"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "parametric_rad_per_s" in out
    report = json.loads((tmp_path / "couplings.json").read_text())
    assert report["parametric_rad_per_s"] == pytest.approx(471730.8, abs=0.1)
    assert report["regime_warnings"] == []


def test_curve_outputs(tmp_path):
    rc = main(["--out", str(tmp_path), "--grid", "200", "curve"])
    assert rc == 0
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert lines[0] == "theta_t,F_nbar_0,F_nbar_1,F_nbar_10,F_nbar_1000"
    assert len(lines) == 202  # header + grid+1 samples
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(0.5)
    assert float(first[2]) == pytest.approx(1.0 / 3.0)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["per_nbar"]["0"]["F_max"] == pytest.approx(0.8536, abs=1e-3)
    assert summary["per_nbar"]["1000"]["F_max_no_heterodyne"] == pytest.approx(
        0.8, abs=2e-3
    )


def test_curve_requires_out():
    assert main(["curve"]) == 3


def test_curve_no_heterodyne_flag(tmp_path):
    rc = main(["--out", str(tmp_path), "--grid", "100", "--no-heterodyne", "curve"])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["curve"]["variant"] == "no_heterodyne"
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    # no-heterodyne fidelity is capped by 0.8 everywhere
    for line in lines[1:]:
        for value in line.split(",")[1:]:
            assert float(value) <= 0.8 + 1e-9


def test_curve_deterministic(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["--out", str(out1), "--grid", "150", "curve"]) == 0
    assert main(["--out", str(out2), "--grid", "150", "curve"]) == 0
    assert (out1 / "curve.csv").read_bytes() == (out2 / "curve.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_verify_passes_on_bundled_config(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "verify"])
    assert rc == 0
    text = (tmp_path / "verify.txt").read_text()
    assert "verification PASSED" in text
    assert "FAIL" not in text


def test_verify_fails_on_corrupted_couplings(tmp_path, bench_json, capsys):
    bench_json["couplings_override"] = {
        "parametric_rad_per_s": 471730.8083835747,
        "beam_splitter_rad_per_s": 471730.9263162916,
        "oscillation_rad_per_s": 350.0,  # off by ~5%
    }
    cfg = _write_config(tmp_path, bench_json)
    rc = main(["--config", cfg, "--out", str(tmp_path), "verify"])
    assert rc == 2
    text = (tmp_path / "verify.txt").read_text()
    assert "FAIL couplings-consistency" in text
    assert "verification FAILED" in text


def test_readout_command(capsys):
    assert main(["readout"]) == 0
    out = capsys.readouterr().out
    assert "readout quality ratio" in out and "PASS" in out
    assert "feed-forward window" in out
