import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirror_teleport import ConfigError, Couplings
from mirror_teleport import cli
from mirror_teleport.cli import _run_gates, bundled_config_path, load_config, main


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


def test_unknown_field_rejected(tmp_path, bench_json):
    # A misspelt optional field must not silently fall back to its default.
    bench_json["temperature_K"] = 300.0
    with pytest.raises(ConfigError, match="temperature_K"):
        load_config(_write_config(tmp_path, bench_json))


def test_main_reports_config_error(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "couplings"]) == 1
    assert main(["--config", str(tmp_path / "absent.json"), "couplings"]) == 1


# ``command`` is the command, after any flags that override the config.
@pytest.mark.parametrize(
    "patch, command",
    [
        ({"nbar_values": ["x"]}, "couplings"),
        ({"nbar_values": [math.nan]}, "curve"),
        ({"nbar_values": None, "temperatures_k": [-1]}, "couplings"),
        ({"tolerances": {"fidelity_identity": 1.0}}, "verify"),
        ({"readout_times_count": -1}, "readout"),
        ({"temperature_k": math.nan}, "couplings"),
        ({"damping_hz": math.nan}, "readout"),
        ({"power_watts": math.inf}, "couplings"),
        ({"grid_points": 2000.5}, "curve"),
        ({"mass_kg": True}, "couplings"),
        ({"couplings_override": {"oscillation_rad_per_s": 350.0}}, "verify"),
        ({"grid_point": 100}, "verify"),
        ({}, "--grid -5 curve"),
        ({}, "--grid 1 curve"),
        ({}, "--periods 0 curve"),
        ({}, "--periods nan curve"),
        ({"mirror_freq_rad_per_s": 0.0}, "couplings"),
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
    assert main(["--config", cfg, "--out", str(out), *command.split()]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "patch, command",
    [
        ({"det_bandwidth_hz": 2.2e271}, "couplings"),
        ({"mode_bandwidth_hz": 3.7e-222, "mass_kg": 1e-300}, "verify"),
    ],
)
def test_couplings_beyond_float_range_exit_1(tmp_path, bench_json, capsys, patch, command):
    # The config itself is valid; its rates are not representable, which
    # only the command finds out, after --out exists.
    bench_json.update(patch)
    cfg = _write_config(tmp_path, bench_json)
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), command]) == 1
    assert "config error:" in capsys.readouterr().err


def test_underflowing_reheating_rate_is_unconstrained(tmp_path, bench_json, capsys):
    bench_json.update({"damping_hz": 9e-65, "nbar_values": [1.2e-274]})
    assert main(["--config", _write_config(tmp_path, bench_json), "readout"]) == 0
    assert "feed-forward window unconstrained" in capsys.readouterr().out


_BUNDLED = json.loads(bundled_config_path().read_text())


def _magnitude():
    return st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


# Each field keeps its bundled value or takes a magnitude from 10^-300 to
# 10^300, so that some configs get past validation and run.
_FUZZ_FIELDS = {
    f: st.one_of(st.just(_BUNDLED[f]), _magnitude())
    for f in (
        "power_watts",
        "laser_freq_rad_per_s",
        "mirror_freq_rad_per_s",
        "det_bandwidth_hz",
        "mode_bandwidth_hz",
        "mass_kg",
        "temperature_k",
        "damping_hz",
        "periods",
    )
}


def _finite_file(path: Path) -> bool:
    text = path.read_text()
    if path.suffix == ".json":
        values = []
        json.loads(text, parse_float=values.append, parse_constant=values.append)
    else:
        values = [v for line in text.splitlines()[1:] for v in line.split(",")]
    return all(math.isfinite(float(v)) for v in values)


@given(
    values=st.fixed_dictionaries(_FUZZ_FIELDS),
    nbar=st.lists(st.one_of(st.just(0.0), _magnitude()), min_size=1, max_size=2),
    command=st.sampled_from(["couplings", "readout", "curve"]),
)
@settings(max_examples=100, deadline=None)
def test_extreme_finite_configs_exit_cleanly(values, nbar, command):
    # Any finite config either runs (exit 0) or is rejected as a config
    # error (exit 1); nothing it writes holds NaN or Inf.
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps({**_BUNDLED, **values, "nbar_values": nbar}))
        out = tmp / "out"
        rc = main(["--config", str(cfg), "--out", str(out), "--grid", "16", command])
        assert rc in (0, 1)
        for path in out.glob("*") if out.exists() else ():
            assert _finite_file(path), path.name


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
    # The benchmark's verify reference and tracer rely on this order.
    assert [line.split(":")[0].split()[1] for line in text.splitlines()[:-1]] == [
        "couplings-consistency",
        "ode-vs-analytic",
        "propagator-metric",
        "propagator-group",
        "conditional-physicality",
        "fidelity-identity",
        "moment-route",
        "teleport-noise",
    ]


def test_verify_fails_on_corrupted_couplings(tmp_path, monkeypatch):
    # A gate that fails makes verify exit 2: here the RK4 oracle, whose
    # bundled defect is about 8e-11, held to 1e-12.
    monkeypatch.setitem(cli.TOLERANCES, "ode_vs_analytic_scaled", 1e-12)
    rc = main(["--out", str(tmp_path), "verify"])
    assert rc == 2
    text = (tmp_path / "verify.txt").read_text()
    assert "FAIL ode-vs-analytic" in text
    assert "verification FAILED" in text


@pytest.mark.parametrize(
    "rates, nbar", [(None, 1e12), ((2.0, 3.0), 1e16)], ids=["bundled", "moderate"]
)
def test_physicality_gate_holds_at_large_nbar(bench_couplings, rates, nbar):
    # The conditioned state grows with nbar; the gate's defect is relative
    # to its size, so a physical state passes however hot the mirror is.
    c = bench_couplings if rates is None else Couplings.from_rates(*rates)
    name = "conditional-physicality"
    defect, tolerance, ok = next(g[1:] for g in _run_gates(c, (nbar,)) if g[0] == name)
    assert ok, (defect, tolerance)


def test_readout_command(capsys):
    assert main(["readout"]) == 0
    out = capsys.readouterr().out
    assert "readout quality ratio" in out and "PASS" in out
    assert "feed-forward window" in out
