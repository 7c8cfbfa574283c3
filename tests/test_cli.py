import io
import itertools
import json
import math
import os
import signal
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mirror_teleport import (
    ConfigError,
    Couplings,
    CovMatrix2,
    coeffs_analytic,
    coeffs_from_propagator,
    compute_couplings,
    conditional_correlation,
    effective_occupation,
    fidelity_coherent,
    fidelity_curves,
    optimal_time,
    peak_fidelity,
    period,
    physicality_defect,
    propagator,
    replace,
    symplectic_defect,
    teleport_covariance,
)
from mirror_teleport import _csvtext, cli, dynamics, protocol
from mirror_teleport.cli import _run_gates, bundled_config_path, load_config, main
from mirror_teleport.gates import _scaled_gap

from conftest import NBAR_SET, assert_reaches_the_peaks, peak_times


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


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(b'\xff\xfe{"a":1}', id="invalid-utf8"),
        pytest.param(b"[" * 100_000, id="deep-nesting"),
        pytest.param(b'{"power_watts": 10.0, "mass_kg"', id="truncated"),
        pytest.param(b'{"power_watts": 1' + b"0" * 5000 + b"}", id="5001-digit-integer"),
        pytest.param(None, id="directory"),
    ],
)
def test_unparsable_config_is_a_config_error(tmp_path, capsys, content):
    # A file that does not parse as UTF-8 JSON, or is not a file, exits 1
    # with a config error and no traceback, before --out is made.
    path = tmp_path / "config.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "verify"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--grid", "abc", "curve"],
        ["bogus"],
        [],
        ["--periods"],
        ["curve", "extra"],
        ["--=x", "curve"],  # a prefix of every long option
        ["-hx", "curve"],
        # After "--" every token is an argument, and the command drops one "--".
        ["--"],
        ["--", "--", "curve"],
        ["curve", "--", "--"],
        ["--grid=--", "curve"],
    ],
)
def test_usage_error_exits_1(tmp_path, capsys, argv):
    # A command line the parser rejects is a config error, exit 1, after
    # the usage message: exit 2 is a failed verification gate.
    assert main(["--out", str(tmp_path / "out"), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: mirror-teleport") and "error:" in err
    assert not (tmp_path / "out").exists()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: mirror-teleport")


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
        # nbar values that label curve.csv columns and summary.json entries alike
        ({"nbar_values": [10, 1, 10.0]}, "curve"),
        ({"nbar_values": [1, 1.0000000000001]}, "curve"),
        ({"nbar_values": None, "temperatures_k": [0.0, 1e-6]}, "curve"),
        # ambiguous configs: each would otherwise run on a silent guess
        ({"angular_frequencies": "false"}, "curve"),
        ({"mirror_freq_hz": 8e7}, "curve"),
        (
            {"angular_frequencies": False, "laser_freq_hz": 3e14, "mirror_freq_hz": 8e7},
            "curve",
        ),
        ({"temperatures_k": [300.0]}, "curve"),
        # an occupation past the float64 range, which readout printed as inf
        ({"nbar_values": None, "temperatures_k": [1e308]}, "readout"),
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
        ({"nbar_values": [1e300]}, "verify"),
        ({"nbar_values": [1e300]}, "curve"),
    ],
)
def test_couplings_beyond_float_range_exit_1(tmp_path, bench_json, capsys, patch, command):
    # The config itself is valid; its rates or results are not representable,
    # which only the command finds out, after --out exists.
    bench_json.update(patch)
    cfg = _write_config(tmp_path, bench_json)
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["--config", cfg, "--out", str(out), command]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_couplings_rejects_an_infinite_occupation(tmp_path, bench_json, capsys):
    # Without --out, couplings printed thermal_occupation = inf and exited 0.
    bench_json["temperature_k"] = 1e308
    assert main(["--config", _write_config(tmp_path, bench_json), "couplings"]) == 1
    captured = capsys.readouterr()
    assert "config error:" in captured.err and "inf" not in captured.out


@pytest.mark.parametrize(
    "key, value",
    [("temperature_k", 1e-320), ("temperatures_k", [5e-324, 1])],
    ids=["temperature_k", "temperatures_k"],
)
def test_temperatures_where_kt_underflows_run(tmp_path, bench_json, capsys, key, value):
    # Below about 1.8e-301 K, k*T is 0 in float64; every command once ended
    # in a ZeroDivisionError there.  The occupation is 0.
    if key == "temperatures_k":
        del bench_json["nbar_values"]
    bench_json[key] = value
    cfg, out = _write_config(tmp_path, bench_json), tmp_path / "out"
    for command in ("couplings", "readout", "curve", "verify"):
        assert main(["--config", cfg, "--out", str(out), command]) == 0, command
    assert "thermal_occupation = 0\n" in capsys.readouterr().out
    assert "0" in json.loads((out / "summary.json").read_text())["per_nbar"]


def test_occupation_where_kt_and_hbar_w_are_subnormal(tmp_path, bench_json):
    # At 1e-300 K and 1e-288 rad/s both k*T and h_bar*W are subnormal floats;
    # their quotient once labelled the occupation 0.000912714253222.
    del bench_json["nbar_values"]
    bench_json.update(
        laser_freq_rad_per_s=1e-280, mirror_freq_rad_per_s=1e-288, temperatures_k=[1e-300]
    )
    cfg, out = _write_config(tmp_path, bench_json), tmp_path / "out"
    for command in ("couplings", "readout", "curve", "verify"):
        assert main(["--config", cfg, "--out", str(out), command]) == 0, command
    per_nbar = json.loads((out / "summary.json").read_text())["per_nbar"]
    assert list(per_nbar) == ["0.000481911156989"]


@pytest.mark.parametrize(
    "patch, command, name",
    [
        ({"mirror_freq_rad_per_s": 1e-300}, "verify", "verify.txt"),
        ({"nbar_values": [1e300]}, "verify", "verify.txt"),
        ({"mirror_freq_rad_per_s": 1e-300}, "couplings", "couplings.json"),
    ],
)
def test_failed_run_leaves_no_earlier_output(tmp_path, bench_json, capsys, patch, command, name):
    # A run that exits 1 removes the file an earlier run of the command left
    # in --out, whose verdict or rates would otherwise pass for its own.
    out = tmp_path / "out"
    assert main(["--out", str(out), command]) == 0
    assert (out / name).exists()
    bench_json.update(patch)
    cfg = _write_config(tmp_path, bench_json)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["--config", cfg, "--out", str(out), command]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not (out / name).exists()


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
    elif path.name == "verify.txt":
        values = [line.split("defect ")[1].split()[0] for line in text.splitlines()[:-1]]
    else:
        values = [v for line in text.splitlines()[1:] for v in line.split(",")]
    return all(math.isfinite(float(v)) for v in values)


@given(
    values=st.fixed_dictionaries(_FUZZ_FIELDS),
    nbar=st.lists(st.one_of(st.just(0.0), _magnitude()), min_size=1, max_size=2),
    command=st.sampled_from(["couplings", "readout", "curve", "verify"]),
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


def _savetxt_bytes(columns, header="theta_t,F"):
    # The reference: curve.csv as np.savetxt writes it.
    buf = io.BytesIO()
    np.savetxt(
        buf, np.column_stack(columns), fmt="%.12g", delimiter=",", header=header, comments=""
    )
    return buf.getvalue()


def _whole(columns):
    """The column function of a table held whole."""
    return lambda lo, hi: [c[lo:hi] for c in columns]


def _cpus(n):
    """Let the block writer see ``n`` CPUs: at 1 this process writes every
    chunk, at 2 a forked worker formats the odd chunks of a larger table."""
    return mock.patch.object(os, "sched_getaffinity", return_value=set(range(n)), create=True)


def _blocks(chunk_rows, block_cells):
    """Cut tables into chunks of ``chunk_rows`` rows, and those into blocks
    of at most ``block_cells`` cells."""
    return mock.patch.multiple(_csvtext, _CHUNK_ROWS=chunk_rows, _BLOCK_CELLS=block_cells)


def _block_bytes(columns, header="theta_t,F"):
    buf = io.BytesIO()
    _csvtext.write_blocks(buf, header, len(columns[0]), _whole(columns))
    return buf.getvalue()


def _near_ties(digits, exponent):
    """(m + 1/2) 10^(e - 11), the rounding ties of %.12g, for each m and e."""
    return (digits + 0.5) * 10.0 ** (exponent - 11.0)


def _ulps_off_ties(exponents, ulps):
    """Cells some ulps off the %.12g ties of 12-digit numbers at the drawn
    exponents."""
    return st.tuples(st.integers(10**11, 10**12 - 1), exponents, ulps).map(
        lambda t: _near_ties(t[0], t[1]) + t[2] * math.ulp(_near_ties(t[0], t[1]))
    )


_powers_of_ten = st.integers(-8, 14).map(lambda k: 10.0**k)
_small_powers_of_ten = st.integers(-101, -9).map(lambda k: 10.0**k)
_cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-6.0, 13.0).map(lambda k: 10.0**k),
    st.sampled_from([0.0, -0.0, 1e-4, 1e11, 5e-324, 2.2250738585072014e-308]),
    st.tuples(_powers_of_ten, st.sampled_from([-math.inf, math.inf])).map(
        lambda pd: math.nextafter(*pd)
    ),
    # just below 10^k, where the 12 digits round up into the next decade
    st.tuples(_powers_of_ten, st.floats(0.0, 6e-13)).map(lambda pd: pd[0] * (1.0 - pd[1])),
    _ulps_off_ties(st.integers(-4, 10), st.sampled_from([-1, 0, 1])),
    # the same in exponent notation, down to 1e-101
    st.floats(-101.0, -6.0).map(lambda k: 10.0**k),
    st.tuples(_small_powers_of_ten, st.floats(0.0, 6e-13)).map(lambda pd: pd[0] * (1.0 - pd[1])),
    _ulps_off_ties(st.integers(-99, -5), st.sampled_from([-1, 0, 1])),
)


@given(
    table=arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 5)), elements=_cells),
    chunk_rows=st.integers(1, 7),
    block_cells=st.integers(1, 20),
)
@settings(max_examples=150, deadline=None)
def test_block_writer_matches_savetxt(table, chunk_rows, block_cells):
    # Every cell, whether the block arithmetic or the fallback to Python's
    # own %.12g formats it, must come out byte for byte as np.savetxt's,
    # in chunks of one block or of several, the last of them partial.
    # (150 examples over nine kinds of cell keep 100 over the first six.)
    columns = list(table.T)
    with _blocks(chunk_rows, block_cells):
        assert _block_bytes(columns) == _savetxt_bytes(columns)


def test_large_table_matches_savetxt():
    # Tables of many full blocks: a seeded table of 150,000 log-uniform
    # cells with signs and zeros, 100,000 rows of ties, each one ulp off,
    # and 100,000 cells just below a power of ten; each table has
    # 100,000 more such cells below 1e-4, in exponent notation.
    rng = np.random.default_rng(0)
    cells = 10.0 ** rng.uniform(-8.0, 13.0, 150_000) * rng.choice([-1.0, 1.0, 1.0], 150_000)
    cells[rng.integers(0, cells.size, 500)] = 0.0
    ties = _near_ties(rng.integers(10**11, 10**12, 100_000), rng.integers(-4, 11, 100_000))
    ties = np.nextafter(ties, np.where(rng.random(ties.size) < 0.5, -np.inf, np.inf))
    edges = 10.0 ** rng.integers(-5, 13, 100_000) * (1.0 - rng.uniform(0.0, 6e-13, 100_000))
    small = 10.0 ** rng.uniform(-101.0, -4.0, 100_000)
    small_ties = _near_ties(rng.integers(10**11, 10**12, 100_000), rng.integers(-99, -4, 100_000))
    small_ties = np.nextafter(
        small_ties, np.where(rng.random(small_ties.size) < 0.5, -np.inf, np.inf)
    )
    small_edges = 10.0 ** rng.integers(-101, -4, 100_000) * (1.0 - rng.uniform(0.0, 6e-13, 100_000))
    tables = (
        [*cells.reshape(3, -1), *small.reshape(2, -1)],
        [ties, ties[::-1], small_ties],
        [edges, small_edges],
    )
    # The writer's own chunks and blocks, then chunks of several blocks
    # whose last is partial: 4, 3 and 2 blocks of 700, 1,166 and 1,750
    # rows hold a chunk of 2,500 rows.
    for chunk_rows, block_cells in ((_csvtext._CHUNK_ROWS, _csvtext._BLOCK_CELLS), (2500, 3500)):
        with _blocks(chunk_rows, block_cells):
            for columns in tables:
                assert _block_bytes(columns) == _savetxt_bytes(columns), (chunk_rows, len(columns))


# Cells of the block arithmetic's range, [1e-99, 1e3): ties of exponents
# -99 .. 2, the fallbacks, and the values just below 1e3 that print as 1000.
_narrow_cells = st.one_of(
    st.floats(-4.0, 3.0, exclude_max=True).map(lambda k: 10.0**k),
    st.sampled_from(
        [0.0, -0.0, -1.0, 5e-5, 1e-4, 999.9999999999995, math.nextafter(1e3, 0.0), 999.99999999995]
    ),
    _ulps_off_ties(st.integers(-4, 2), st.integers(-3, 3)),
    st.floats(-99.0, -4.0, exclude_max=True).map(lambda k: 10.0**k),
    _ulps_off_ties(st.integers(-99, -5), st.integers(-3, 3)),
)


@given(
    table=arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 5)), elements=_narrow_cells),
    wide=st.lists(
        st.tuples(st.integers(0, 39), st.floats(3.0, 11.0).map(lambda k: 10.0**k)), max_size=4
    ),
    chunk_rows=st.integers(1, 7),
    block_cells=st.integers(1, 20),
)
@settings(max_examples=84, deadline=None)
def test_block_writer_matches_savetxt_below_1e3(table, wide, chunk_rows, block_cells):
    # Blocks of cells below 1e3, as curve.csv's are; a few cells of
    # 1e3 .. 1e11 fall back to Python's %.12g in some blocks of a table.
    # (84 examples over five kinds of cell keep 50 over the first three.)
    for row, value in wide:
        table[row % len(table), row % table.shape[1]] = value
    columns = list(table.T)
    with _blocks(chunk_rows, block_cells):
        assert _block_bytes(columns) == _savetxt_bytes(columns)


def test_block_writer_near_ties():
    # Cells 1, 2 and 3 ulps either side of the %.12g ties, one table per
    # exponent: 2,000 ties at every exponent in [-4, 10] and 500 at every
    # one in [-99, -5].  Some products land on a tie, and below 1e-11 the
    # rounded power of ten moves others across one; a tie test that lets
    # them through fails.
    rng = np.random.default_rng(1)
    for exponents, count in ((range(-4, 11), 2000), (range(-99, -4), 500)):
        for exponent in exponents:
            ties = _near_ties(rng.integers(10**11, 10**12, count), exponent)
            columns = [ties + k * np.spacing(ties) for k in (-3, -2, -1, 1, 2, 3)]
            assert _block_bytes(columns) == _savetxt_bytes(columns), exponent


def test_word_table_matches_python_formatting():
    # Each kind of word as Python's own formatting writes it, with NUL for
    # the zeros %g drops: trailing ones after the point, and the point of
    # a zero fraction; leading ones before the units of the first word.
    expected = {
        "zero": [b"%04d" % v for v in range(10000)],
        "trail": [(b"%04d" % v).rstrip(b"0") for v in range(10000)],
        "dot": [b"." + b"%03d" % v for v in range(1000)],
        "dot_trail": [(b"." + b"%03d" % v).rstrip(b"0").rstrip(b".") for v in range(1000)],
        "comma": [b"," + (b"%d" % v).rjust(3, b"\0") for v in range(1000)],
        "newline": [b"\n" + (b"%d" % v).rjust(3, b"\0") for v in range(1000)],
        "exp": [b"e-%02d" % v for v in range(100)],
    }
    words = _csvtext._word_table()
    assert len(words) == sum(_csvtext._KINDS.values())
    for kind, texts in expected.items():
        at = _csvtext._AT[kind]
        table = words[at : at + _csvtext._KINDS[kind]].tobytes()
        assert table == b"".join(t.ljust(4, b"\0") for t in texts), kind


def _format_in_place(block, w):
    """``_format_block`` of ``block`` stacked into the x plane of ``w``, the
    memory its word indices later take, as ``write_blocks`` passes it."""
    x = w.planes(len(block))[0][0]
    x[...] = block
    return _csvtext._format_block(x, w)


def test_block_writer_reuses_its_work_arrays():
    # Blocks share one set of work arrays: a block after one with fallback
    # cells (999.9999999999995 prints 1000, 1234.5 is above the range, 0 and
    # -2 are outside it) must not keep any of their text, and a fallback
    # cell must print its own value, not the word indices that take its
    # memory.  Fallbacks come in the first block, in a partial last block
    # and in a 1-row block, and cells below 1e-4 in exponent notation.
    narrow = np.array([[0.5, 999.9999999999995], [1e-4, 3.0], [-2.0, 0.0]])
    wide = narrow + [[0.0, 0.0], [0.0, 1234.5], [0.0, 0.0]]
    small = np.array([[3.25e-7, 1e-99], [7.5e-5, 2e-12], [1.2345678901234e-50, 0.25]])
    w = _csvtext._Work(len(narrow), 2)
    for block in (wide, narrow, small, wide[:2], small[:1], narrow[2:], wide):
        text = _format_in_place(block, w)
        assert text + b"\n" == b"\n" + _savetxt_bytes(list(block.T), header="")


@given(rows=st.integers(1, 8), cols=st.integers(1, 5), data=st.data())
@settings(max_examples=60, deadline=None)
def test_work_arrays_serve_any_sequence_of_blocks(rows, cols, data):
    # One set of work arrays formats blocks of any length up to its rows, in
    # any order, each in place as write_blocks passes it.
    w = _csvtext._Work(rows, cols)
    for n in data.draw(st.lists(st.integers(1, rows), min_size=1, max_size=6)):
        block = data.draw(arrays(np.float64, (n, cols), elements=_cells))
        text = _format_in_place(block, w)
        assert text + b"\n" == b"\n" + _savetxt_bytes(list(block.T), header="")


def test_word_offsets_are_exact_in_float32():
    # The digit groups' word offsets are kept as float32, exact up to 2**24:
    # every index into the word table, a kind's offset plus a group of at
    # most four digits, is below the table's size, and so is the largest
    # offset a sum can reach before its group is bounded.
    size = _csvtext._word_table().size
    assert size == sum(_csvtext._KINDS.values()) < 2**24
    assert max(_csvtext._AT.values()) + 9999 < 2**24
    tables = (_csvtext._FIFTH, _csvtext._TRAIL)
    assert all(t.dtype == np.float32 and (t == t.astype(np.int64)).all() for t in tables)
    assert _csvtext._FIFTH.max() < size


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 3), (1024, 3), (2048, 5), (787, 13)])
def test_work_arrays_take_at_most_64_bytes_a_cell(rows, cols):
    w = _csvtext._Work(rows, cols)
    arrays = [v for v in vars(w).values() if isinstance(v, np.ndarray)]
    assert all(a.base is None for a in arrays)
    assert sum(a.nbytes for a in arrays) + len(w.buf) <= 64 * rows * cols


def test_block_rows_keep_small_tables_in_few_blocks():
    # A table of one chunk is cut into blocks of at least the floor of
    # cells, or into one block when it is smaller; no block exceeds the cell
    # budget, a chunk or the table.  param-scan's tables (501 to 4,001 rows
    # of 3 columns) then take one to four blocks, and large tables keep
    # the budget's blocks.
    floor, cap = _csvtext._FLOOR_CELLS, _csvtext._BLOCK_CELLS
    for cols in range(1, 14):
        for rows in range(1, _csvtext._CHUNK_ROWS + 1):
            block = _csvtext._block_rows(rows, cols)
            assert block == rows or block >= floor // cols, (rows, cols)
            assert block <= min(rows, _csvtext._CHUNK_ROWS, max(1, cap // cols)), (rows, cols)
    for rows in range(501, 4002):
        assert -(-rows // _csvtext._block_rows(rows, 3)) <= 4, rows
    assert _csvtext._block_rows(200_001, 5) == 2048
    assert _csvtext._block_rows(200_001, 13) == 787


class _Sink:
    """A binary file that keeps nothing it is given."""

    def write(self, data):
        return len(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def test_block_writer_memory_on_a_scan_table():
    # The largest param-scan table, 4,001 rows of 3 columns, in blocks of
    # 1,024 rows.  numpy reports its buffers to tracemalloc, so the bound
    # holds on any host: the peak is about 394 kB, of which the work arrays
    # take 197 kB, and the bound is its peak plus about 10 %.
    rng = np.random.default_rng(0)
    columns = [np.linspace(0.0, 6.3, 4001), *rng.uniform(0.3, 0.99, (2, 4001))]
    _csvtext._word_table()  # built once a process, and kept
    tracemalloc.start()
    try:
        with _cpus(1):
            _csvtext.write_blocks(_Sink(), "", 4001, _whole(columns))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.43e6, peak


def test_bundled_columns_match_savetxt(tmp_path):
    # curve.csv must be np.savetxt's bytes, with every numpy, of the columns
    # fidelity_curves gives on the whole grid at once, so the chunks curve
    # streams neither drop, repeat nor change a row: the bundled config at
    # --grid 20000 (100,005 cells) and at 4,096, 4,097 and 8,192 rows, on
    # and just past the chunk edges, and r = 4e4 at nbar 1e4 without
    # heterodyne detection, whose fidelities fall below 1e-4 and print in
    # exponent notation.
    laser = _BUNDLED["laser_freq_rad_per_s"]
    r4e4 = {**_BUNDLED, "mirror_freq_rad_per_s": laser / (2 * 4e4**2 + 1), "nbar_values": [1e4]}
    cfg = tmp_path / "r4e4.json"
    cfg.write_text(json.dumps(r4e4))
    bundled = load_config(bundled_config_path())
    cases = [(bundled, g, ["--grid", str(g)]) for g in (20000, 4095, 4096, 8191)]
    cases.append((load_config(cfg), 2000, ["--config", str(cfg), "--no-heterodyne"]))
    for config, grid, flags in cases:
        assert main(["--out", str(tmp_path), *flags, "curve"]) == 0
        c = compute_couplings(config.params)
        times = np.linspace(0.0, config.periods * period(c), grid + 1)
        heterodyne = "--no-heterodyne" not in flags
        fidelities = fidelity_curves(c, config.nbar_values, times, heterodyne)
        columns = [c.oscillation * times, *fidelities]
        header = "theta_t," + ",".join(f"F_nbar_{v:.12g}" for v in config.nbar_values)
        assert (tmp_path / "curve.csv").read_bytes() == _savetxt_bytes(columns, header)
    assert (columns[1] < 1e-4).mean() > 0.5


def _failing_curves(couplings, grid, chunk, failure):
    """protocol.fidelity_curves, failing on the chunk of ``curve --grid
    grid`` (one period) whose first row is ``chunk`` * ``_CHUNK_ROWS``: by a
    NaN the finite check turns into DomainError, by a FloatingPointError
    from the kernel, or by an interrupt.  The chunk is found by its times,
    so it fails in whichever process computes it."""
    kernel = protocol.fidelity_curves
    first = np.linspace(0.0, period(couplings), grid + 1)[chunk * _csvtext._CHUNK_ROWS]

    def failing(c, nbar_values, t, heterodyne=True):
        columns = kernel(c, nbar_values, t, heterodyne)
        if t[0] == first:
            if failure == "overflow":
                raise FloatingPointError("overflow encountered in multiply")
            if failure == "interrupt":
                raise KeyboardInterrupt
            columns[0][-1] = math.nan
        return columns

    return failing


@pytest.mark.parametrize("failure", ["nan", "overflow"])
def test_failing_chunk_leaves_no_curve(tmp_path, capsys, bench_couplings, failure):
    # A chunk after the first that fails exits 1 and deletes the curve.csv
    # being written, which replaced any an earlier run left, and any
    # summary.json an earlier run left.
    out = tmp_path / "out"
    failing = _failing_curves(bench_couplings, 10000, 1, failure)
    for earlier in (False, True):
        if earlier:
            assert main(["--out", str(out), "curve"]) == 0
            assert (out / "curve.csv").exists() and (out / "summary.json").exists()
        with mock.patch.object(protocol, "fidelity_curves", failing):
            assert main(["--out", str(out), "--grid", "10000", "curve"]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not (out / "curve.csv").exists()
        assert not (out / "summary.json").exists()


@pytest.mark.parametrize("failure", ["nan", "overflow", "interrupt"])
@pytest.mark.parametrize("chunk", [1, 2])
def test_failing_chunk_fails_alike_in_either_process(
    tmp_path, capsys, bench_couplings, chunk, failure
):
    # With two CPUs the worker computes chunks 1 and 3 of the five chunks of
    # --grid 20000, and this process chunk 2: a failure in either exits as
    # it does with one CPU, with the same stderr, leaves neither file, and
    # leaves no worker behind, even one that is mid-chunk.
    out = tmp_path / "out"
    failing = _failing_curves(bench_couplings, 20000, chunk, failure)
    errors = []
    for cpus in (1, 2):
        with _cpus(cpus), mock.patch.object(protocol, "fidelity_curves", failing):
            if failure == "interrupt":
                with pytest.raises(KeyboardInterrupt):
                    main(["--out", str(out), "--grid", "20000", "curve"])
            else:
                assert main(["--out", str(out), "--grid", "20000", "curve"]) == 1
        errors.append(capsys.readouterr().err)
        assert not (out / "curve.csv").exists()
        assert not (out / "summary.json").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert errors[0] == errors[1]
    assert errors[0].startswith("config error:") == (failure != "interrupt")


@pytest.mark.parametrize("flags", [[], ["--no-heterodyne"]])
@pytest.mark.parametrize("grid", [4095, 4096, 4097, 8191, 8192, 12289])
def test_curve_is_the_same_in_one_process_or_two(tmp_path, grid, flags):
    # Tables of one, two and three chunks, the last full or of one row: the
    # table a forked worker shares is byte for byte the one-process table,
    # and a one-chunk table forks nothing.
    fork = os.fork
    forks = []

    def counted_fork():
        forks.append(1)
        return fork()

    outputs = []
    for cpus in (1, 2):
        out = tmp_path / str(cpus)
        forks.clear()
        with _cpus(cpus), mock.patch.object(os, "fork", counted_fork):
            assert main(["--out", str(out), "--grid", str(grid), *flags, "curve"]) == 0
        assert len(forks) == (cpus == 2 and grid >= _csvtext._CHUNK_ROWS)
        outputs.append([(out / name).read_bytes() for name in ("curve.csv", "summary.json")])
    assert outputs[0] == outputs[1]


def test_worker_is_forked_from_a_single_thread(tmp_path):
    # Python 3.12 warns that "use of fork() may lead to deadlocks" when a
    # process that runs more than one thread forks.  The CLI runs one: it
    # keeps OpenBLAS to one thread.
    with open("/proc/self/status") as status:
        threads = next(line for line in status if line.startswith("Threads:"))
    assert threads.split() == ["Threads:", "1"]
    with warnings.catch_warnings(record=True) as caught, _cpus(2):
        warnings.simplefilter("always")
        assert main(["--out", str(tmp_path), "--grid", "8192", "curve"]) == 0
    assert not [w for w in caught if "fork" in str(w.message)]


def test_failing_summary_leaves_no_curve(tmp_path, capsys):
    # A summary that fails once the whole table is written exits 1 and
    # leaves neither that table nor an earlier run's files.
    out = tmp_path / "out"
    assert main(["--out", str(out), "curve"]) == 0
    with mock.patch.object(cli, "_summary", side_effect=cli.DomainError("non-finite")):
        assert main(["--out", str(out), "--grid", "10000", "curve"]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not (out / "curve.csv").exists()
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("flags", [[], ["--no-heterodyne"]])
def test_curve_memory_does_not_grow_with_the_grid(tmp_path, bench_json, flags):
    # curve holds one chunk of its table at a time, its times included, and
    # formats it in blocks of a fixed number of cells.  numpy reports its
    # buffers to tracemalloc, so the bounds hold on any host: the peak is
    # about 1.14 MB at both grids for the bundled 5 columns and 1.41 MB for
    # 13, most of it the block writer's work arrays; with blocks of a
    # whole 4,096-row chunk they grew with the columns, to 2.96 MB and
    # 7.68 MB, and at 104 bytes a cell they were 1.55 MB and 1.82 MB.
    # Each bound is its peak plus about 10 %.  A first curve run allocates
    # for the rest of the process (about 0.15 MB more at any grid), so a
    # small one comes first.  With one CPU this process writes every
    # chunk: tracemalloc would not see a worker's buffers.
    bench_json["nbar_values"] = [0, 0.5, 1, 2, 5, 10, 20, 50, 100, 300, 1000, 1e4]
    wide = _write_config(tmp_path, bench_json)
    assert main(["--out", str(tmp_path), "--grid", "100", *flags, "curve"]) == 0
    for config, bound in (([], 1.25e6), (["--config", wide], 1.55e6)):
        peaks = {}
        for grid in (40000, 200000):
            tracemalloc.start()
            try:
                with _cpus(1):
                    argv = ["--out", str(tmp_path), *config, "--grid", str(grid), *flags, "curve"]
                    assert main(argv) == 0
                peaks[grid] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[200000] <= peaks[40000] + 0.25e6, (config, peaks)
        assert max(peaks.values()) < bound, (config, peaks)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _time_chunks(stop, num, rows):
    """Every chunk of ``rows`` rows of curve's time grid."""
    return [cli._time_rows(stop, num, lo, min(lo + rows, num)) for lo in range(0, num, rows)]


@pytest.mark.parametrize("grid", [2, 4095, 4096, 4097, 8191, 200000])
@pytest.mark.parametrize("periods", [1.0, 3.0, 0.37])
def test_time_chunks_are_linspace(bench_couplings, grid, periods):
    # curve's chunks of times join into np.linspace's grid bit for bit,
    # with the exact end on the last row; CI runs this on the oldest
    # supported numpy and on the latest.
    stop = periods * period(bench_couplings)
    chunks = _time_chunks(stop, grid + 1, _csvtext._CHUNK_ROWS)
    assert all(0 < len(t) <= _csvtext._CHUNK_ROWS for t in chunks)
    times = np.concatenate(chunks)
    assert _bits(times) == _bits(np.linspace(0.0, stop, grid + 1))
    assert times[-1] == stop


@pytest.mark.parametrize("stop", [1e-320, 5e-324, 1e-310])
def test_time_chunks_match_linspace_when_the_step_underflows(stop):
    # Where stop / (num - 1) underflows to 0 numpy divides each index by
    # num - 1 first; 1e-310's step is subnormal but not 0.
    num = 200001
    assert (stop / (num - 1) == 0) == (stop < 1e-310)
    times = np.concatenate(_time_chunks(stop, num, _csvtext._CHUNK_ROWS))
    assert _bits(times) == _bits(np.linspace(0.0, stop, num))
    assert times[-1] == stop


@given(
    stop=st.floats(5e-324, 1e300, allow_subnormal=True),
    num=st.integers(2, 3000),
    rows=st.integers(1, 700),
)
@settings(max_examples=100, deadline=None)
def test_time_chunks_match_linspace_in_any_split(stop, num, rows):
    times = np.concatenate(_time_chunks(stop, num, rows))
    assert _bits(times) == _bits(np.linspace(0.0, stop, num))


@given(
    table=arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 5)), elements=_narrow_cells),
    chunk_rows=st.integers(1, 7),
    cpus=st.sampled_from([1, 2]),
)
@settings(max_examples=50, deadline=None)
def test_chunks_write_the_table_they_hold(table, chunk_rows, cpus):
    # A table cut into chunks, one or many, some shared with a worker,
    # writes the bytes of the whole table.
    columns = list(table.T)
    buf = io.BytesIO()
    with mock.patch.object(_csvtext, "_CHUNK_ROWS", chunk_rows), _cpus(cpus):
        _csvtext.write_blocks(buf, "theta_t,F", len(table), _whole(columns))
    assert buf.getvalue() == _savetxt_bytes(columns)


def test_chunk_of_the_wrong_length_raises():
    # A chunk of more or fewer rows than its place in the table holds
    # raises, computed in the worker (chunk 1) or here (chunk 2).
    whole = _whole([np.arange(10.0), np.ones(10)])
    for bad, cpus, extra in itertools.product((1, 2), (1, 2), (-1, 1)):
        def columns(lo, hi):
            chunk = whole(lo, hi)
            if lo == 4 * bad:
                chunk = [np.append(c, c[:1]) if extra > 0 else c[:-1] for c in chunk]
            return chunk

        rows = 4 if bad == 1 else 2
        with mock.patch.object(_csvtext, "_CHUNK_ROWS", 4), _cpus(cpus):
            with pytest.raises(ValueError, match=f"chunk {bad} holds {rows + extra} rows, not {rows}"):
                _csvtext.write_blocks(io.BytesIO(), "a,b", 10, columns)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_unpicklable_exception_surfaces_in_either_process():
    # A chunk that raises an exception pickle cannot send, in the worker
    # (chunk 1) or here (chunk 2), raises that exception, as with one CPU.
    class Unpicklable(Exception):
        pass  # a local class: pickle cannot find it by name

    whole = _whole([np.arange(10.0), np.ones(10)])
    for bad, cpus in itertools.product((1, 2), (1, 2)):
        def columns(lo, hi):
            if lo == 4 * bad:
                raise Unpicklable(lo)
            return whole(lo, hi)

        with mock.patch.object(_csvtext, "_CHUNK_ROWS", 4), _cpus(cpus):
            with pytest.raises(Unpicklable):
                _csvtext.write_blocks(io.BytesIO(), "a,b", 10, columns)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_killed_worker_leaves_the_one_cpu_table(tmp_path, bench_couplings):
    # A worker killed before it sends chunk 1 leaves that chunk and the
    # rest to curve, which writes the one-CPU bytes, exits 0 and reaps it.
    kernel = protocol.fidelity_curves
    first = np.linspace(0.0, period(bench_couplings), 20001)[_csvtext._CHUNK_ROWS]
    parent = os.getpid()

    def killed(c, nbar_values, t, heterodyne=True):
        if t[0] == first and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return kernel(c, nbar_values, t, heterodyne)

    outputs = []
    for cpus in (1, 2):
        out = tmp_path / str(cpus)
        with _cpus(cpus), mock.patch.object(protocol, "fidelity_curves", killed):
            assert main(["--out", str(out), "--grid", "20000", "curve"]) == 0
        outputs.append([(out / name).read_bytes() for name in ("curve.csv", "summary.json")])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert outputs[0] == outputs[1]


@given(
    table=arrays(
        np.float64,
        st.tuples(st.integers(1, 40), st.integers(1, 5)),
        elements=st.one_of(
            _cells,
            st.sampled_from([-0.0, 1e-100, -2.5e-300, 1.234e150, 5e-324, 1e-310]),
            st.tuples(st.sampled_from([1e-5, 1e12]), st.sampled_from([-math.inf, math.inf])).map(
                lambda pd: math.nextafter(*pd)
            ),
        ),
    ),
    chunk_rows=st.integers(1, 7),
)
@settings(max_examples=100, deadline=None)
def test_small_table_matches_savetxt(table, chunk_rows):
    # Small tables of any floats, among them the longest %.12g text,
    # subnormals and the edges of exponent notation: the same bytes as
    # np.savetxt, which formats each row.
    columns = list(table.T)
    with mock.patch.object(_csvtext, "_CHUNK_ROWS", chunk_rows):
        assert _block_bytes(columns) == _savetxt_bytes(columns)


def test_couplings_command(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "couplings"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "parametric_rad_per_s" in out
    report = json.loads((tmp_path / "couplings.json").read_text())
    assert report["parametric_rad_per_s"] == pytest.approx(471730.8, abs=0.1)
    assert report["regime_warnings"] == []


#: `couplings` on the bundled config: stdout, then couplings.json.
COUPLINGS_STDOUT = """\
parametric_rad_per_s = 471730.808384
beam_splitter_rad_per_s = 471730.926316
oscillation_rad_per_s = 333.564095198
period_s = 0.0188365156731
stokes_freq_rad_per_s = 1.9999995e+15
anti_stokes_freq_rad_per_s = 2.0000005e+15
thermal_occupation = 0
regime: all assumptions hold
"""
COUPLINGS_JSON = """\
{
  "anti_stokes_freq_rad_per_s": 2000000500000000.0,
  "beam_splitter_rad_per_s": 471730.9263162916,
  "oscillation_rad_per_s": 333.564095198152,
  "parametric_rad_per_s": 471730.8083835747,
  "period_s": 0.018836515673088534,
  "regime_warnings": [],
  "stokes_freq_rad_per_s": 1999999500000000.0,
  "thermal_occupation": 0.0
}
"""
#: `readout` on the bundled config.
READOUT_STDOUT = """\
readout quality ratio = 5656.85 (PASS: threshold 10x)
readout time 0.00470912891827 s: mirror weight 2828.43, stokes weight 0.5, anti-stokes weight -0.5
readout time 0.0141273867548 s: mirror weight -2828.43, stokes weight 0.5, anti-stokes weight -0.5
readout time 0.0235456445914 s: mirror weight 2828.43, stokes weight 0.5, anti-stokes weight -0.5
nbar 0: feed-forward window unconstrained
nbar 1: feed-forward window 1 s
nbar 10: feed-forward window 0.1 s
nbar 1000: feed-forward window 0.001 s
"""


def test_couplings_output_is_pinned(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "couplings"]) == 0
    assert capsys.readouterr().out == COUPLINGS_STDOUT
    assert (tmp_path / "couplings.json").read_text() == COUPLINGS_JSON


def test_readout_output_is_pinned(capsys):
    assert main(["readout"]) == 0
    assert capsys.readouterr().out == READOUT_STDOUT


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


@pytest.mark.parametrize("nbar_values, limited", [(None, False), ([1e24], True)])
def test_curve_warns_when_rounding_limits_the_peak(
    tmp_path, bench_json, capsys, bench_couplings, nbar_values, limited
):
    # At nbar = 1e24 float64 times near the revival leave the heterodyne-free
    # bracket at nbar (2 pi r 2^-53)^2 ~ 1 on the bundled rates, so F at the
    # best float time is 0.5, not 0.8.  The bundled occupations are far from
    # that.  curve reports the closed-form maximum in both cases, so it has
    # nothing to warn about and writes nothing to stderr.
    if nbar_values is not None:
        bench_json["nbar_values"] = nbar_values
    cfg = _write_config(tmp_path, bench_json)
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "--grid", "50", "curve"]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    peak = peak_fidelity(bench_couplings, heterodyne=False)
    assert summary["per_nbar"]
    for key, entry in summary["per_nbar"].items():
        assert entry["F_max_no_heterodyne"] == peak
        sampled = optimal_time(bench_couplings, float(key), heterodyne=False)[1]
        assert (sampled < peak - 0.1) == limited, (key, sampled)


def test_curve_requires_out():
    assert main(["curve"]) == 3


def test_main_calls_parse_independently(tmp_path):
    # No flag of one call in a process carries into the next.
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["--out", str(first), "--grid", "100", "--no-heterodyne", "curve"]) == 0
    assert main(["--out", str(second), "curve"]) == 0
    assert main(["curve"]) == 3  # no --out carried over
    summary = json.loads((second / "summary.json").read_text())
    assert summary["curve"]["variant"] == "heterodyne"
    assert summary["curve"]["grid_points"] == 2000
    assert len((second / "curve.csv").read_text().splitlines()) == 2002


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


def test_summary_peak_is_the_fidelity_at_its_time(tmp_path, bench_config, bench_couplings):
    # The benchmark's check of summary.json on every CI entry: for each nbar,
    # fidelity_coherent on the closed form at t_star_s is F_max to 1e-12
    # relative, and fidelity_curves at that time is F_max exactly.
    assert main(["--out", str(tmp_path), "curve"]) == 0
    per_nbar = json.loads((tmp_path / "summary.json").read_text())["per_nbar"]
    assert list(per_nbar) == [f"{nbar:.12g}" for nbar in bench_config.nbar_values]
    for nbar, entry in zip(bench_config.nbar_values, per_nbar.values()):
        t_star, f_max = entry["t_star_s"], entry["F_max"]
        at_t = fidelity_coherent(coeffs_analytic(bench_couplings, nbar, t_star))
        assert at_t == pytest.approx(f_max, rel=1e-12, abs=0.0)
        assert fidelity_curves(bench_couplings, (nbar,), t_star)[0] == f_max


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
    # A gate that fails makes verify exit 2: here the ODE residual, which a
    # closed form off by 1e-7 relative breaks by about that much, held to its
    # own 1e-8.
    closed = dynamics.coeffs_analytic

    def corrupted(couplings, nbar, time):
        g = closed(couplings, nbar, time)
        return replace(g, stokes_anti=g.stokes_anti * (1.0 + 1e-7))

    monkeypatch.setattr(dynamics, "coeffs_analytic", corrupted)
    rc = main(["--out", str(tmp_path), "verify"])
    assert rc == 2
    text = (tmp_path / "verify.txt").read_text()
    assert "FAIL ode-vs-analytic" in text
    assert "verification FAILED" in text


def test_fidelity_identity_gate_fails_on_a_raised_n_eff(tmp_path, monkeypatch):
    # Gate 5 compares the factored n_eff with the coefficient formula's, so a
    # factored n_eff raised by 1e-9 relative fails it; F = 1/(1 + n_eff)
    # checked on one n_eff could not fail.
    noise = protocol._FactoredParts.noise

    def raised(self, nbar, heterodyne=True):
        return noise(self, nbar, heterodyne) * (1.0 + 1e-9)

    monkeypatch.setattr(protocol._FactoredParts, "noise", raised)
    assert main(["--out", str(tmp_path), "verify"]) == 2
    text = (tmp_path / "verify.txt").read_text()
    assert "FAIL fidelity-identity" in text
    assert "verification FAILED" in text


def test_verify_fails_on_an_unphysical_channel(tmp_path, monkeypatch):
    # Gate 4 is the only check of the channel's physicality.  Zero variances
    # with a correlation of +-5 break the uncertainty principle; one such
    # matrix, at one time of one nbar's stack, fails it.  Gate 7 teleports
    # through every tenth grid time only, so time 7 fails gate 4 alone.
    bad = np.zeros((4, 4))
    bad[0, 2] = bad[2, 0] = 5.0
    bad[1, 3] = bad[3, 1] = -5.0
    channel = protocol.conditional_correlation

    def unphysical(couplings, nbar, time):
        chan = channel(couplings, nbar, time)
        if nbar != 1.0:
            return chan
        matrix = chan.matrix.copy()
        matrix[7] = bad
        return replace(chan, matrix=matrix)

    monkeypatch.setattr(protocol, "conditional_correlation", unphysical)
    assert main(["--out", str(tmp_path), "verify"]) == 2
    text = (tmp_path / "verify.txt").read_text()
    fails = [line.split(":")[0] for line in text.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL conditional-physicality"]
    assert "verification FAILED" in text


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({"mirror_freq_rad_per_s": f}, id=str(f))
        for f in (5.91e8, 4.46e5, 1e11, 1.96e15, 5.27e13)
    ]
    + [
        pytest.param({"mirror_freq_rad_per_s": 2e15 / (2 * r * r + 1)}, id=f"r-{r:g}")
        for r in (5000.0, 3.7e4)
    ]
    + [
        pytest.param({"nbar_values": [1e250]}, id="nbar-1e250"),
        pytest.param({"det_bandwidth_hz": 9.110999749934671e-161}, id="tiny-bandwidth"),
        pytest.param(
            {"power_watts": 8.242354689908549e-257, "mode_bandwidth_hz": 1.2930625549909084e69},
            id="tiny-power",
        ),
    ],
)
def test_verify_passes_on_exact_propagators(tmp_path, bench_json, overrides):
    # Near a revival M(t1 + t2) ~ I while the factors of M(t1) M(t2) are
    # ~r^2: the group gate must scale its residual by the factors.  At
    # 1.96e15 (r ~ 0.1) the ODE gate's times around the peak span pi in x,
    # its cap, and at 5.27e13 (r ~ 4.3) they span 5/r.  The last two make
    # rates so small that their squares underflow: the propagator must be
    # built from the rate ratios.  At r = 5000 and 3.7e4 (laser
    # 2e15 rad/s) the n_eff gate's coefficient formula rounds its ~r^4-sized
    # terms to a negative n_eff, a gap the gate must measure relative to the
    # state; at nbar 1e250 that formula must not square its ~nbar r^2 terms.
    bench_json.update(overrides)
    cfg = _write_config(tmp_path, bench_json)
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "verify"]) == 0


def test_verify_passes_at_moderate_nbar(tmp_path, bench_json):
    # r ~ 1.4 and r ~ 10 at large nbar: mirror_anti ~ sin x passes through
    # zero, so a gate must scale its error, ~nbar, by the state, not by each
    # coefficient.
    for mirror_freq, nbar in [(4e14, 1e4), (9.95e12, 1e8)]:
        bench_json.update({"mirror_freq_rad_per_s": mirror_freq, "nbar_values": [nbar]})
        cfg = _write_config(tmp_path, bench_json)
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), "verify"]) == 0, nbar


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


def _gate_times(c):
    """Gate 2's times, which gates 4-7 share: one period's 101-point grid,
    both peak times and 40 more times near the heterodyne peak."""
    t_het, t_no_het, half_width = peak_times(c)
    near = t_het + np.delete(np.linspace(-half_width, half_width, 41), 20) / c.oscillation
    return np.concatenate([np.linspace(0.0, period(c), 101), [t_het, t_no_het], near])


@pytest.mark.parametrize("fixture", ["moderate", "bench_couplings"])
def test_gates_reach_the_peaks(request, monkeypatch, fixture):
    # Gate 3 adds both peak times to its golden-ratio times, and gates 4-7
    # take gate 2's times: t = 0, both peak times and 41 times within 5/r in
    # x of the heterodyne peak (pi at most), none of them twice.  Gates 4
    # and 5 call the channel functions, and gate 5 the moment route, on
    # (couplings, nbar, those times).
    # Gate 7 teleports through every tenth grid time and every peak time.
    c = request.getfixturevalue(fixture)
    calls = {}
    for module, name in (
        (dynamics, "propagator"),
        (dynamics, "coeffs_analytic"),
        (dynamics, "coeffs_from_propagator"),
        (protocol, "conditional_correlation"),
        (protocol, "effective_occupation"),
        (protocol, "teleport_covariance"),
    ):
        def recorded(*args, _f=getattr(module, name), _name=name):
            calls.setdefault(_name, []).append(args)
            return _f(*args)

        monkeypatch.setattr(module, name, recorded)
    assert all(ok for *_, ok in _run_gates(c, NBAR_SET))
    # Gate 3's two stacks, then one of the moment route per nbar.
    assert len(calls["propagator"]) == 2 + len(NBAR_SET)
    group = np.asarray(calls["propagator"][0][1])
    assert len(group) == 102
    assert np.array_equal(group[100:], peak_times(c)[:2])
    names = (
        "coeffs_analytic",
        "coeffs_from_propagator",
        "conditional_correlation",
        "effective_occupation",
    )
    for name in names:
        assert [args[:2] for args in calls[name]] == [(c, nbar) for nbar in NBAR_SET]
    triples = [args for name in names for args in calls[name]]
    for times in [np.asarray(args[2]) for args in triples]:
        assert_reaches_the_peaks(c, times)
        assert len(np.unique(times)) == len(times) == 101 + 2 + 40
    ((channel, _),) = calls["teleport_covariance"]
    assert channel.matrix.shape == (len(NBAR_SET), 11 + 2 + 40, 4, 4)


@pytest.mark.parametrize("fixture", ["moderate", "bench_couplings"])
def test_physicality_gate_is_the_scalar_check(request, fixture):
    # The gate's one stacked closed form per nbar gives exactly the
    # worst scaled defect of the scalar conditional_correlation route.
    c = request.getfixturevalue(fixture)
    worst = 0.0
    for nbar in NBAR_SET:
        for t in _gate_times(c):
            chan = conditional_correlation(c, nbar, float(t))
            scale = max(1.0, float(np.abs(chan.matrix).max()))
            worst = max(worst, physicality_defect(chan) / scale)
    gates = {name: defect for name, defect, *_ in _run_gates(c, NBAR_SET)}
    assert gates["conditional-physicality"] == worst


@pytest.mark.parametrize("fixture", ["moderate", "bench_couplings"])
def test_gates_solve_no_eigenproblem(request, monkeypatch, fixture):
    # The physicality gate is a closed form: every gate passes with
    # numpy.linalg's eigen solvers broken, so verify calls no LAPACK eigensolver.
    def broken(*args, **kwargs):
        raise AssertionError("an eigenvalue solve")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, broken)
    assert all(ok for *_, ok in _run_gates(request.getfixturevalue(fixture), NBAR_SET))


@pytest.mark.parametrize("fixture", ["moderate", "bench_couplings"])
def test_teleport_noise_gate_is_the_scalar_check(request, fixture):
    # The gate teleports the vacuum through one stacked channel per nbar,
    # the scalar route through each checked channel alone: the same
    # teleport_covariance, so the same defect, bit for bit.
    c = request.getfixturevalue(fixture)
    gin = CovMatrix2.vacuum()
    times = _gate_times(c)
    worst = 0.0
    for nbar in NBAR_SET:
        for t in np.concatenate([times[:101:10], times[101:]]):
            gout = teleport_covariance(conditional_correlation(c, nbar, float(t)), gin)
            n_eff = effective_occupation(c, nbar, float(t))
            for i in (0, 1):
                added = gout.matrix[i, i] - gin.matrix[i, i]
                worst = max(worst, abs(added - n_eff) / max(1.0, n_eff))
    gates = {name: defect for name, defect, *_ in _run_gates(c, NBAR_SET)}
    assert gates["teleport-noise"] == worst


@pytest.mark.parametrize("fixture", ["moderate", "bench_couplings"])
def test_propagator_gates_are_the_per_time_loops(request, fixture):
    # Gates 3 and 6 take stacks of propagators; the per-time loops they
    # replace give the same defects.  The scalar closed form may differ
    # from the array one by an ulp (numpy's scalar x**2), which moves a
    # scaled gap by at most about eps.
    c = request.getfixturevalue(fixture)
    t_het, t_no_het, _ = peak_times(c)
    golden = period(c) * ((np.arange(1, 101) * ((math.sqrt(5.0) - 1.0) / 2.0)) % 1.0)
    times = [*golden, t_het, t_no_het]
    props = [propagator(c, t) for t in times]
    group = 0.0
    for t1, t2, p1, p2 in zip(times[:51], times[51:], props[:51], props[51:]):
        m12 = propagator(c, t1 + t2)
        scale = max(1.0, np.abs(p1).max()) * max(1.0, np.abs(p2).max())
        group = max(group, np.abs(m12 - p1 @ p2).max() / scale)
    moment = 0.0
    for nbar in NBAR_SET[:2]:
        for t in _gate_times(c):
            mom = coeffs_from_propagator(c, nbar, t)
            moment = max(moment, _scaled_gap(coeffs_analytic(c, nbar, t), mom))
    gates = {name: defect for name, defect, *_ in _run_gates(c, NBAR_SET)}
    assert gates["propagator-metric"] == max(symplectic_defect(p) for p in props)
    assert gates["propagator-group"] == group
    assert gates["moment-route"] == pytest.approx(moment, rel=0, abs=4 * np.finfo(float).eps)


def test_readout_command(capsys):
    assert main(["readout"]) == 0
    out = capsys.readouterr().out
    assert "readout quality ratio" in out and "PASS" in out
    assert "feed-forward window" in out
