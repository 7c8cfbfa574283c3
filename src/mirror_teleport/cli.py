"""Command-line interface: config ingestion, sweeps, persistence, verification.

Subcommands
-----------
couplings   derived interaction rates, thermal occupation, regime warnings
curve       fidelity-vs-time sweep -> curve.csv + summary.json
verify      self-verification gates (oracles and invariants) -> verify.txt
readout     readout times, weights, quality ratio, decoherence windows

Only ``curve`` and ``verify`` import numpy, and with it the package's
numeric modules, inside the functions that use them: ``couplings`` and
``readout`` compute with Python floats and start without it.  The gates
are in ``gates``, which only ``verify`` loads.  Importing this module sets
``OPENBLAS_NUM_THREADS`` to 1 unless it is already set.

The command line is read by ``_parse_args``, not argparse, whose messages
go through gettext and so load ``locale`` in every process.  It reads a
command line as argparse did, unique prefixes of the flags and
``--flag=value`` included, and rejects what argparse rejected with
argparse's usage line and message; ``-h`` prints argparse's help as
formatted for 80 columns.  A value after ``=`` is taken as written,
``--`` included.

Exit codes: 0 success, 1 config or usage error, 2 verification-gate failure,
3 I/O error.  A command whose numpy arithmetic overflows or yields NaN exits
1: the config's values leave the float64 range.  All data files are
deterministic: identical configs produce byte-identical outputs (no
timestamps anywhere).

``curve.csv`` holds every value as ``"%.12g"``, byte for byte as
``np.savetxt`` writes it, through ``_csvtext``.  Every table is formatted in
blocks of rows with array arithmetic, five 4-byte words per cell in fixed
notation or, below 1e-4, in exponent notation.  Python's own ``"%.12g"``
formats every cell whose digits that arithmetic cannot prove correct: one
within 2e-4 of a rounding tie (``_csvtext``'s docstring has the proof), or
zero, negative or outside [1e-99, 1e3), the range of fidelities and the
bundled times.
``_csvtext`` cuts the table into chunks and asks ``curve`` for each one's
rows, whose times ``curve`` builds from their row indices, so it holds no
full-length array and its memory does not grow with ``--grid``.  A table
of two or more chunks is shared with one forked worker, when the process
may run on two or more CPUs (``os.sched_getaffinity``) and the platform
has ``os.fork``: the worker computes and formats the odd chunks, and
``curve`` the even ones and any the worker did not send, writing every
chunk in row order, so the bytes and any failure are those of one process.
The worker shares ``curve``'s pages, so the run's peak resident set is the
larger of the two processes', not their sum; no worker outlives the command.
A ``curve`` that fails, say because a chunk's values leave the float64
range (exit 1) or a write fails (exit 3), leaves neither ``curve.csv`` nor
``summary.json`` in ``--out``, not even an earlier run's.
``summary.json``'s heterodyne-free maximum is
``protocol.peak_fidelity``, exact where float64 times near its peak are not.

A process started as ``mirror-teleport`` or ``python -m mirror_teleport.cli``
runs ``run()``: ``main()``, then a flush of stdout and stderr, then
``os._exit`` with ``main``'s code, or 3 if a flush fails (say, stdout is a
full disk).  The interpreter's teardown, its final garbage collections and
the freeing of numpy's modules and of every object one at a time, is
skipped: on a 2-core host it took 10-18 ms of each numpy command.  Nothing
is lost by that: a command closes every file it writes and reaps its
worker, and nothing here registers an ``atexit`` hook.  An exception that
escapes ``main()`` ends the process the normal way, with its traceback.
``main()`` itself returns its code to in-process callers and leaves the
garbage collector as it was.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from pathlib import Path

# The matrices here are at most 4x4, so OpenBLAS never splits their work, yet
# on load it starts a worker per core that spins for a while: on a small or
# shared host that steals CPU from whatever runs right after numpy's import.
# Set before numpy loads, whoever imports it; an explicit setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from ._record import record, replace
from .errors import ConfigError, DomainError
from .optomech import (
    Couplings,
    PhysicalParams,
    compute_couplings,
    period,
    sideband_frequencies,
    thermal_occupation,
    validate_regime,
)

_TWO_PI = 2.0 * math.pi

@record
class RunConfig:
    """Validated run configuration."""

    params: PhysicalParams
    nbar_values: tuple[float, ...]
    nbar_from_temperatures: bool
    grid_points: int
    periods: float
    readout_count: int

    def __post_init__(self):
        # Checked here, not in load_config, so that --grid/--periods are too.
        if self.grid_points < 2:
            raise ConfigError(f"grid_points must be >= 2, got {self.grid_points}")
        if not 0 < self.periods < math.inf:
            raise ConfigError(f"periods must be finite and > 0, got {self.periods}")


def _number(value, field: str, kind=float):
    """``value`` as a finite float, or an int for kind=int; JSON strings,
    bools and, for an int field, non-integral numbers are rejected."""
    allowed = int if kind is int else (int, float)
    if isinstance(value, allowed) and not isinstance(value, bool):
        try:
            if kind is int or math.isfinite(value):
                return kind(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ConfigError(f"config field {field!r} has invalid value {value!r}")


#: Every top-level config field; any other key is a config error.
_KNOWN_FIELDS = frozenset("""
    power_watts angular_frequencies laser_freq_rad_per_s mirror_freq_rad_per_s
    laser_freq_hz mirror_freq_hz det_bandwidth_hz mode_bandwidth_hz mass_kg
    incidence_angle_rad temperature_k damping_hz nbar_values temperatures_k
    grid_points periods readout_times_count
""".split())


def _get(raw: dict, field: str, kind=float, required: bool = True, default=None):
    if field not in raw:
        if required:
            raise ConfigError(f"missing required config field: {field!r}")
        return default
    return _number(raw[field], field, kind)


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration, read as UTF-8 whatever
    the locale."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    try:
        raw = json.loads(text)
    # ValueError: a JSONDecodeError, or an integer past Python's digit limit;
    # RecursionError: arrays or objects nested too deep.
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - _KNOWN_FIELDS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")

    angular = raw.get("angular_frequencies", True)
    if not isinstance(angular, bool):
        raise ConfigError(
            f"config field 'angular_frequencies' must be true or false, got {angular!r}"
        )
    other = ("laser_freq_hz", "mirror_freq_hz") if angular else (
        "laser_freq_rad_per_s", "mirror_freq_rad_per_s"
    )
    mixed = [field for field in other if field in raw]
    if mixed:
        raise ConfigError(
            f"config mixes frequency conventions: {mixed} with "
            f"angular_frequencies {json.dumps(angular)}"
        )
    if angular:
        laser = _get(raw, "laser_freq_rad_per_s")
        mirror = _get(raw, "mirror_freq_rad_per_s")
    else:
        laser = _TWO_PI * _get(raw, "laser_freq_hz")
        mirror = _TWO_PI * _get(raw, "mirror_freq_hz")
    try:
        params = PhysicalParams(
            power=_get(raw, "power_watts"),
            laser_freq=laser,
            mirror_freq=mirror,
            det_bandwidth=_get(raw, "det_bandwidth_hz"),
            mode_bandwidth=_get(raw, "mode_bandwidth_hz"),
            mass=_get(raw, "mass_kg"),
            incidence_angle=_get(raw, "incidence_angle_rad", required=False, default=0.0),
            temperature=_get(raw, "temperature_k", required=False, default=0.0),
            damping=_get(raw, "damping_hz", required=False, default=0.0),
        )
    except DomainError as exc:
        raise ConfigError(f"invalid physical parameters: {exc}") from exc

    from_temps = "nbar_values" not in raw
    field = "temperatures_k" if from_temps else "nbar_values"
    if ("nbar_values" in raw) == ("temperatures_k" in raw):
        raise ConfigError("config must provide exactly one of nbar_values and temperatures_k")
    values = raw[field]
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{field} must be a non-empty JSON array")
    values = [_number(v, field) for v in values]
    if any(v < 0 for v in values):
        raise ConfigError(f"{field} must be >= 0")
    if from_temps:
        values = [thermal_occupation(t, params.mirror_freq) for t in values]
    # Each nbar labels a curve.csv column and a summary.json entry.
    labels = [f"{v:.12g}" for v in values]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ConfigError(
            f"{field} gives nbar values that print alike as %.12g: {repeated}"
        )
    nbar_values = tuple(values)

    readout_count = _get(raw, "readout_times_count", kind=int, required=False, default=3)
    if readout_count < 0:
        raise ConfigError(f"readout_times_count must be >= 0, got {readout_count}")

    return RunConfig(
        params=params,
        nbar_values=nbar_values,
        nbar_from_temperatures=from_temps,
        grid_points=_get(raw, "grid_points", kind=int, required=False, default=2000),
        periods=_get(raw, "periods", required=False, default=1.0),
        readout_count=readout_count,
    )


def bundled_config_path() -> Path:
    """Path of the benchmark configuration bundled with the package."""
    return Path(__file__).with_name("data") / "fig2.json"


def _summary(config: RunConfig, couplings: Couplings) -> dict:
    from . import protocol

    t_period = period(couplings)
    f_nh = protocol.peak_fidelity(couplings, heterodyne=False)
    per_nbar = {}
    for nbar in config.nbar_values:
        t_star, f_max = protocol.optimal_time(couplings, nbar)
        per_nbar[f"{nbar:.12g}"] = {
            "F_max": f_max,
            "t_star_s": t_star,
            "scaled_t_star": couplings.oscillation * t_star,
            "neff_min": 1.0 / f_max - 1.0,
            "F_max_no_heterodyne": f_nh,
        }
    return {
        "couplings": {
            "parametric_rad_per_s": couplings.parametric,
            "beam_splitter_rad_per_s": couplings.beam_splitter,
            "oscillation_rad_per_s": couplings.oscillation,
        },
        "period_s": t_period,
        "per_nbar": per_nbar,
    }


def _write_json(path: Path, payload: dict) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # NaN or Inf: the config left the float64 range
        raise DomainError(f"{path.name} would hold a non-finite value") from exc
    path.write_text(text + "\n")


def cmd_couplings(config: RunConfig, out_dir: Path | None) -> int:
    if out_dir is not None:  # a run that raises leaves no earlier run's file
        (out_dir / "couplings.json").unlink(missing_ok=True)
    couplings = compute_couplings(config.params)
    stokes, anti = sideband_frequencies(config.params)
    nbar = thermal_occupation(config.params.temperature, config.params.mirror_freq)
    warnings = validate_regime(config.params)
    report = {
        "parametric_rad_per_s": couplings.parametric,
        "beam_splitter_rad_per_s": couplings.beam_splitter,
        "oscillation_rad_per_s": couplings.oscillation,
        "period_s": period(couplings),
        "stokes_freq_rad_per_s": stokes,
        "anti_stokes_freq_rad_per_s": anti,
        "thermal_occupation": nbar,
        "regime_warnings": warnings,
    }
    for key, value in report.items():
        if key == "regime_warnings":
            continue
        print(f"{key} = {value:.12g}")
    if warnings:
        for w in warnings:
            print(f"warning: {w}")
    else:
        print("regime: all assumptions hold")
    if out_dir is not None:
        _write_json(out_dir / "couplings.json", report)
    return 0


def _time_rows(stop: float, num: int, lo: int, hi: int):
    """Rows lo up to hi of ``np.linspace(0.0, stop, num)`` (``num >= 2``),
    bit for bit: numpy's own arithmetic on the row indices, so the whole
    grid is never held."""
    import numpy as np

    t = np.arange(lo, hi, dtype=float)
    step = stop / (num - 1)
    if step == 0:  # the step underflows: divide first, as numpy does
        t /= num - 1
        t *= stop
    else:
        t *= step
    if hi == num:
        t[-1] = stop
    return t


def cmd_curve(config: RunConfig, out_dir: Path, no_heterodyne: bool = False) -> int:
    import numpy as np

    from . import _csvtext, protocol

    couplings = compute_couplings(config.params)
    t_period = period(couplings)
    stop, rows = config.periods * t_period, config.grid_points + 1

    def columns(lo, hi):
        # Rows lo up to hi, bit for bit those rows of the whole grid, so no
        # full-length array, not even the grid, is ever held, and either
        # process of the writer can compute any chunk.
        t = _time_rows(stop, rows, lo, hi)
        chunk = [
            couplings.oscillation * t,
            *protocol.fidelity_curves(
                couplings, config.nbar_values, t, heterodyne=not no_heterodyne
            ),
        ]
        if not all(np.isfinite(col).all() for col in chunk):
            raise DomainError("the fidelity curve is outside the float64 range")
        return chunk

    header = "theta_t," + ",".join(f"F_nbar_{v:.12g}" for v in config.nbar_values)
    curve_path, summary_path = out_dir / "curve.csv", out_dir / "summary.json"
    # A run that raises leaves neither file, nor either of an earlier run's:
    # the table replaces the old curve.csv, and the old summary goes first.
    try:
        summary_path.unlink(missing_ok=True)
        # The same bytes as np.savetxt(fmt="%.12g"); see the module docstring.
        with open(curve_path, "wb") as fh:
            _csvtext.write_blocks(fh, header, rows, columns)
        summary = _summary(config, couplings)
        summary["curve"] = {
            "variant": "no_heterodyne" if no_heterodyne else "heterodyne",
            "grid_points": config.grid_points,
            "periods": config.periods,
            "nbar_from_temperatures": config.nbar_from_temperatures,
        }
        _write_json(summary_path, summary)
    except BaseException:
        curve_path.unlink(missing_ok=True)
        summary_path.unlink(missing_ok=True)
        raise
    print(f"wrote {curve_path} and {summary_path}")
    return 0


def _run_gates(couplings: Couplings, nbar_values):
    """Yield (gate_name, measured_defect, tolerance, passed) for each gate of
    ``gates.run``, which says what each one checks.  ``verify`` and the
    acceptance scorecard run the gates through this generator, and the
    benchmark's tracer times each gate by wrapping it by name."""
    from . import gates

    yield from gates.run(couplings, nbar_values)


def cmd_verify(config: RunConfig, out_dir: Path | None) -> int:
    if out_dir is not None:  # a run that raises leaves no earlier run's file
        (out_dir / "verify.txt").unlink(missing_ok=True)
    # Loaded before the first gate runs, so no gate's time includes it.
    from . import gates  # noqa: F401

    lines = []
    all_ok = True
    for name, defect, tolerance, ok in _run_gates(
        compute_couplings(config.params), config.nbar_values
    ):
        all_ok = all_ok and ok
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status} {name}: defect {defect:.3e} (tolerance {tolerance:.1e})")
    lines.append("verification " + ("PASSED" if all_ok else "FAILED"))
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if out_dir is not None:
        (out_dir / "verify.txt").write_text(text)
    return 0 if all_ok else 2


def cmd_readout(config: RunConfig) -> int:
    from . import readout

    couplings = compute_couplings(config.params)
    quality = readout.readout_quality(couplings)
    verdict = "PASS" if quality >= readout.QUALITY_THRESHOLD else "FAIL"
    print(f"readout quality ratio = {quality:.6g} "
          f"({verdict}: threshold {readout.QUALITY_THRESHOLD:g}x)")
    for t in readout.readout_times(couplings, config.readout_count):
        w = readout.readout_weights(couplings, t)
        print(
            f"readout time {t:.12g} s: mirror weight {w.mirror_weight:.6g}, "
            f"stokes weight {w.stokes_weight:.6g}, "
            f"anti-stokes weight {w.anti_weight:.6g}",
        )
    if config.params.damping > 0:
        for nbar in config.nbar_values:
            window = readout.decoherence_window(config.params.damping, nbar)
            text = "unconstrained" if math.isinf(window) else f"{window:.6g} s"
            print(f"nbar {nbar:.12g}: feed-forward window {text}")
    else:
        print("damping is 0: feed-forward windows unconstrained")
    return 0


#: The options: each option string's destination and its value's type,
#: None for one that takes no value.
_OPTIONS = {
    "-h": ("help", None),
    "--help": ("help", None),
    "--config": ("config", str),
    "--out": ("out", str),
    "--grid": ("grid", int),
    "--periods": ("periods", float),
    "--no-heterodyne": ("no_heterodyne", None),
}
_COMMANDS = ("couplings", "curve", "verify", "readout")
_USAGE = """\
usage: mirror-teleport [-h] [--config CONFIG] [--out OUT] [--grid GRID]
                       [--periods PERIODS] [--no-heterodyne]
                       {couplings,curve,verify,readout}
"""
_HELP = _USAGE + """
Radiation-pressure teleportation onto a vibrating mirror: couplings, fidelity
curves, self-verification and readout analysis.

positional arguments:
  {couplings,curve,verify,readout}

options:
  -h, --help            show this help message and exit
  --config CONFIG       path to a JSON run config (default: bundled fig2.json)
  --out OUT             output directory
  --grid GRID           override grid_points
  --periods PERIODS     override sweep length in periods
  --no-heterodyne       curve: use the variant without the anti-Stokes
                        heterodyne
"""


class _UsageError(Exception):
    """A command line that ``_parse_args`` rejects."""


def _option(token: str):
    """None if ``token`` is an argument, else (option string, the value
    after it in the token or None); the option string is "" for an unknown
    option.  A long option may be cut to a unique prefix, and ``-h`` may be
    followed by more letters."""
    if token in _OPTIONS:
        return token, None
    if token[:1] != "-" or token == "-":
        return None
    name, eq, value = token.partition("=")
    if eq and name in _OPTIONS:
        return name, value
    if token[1] == "-":
        matches = [option for option in _OPTIONS if option.startswith(name)]
        value = value if eq else None
    else:
        matches, value = ["-h"] if token.startswith("-h") else [], token[2:]
    if len(matches) > 1:
        raise _UsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], value
    if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
        return None  # a negative number, or an argument with a space
    return "", None


def _parse_args(argv: list[str]):
    """The command line ``argv`` as a dict of the options' values and the
    command, or None for ``-h``/``--help``.

    Every command line is read as argparse reads it: flags before or after
    the command, ``--flag value`` or ``--flag=value``, the last of a
    repeated flag winning, and everything after ``--`` an argument.  One
    that it rejects raises ``_UsageError`` with argparse's message.
    """
    kinds = []  # per token: what _option makes of it, or "--"
    for i, token in enumerate(argv):
        if token == "--":
            kinds += ["--"] + [None] * (len(argv) - i - 1)
            break
        kinds.append(_option(token))
    args = dict(config=None, out=None, grid=None, periods=None, no_heterodyne=False, command=None)
    extras, i = [], 0
    while i < len(argv):
        kind, token = kinds[i], argv[i]
        i += 1
        if kind is None or kind == "--":
            if args["command"] is not None or (kind == "--" and i == len(argv)):
                extras.append(token)
                continue
            # The command drops the first "--", just before or after it.
            if kind == "--":
                token, i = argv[i], i + 1
            elif i < len(argv) and kinds[i] == "--":
                i += 1
            if token not in _COMMANDS:
                choices = ", ".join(map(repr, _COMMANDS))
                raise _UsageError(
                    f"argument command: invalid choice: {token!r} (choose from {choices})"
                )
            args["command"] = token
            continue
        option, value = kind
        if not option:
            extras.append(token)
            continue
        dest, convert = _OPTIONS[option]
        name = "-h/--help" if dest == "help" else option
        if convert is None:
            if option == "-h" and value:  # -hh... is -h -h ...
                value = value.lstrip("h") or None
            if value is not None:
                raise _UsageError(f"argument {name}: ignored explicit argument {value!r}")
            if dest == "help":
                return None
            args[dest] = True
            continue
        if value is None:
            if i == len(argv) or kinds[i] is not None:
                raise _UsageError(f"argument {name}: expected one argument")
            value, i = argv[i], i + 1
        try:
            args[dest] = convert(value)
        except ValueError:
            raise _UsageError(
                f"argument {name}: invalid {convert.__name__} value: {value!r}"
            ) from None
    if args["command"] is None:
        raise _UsageError("the following arguments are required: command")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as exc:  # a usage error is a config error
        print(f"{_USAGE}mirror-teleport: error: {exc}", file=sys.stderr)
        return 1
    if args is None:
        print(_HELP, end="")
        return 0
    try:
        config_path = args["config"] or bundled_config_path()
        config = load_config(config_path)
        flags = {"grid_points": args["grid"], "periods": args["periods"]}
        config = replace(config, **{k: v for k, v in flags.items() if v is not None})
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    out_dir = None
    if args["out"] is not None:
        out_dir = Path(args["out"])
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"i/o error: cannot create {out_dir}: {exc}", file=sys.stderr)
            return 3

    try:
        # These two compute with Python floats, which np.errstate does not govern.
        if args["command"] == "couplings":
            return cmd_couplings(config, out_dir)
        if args["command"] == "readout":
            return cmd_readout(config)
        if args["command"] == "curve" and out_dir is None:
            print("i/o error: curve requires --out", file=sys.stderr)
            return 3
        import numpy as np

        # An overflow or NaN in the closed forms means the config's values
        # leave the float64 range; a result computed past one is not reported.
        with np.errstate(over="raise", invalid="raise"):
            if args["command"] == "curve":
                return cmd_curve(config, out_dir, no_heterodyne=args["no_heterodyne"])
            return cmd_verify(config, out_dir)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"config error: the values leave the float64 range ({exc})", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def run():
    """Process entry: ``main()`` on ``sys.argv``, then ``os._exit``.

    The console script and ``python -m mirror_teleport.cli`` call this;
    ``main`` itself returns to in-process callers.  See the module docstring
    for what the exit skips.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when its descriptor was closed
                stream.flush()
    except OSError as exc:
        code = 3
        if sys.stderr is not None:
            try:
                print(f"i/o error: cannot write the output: {exc}", file=sys.stderr, flush=True)
            except OSError:
                pass
    os._exit(code)


if __name__ == "__main__":
    run()
