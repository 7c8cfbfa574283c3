"""Command-line interface: config ingestion, sweeps, persistence, verification.

Subcommands
-----------
couplings   derived interaction rates, thermal occupation, regime warnings
curve       fidelity-vs-time sweep -> curve.csv + summary.json
verify      self-verification gates (oracles and invariants) -> verify.txt
readout     readout times, weights, quality ratio, decoherence windows

Only ``curve`` imports numpy, inside the function that uses it, and only
after it has loaded ``protocol`` and then ``_csvtext``: without a bytecode
cache they then compile before numpy loads, and numpy's import reuses the
memory the compiler freed (0.5-0.6 MB of ``curve``'s peak).
``couplings`` and ``readout`` compute with Python floats, and so does
``verify``: its gates, in ``gates``, which only ``verify`` loads, make
each time's trig once and evaluate the package's closed forms, the
kernels its public functions wrap, on it at every nbar, one float time at
a time, keeping nothing across times but each gate's worst defect, and
neither they nor any module they load import numpy.  ``curve`` evaluates
the fidelity kernel, the one closed form that also takes an array of
times, from the same source.  Importing this module before numpy sets
``OPENBLAS_NUM_THREADS`` to 1 unless it is already set.

The command line is read by ``_argv._parse_args``, not argparse, and
``load_config`` reads and decodes the config file and leaves its
validation to ``_config.validate``; the grammar and the validation are
modules of their own, whose docstrings say why.

Exit codes: 0 success, 1 config or usage error, 2 verification-gate failure,
3 I/O error, a failed flush of stdout or stderr or an error message that
cannot be written included: every message is best effort.  A ``curve``
whose numpy arithmetic overflows or yields NaN, and a ``verify`` whose
gates meet a value that is not finite, exit 1: the config's values leave
the float64 range.  A command that fails, interrupted
or not, leaves none of its files (``_OUTPUTS``) in ``--out``, not even an
earlier run's.  All data files are
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
full-length array and its memory does not grow with ``--grid``.
``summary.json``'s heterodyne-free maximum is
``protocol.peak_fidelity``, exact where float64 times near its peak are not.

A process started as ``mirror-teleport`` or ``python -m mirror_teleport.cli``
runs ``run()``: ``main()``, then a flush of stdout and stderr, then
``os._exit`` with ``main``'s code, or 3 if a flush fails (say, stdout is a
full disk).  There stdout is line-buffered, so that output that cannot be
written fails the command as a file that cannot be written does; so does a
closed stdout, before the command runs.  ``main()`` flushes nothing
itself: an in-process caller that
runs many commands, with stdout a file, would otherwise pay one write for
each.  The interpreter's teardown, its final garbage
collections and the freeing of numpy's modules and of every object one at
a time, is skipped: on a 2-core host it took 10-18 ms of each numpy
command.  Nothing is lost by that: a command closes every file it writes,
and nothing here registers an ``atexit`` hook.  An exception that
escapes ``main()`` ends the process the normal way, with its traceback.
``main()`` itself returns its code to in-process callers and leaves the
garbage collector as it was.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

# No command multiplies matrices, so OpenBLAS's threads get no work, yet
# on load it starts a worker per core that spins for a while: on a small or
# shared host that steals CPU from whatever runs right after numpy's import.
# It takes effect only where this module loads before numpy, as in a CLI
# process; an explicit setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from ._argv import _HELP, _OPTIONS, _OUTPUTS, _USAGE, _UsageError, _parse_args  # noqa: F401
from . import _config
from ._config import RunConfig, nbar_label
from ._record import replace
from .errors import ConfigError, DomainError
from .optomech import (
    Couplings,
    compute_couplings,
    period,
    sideband_frequencies,
    thermal_occupation,
    validate_regime,
)


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
    return _config.validate(raw)


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
        per_nbar[nbar_label(nbar)] = {
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


def cmd_couplings(config: RunConfig, path: Path | None = None) -> int:
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
    if path is not None:
        _write_json(path, report)
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


def cmd_curve(
    config: RunConfig, curve_path: Path, summary_path: Path, no_heterodyne: bool = False
) -> int:
    # protocol, then _csvtext, which imports numpy: without a bytecode cache
    # both compile before numpy loads, and numpy's import reuses the memory
    # the compiler freed instead of stacking on it.
    from . import protocol
    from . import _csvtext
    import numpy as np

    couplings = compute_couplings(config.params)
    t_period = period(couplings)
    stop, rows = config.periods * t_period, config.grid_points + 1

    def columns(lo, hi):
        # Rows lo up to hi, bit for bit those rows of the whole grid, so no
        # full-length array, not even the grid, is ever held.
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

    header = "theta_t," + ",".join("F_nbar_" + nbar_label(v) for v in config.nbar_values)
    # The same bytes as np.savetxt(fmt="%.12g"); see the module docstring.
    # An overflow or NaN in the closed forms means the config's values
    # leave the float64 range; a result computed past one is not reported.
    try:
        with np.errstate(over="raise", invalid="raise"), open(curve_path, "wb") as fh:
            _csvtext.write_blocks(fh, header, rows, columns)
    except FloatingPointError as exc:
        raise DomainError(f"the values leave the float64 range ({exc})") from exc
    summary = _summary(config, couplings)
    summary["curve"] = {
        "variant": "no_heterodyne" if no_heterodyne else "heterodyne",
        "grid_points": config.grid_points,
        "periods": config.periods,
        "nbar_from_temperatures": config.nbar_from_temperatures,
    }
    _write_json(summary_path, summary)
    print(f"wrote {curve_path} and {summary_path}")
    return 0


def _run_gates(couplings: Couplings, nbar_values):
    """Yield (gate_name, measured_defect, tolerance, passed) for each gate of
    ``gates.run``, which says what each one checks.  ``verify`` and the
    acceptance scorecard run the gates through this generator, and the
    benchmark's tracer times each gate by wrapping it by name.  The gates
    call private kernels, which the tracer does not wrap, at each (nbar,
    time), so a gate's time is its own work, not the tracer's.  A gate's
    time is that of the step that yields it: gates 2 and 4-7 run as one
    pass before gate 2 yields, and gate 3's two checks before the first."""
    from . import gates

    yield from gates.run(couplings, nbar_values)


def cmd_verify(config: RunConfig, path: Path | None = None) -> int:
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
    if path is not None:
        path.write_text(text)
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
            print(f"nbar {nbar_label(nbar)}: feed-forward window {text}")
    else:
        print("damping is 0: feed-forward windows unconstrained")
    return 0


def _command(argv: list[str]) -> int:
    """Run the command line ``argv`` and return its exit code; a failure
    raises the exception that ``main`` maps to one."""
    args = _parse_args(argv)
    if args is None:
        print(_HELP, end="")
        return 0
    command = args["command"]
    out_dir = None if args["out"] is None else Path(args["out"])
    # The command's files, its arguments in _OUTPUTS' order: it writes no other.
    outputs = [out_dir / name for name in _OUTPUTS[command]] if out_dir else []
    try:
        if sys.stdout is None:  # descriptor 1 was closed
            raise OSError("cannot write the output: stdout is closed")
        config = load_config(args["config"] or bundled_config_path())
        flags = {"grid_points": args["grid"], "periods": args["periods"]}
        config = replace(config, **{k: v for k, v in flags.items() if v is not None})
        if out_dir is not None:
            try:
                out_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise OSError(f"cannot create {out_dir}: {exc}") from None
        elif command == "curve":
            raise OSError("curve requires --out")
        for path in outputs:
            path.unlink(missing_ok=True)
        if command == "couplings":
            return cmd_couplings(config, *outputs)
        if command == "curve":
            return cmd_curve(config, *outputs, no_heterodyne=args["no_heterodyne"])
        if command == "verify":
            return cmd_verify(config, *outputs)
        return cmd_readout(config)
    except BaseException:
        # Best effort: the failure raised is the one to report.
        for path in outputs:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
        raise


def _finish(code: int, message: str | None = None, streams=()) -> int:
    """Write ``message`` to stderr, then flush ``streams``, best effort:
    return ``code``, or 3 if any of it fails, with an ``i/o error`` line
    unless ``code`` is 3 already, so an I/O error is reported once.
    Raises nothing."""
    try:
        if message is not None and sys.stderr is not None:
            print(message, file=sys.stderr)
        for stream in streams:
            if stream is not None:  # None when its descriptor was closed
                stream.flush()
    except OSError as exc:
        if code != 3 and sys.stderr is not None:
            try:
                print(f"i/o error: cannot write the output: {exc}", file=sys.stderr, flush=True)
            except OSError:
                pass
        code = 3
    return code


def main(argv=None) -> int:
    """Run the command line ``argv`` (default ``sys.argv[1:]``) and return
    the exit code.

    This is the one place that maps an exception to an exit code: a usage,
    config or domain error is 1, an ``OSError`` 3.  Its message is best
    effort (``_finish``): one that cannot be written makes the code 3 and
    raises nothing.  Any other exception propagates.  stdout is left
    unflushed, so an in-process caller pays no write per call for it.
    """
    message = None
    try:
        code = _command(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as exc:  # a usage error is a config error
        code, message = 1, f"{_USAGE}mirror-teleport: error: {exc}"
    except (ConfigError, DomainError) as exc:
        code, message = 1, f"config error: {exc}"
    except OSError as exc:
        code, message = 3, f"i/o error: {exc}"
    return _finish(code, message)


def run():
    """Process entry: ``main()`` on ``sys.argv``, then a flush of stdout and
    stderr, then ``os._exit`` with ``main``'s code, or 3 if a flush fails.

    The console script and ``python -m mirror_teleport.cli`` call this;
    ``main`` itself returns to in-process callers.  See the module docstring
    for what the exit skips.
    """
    if sys.stdout is not None:  # each line is written inside the command
        sys.stdout.reconfigure(line_buffering=True)
    os._exit(_finish(main(), streams=(sys.stdout, sys.stderr)))


if __name__ == "__main__":
    run()
