"""Command-line interface: config ingestion, sweeps, persistence, verification.

Subcommands
-----------
couplings   derived interaction rates, thermal occupation, regime warnings
curve       fidelity-vs-time sweep -> curve.csv + summary.json
verify      self-verification gates (oracles and invariants) -> verify.txt
readout     readout times, weights, quality ratio, decoherence windows

Only ``curve`` and ``verify`` import numpy, and with it the package's
numeric modules, inside the functions that use them: ``couplings`` and
``readout`` compute with Python floats and start without it.  Importing
this module sets ``OPENBLAS_NUM_THREADS`` to 1 unless it is already set.

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
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
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
    oscillation_consistency,
    period,
    sideband_frequencies,
    thermal_occupation,
    validate_regime,
)

_TWO_PI = 2.0 * math.pi

#: Self-verification tolerances, by gate name.  A defect relative to the
#: state is divided at each time by ``dynamics.state_scale``; the
#: teleportation noise is relative to max(1, n_eff).
TOLERANCES = {
    "couplings-consistency": 1e-12,
    "ode-vs-analytic": 1e-8,
    "propagator-metric": 1e-10,
    "propagator-group": 1e-10,
    "conditional-physicality": 1e-10,
    "fidelity-identity": 1e-12,
    "moment-route": 1e-10,
    "teleport-noise": 1e-12,
}


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
    """Parse and validate a JSON run configuration."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
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
    from importlib import resources

    return Path(resources.files("mirror_teleport") / "data" / "fig2.json")


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


def _verdict(name: str, defect, floor: float = 0.0):
    tolerance = TOLERANCES[name] + floor
    return name, float(defect), tolerance, bool(defect <= tolerance)


def _scaled_gap(ref, other):
    """Largest |ref - other| over the six coefficients, relative to the
    state of ``ref`` at each time."""
    from .dynamics import coeff_rows, state_scale

    a = coeff_rows(ref)
    return (abs(a - coeff_rows(other)) / state_scale(a)).max()


def _run_gates(couplings: Couplings, nbar_values):
    """Yield (gate_name, measured_defect, tolerance, passed) for each gate.

    The gates test ``couplings`` at ``nbar_values`` against ``TOLERANCES``.
    ``Couplings.__post_init__`` already enforces the bound of the first gate,
    so that gate reports its margin.  This is the one implementation of the
    verification invariants: ``verify`` and the acceptance scorecard both run
    it, and the benchmark's tracer times each gate by wrapping this generator
    by name.  Gate 2 certifies the closed forms without integrating the
    moment ODE: it is linear, so forms that start at its initial state and
    whose slopes match its right-hand side at every time are its solution,
    and the gate checks both for every nbar, the fidelity peaks included.
    Gates 3-7 reach the peaks too: gate 3 adds both peak times to its own,
    and gates 4-7 take gate 2's times and closed forms.  Gates 4 and 7 call
    ``physicality_defect`` and ``teleport_covariance`` on one stack of
    ``protocol.conditional_correlation``'s matrices over every time and
    nbar: gate 4 is the only check that they are physical, and a channel
    that leaves float64 raises DomainError there.  Gate 5 compares the
    coefficient formula for n_eff on the propagator's moments with the
    factored n_eff.
    """
    import numpy as np

    from . import dynamics, protocol
    from .dynamics import coeff_rows, state_scale
    from .gaussian_core import (
        CorrelationMatrix4,
        CovMatrix2,
        physicality_defect,
        symplectic_defect,
    )

    t_period = period(couplings)

    # 1. couplings internal consistency
    rel, floor = oscillation_consistency(
        couplings.parametric, couplings.beam_splitter, couplings.oscillation
    )
    yield _verdict("couplings-consistency", rel, floor)

    # 2. the closed forms start at the initial state, exactly, and their
    #    slopes oscillation dy/dx match the ODE's f(y), relative to the
    #    fastest rate and the state, over one period, at both peak times and
    #    at 41 times within 5/r in x of the heterodyne peak (pi at most, so
    #    no time is negative)
    grid = np.linspace(0.0, t_period, 101)
    t_het, t_no_het = (protocol._peak(couplings, h)[0] for h in (True, False))
    half_width = min(5.0 * couplings.oscillation / couplings.parametric, math.pi)
    near_peak = t_het + np.linspace(-half_width, half_width, 41) / couplings.oscillation
    ode_times = np.concatenate([grid, [t_het, t_no_het], near_peak])
    analytic = [dynamics.coeffs_analytic(couplings, nbar, ode_times) for nbar in nbar_values]
    p, b = couplings.parametric, couplings.beam_splitter
    worst = 0.0
    for nbar, g in zip(nbar_values, analytic):
        y = coeff_rows(g)
        if not np.array_equal(y[0], [0.0, nbar, 0.0, 0.0, 0.0, 0.0]):
            worst = math.inf
        slopes = couplings.oscillation * dynamics._moment_slopes(couplings, nbar, ode_times)
        residual = np.abs(slopes - dynamics._moment_derivatives(y.T, p, b).T)
        worst = max(worst, np.max(residual / (max(p, b) * state_scale(y))))
    yield _verdict("ode-vs-analytic", worst)

    # 3. propagator structure: the metric of each, the group law on 51 pairs,
    #    at 100 times of a golden-ratio sequence, which fills [0, T) evenly,
    #    and both peak times
    golden = t_period * ((np.arange(1, 101) * ((math.sqrt(5.0) - 1.0) / 2.0)) % 1.0)
    times = np.append(golden, [t_het, t_no_het])
    props = dynamics.propagator(couplings, times)
    yield _verdict("propagator-metric", symplectic_defect(props).max())
    # The residual is a product, so its float64 floor scales with the sizes of
    # the factors; M(t1 + t2) ~ I near a revival even where they are ~r^2.
    half = len(times) // 2
    m1, m2 = props.matrix[:half], props.matrix[half:]
    m12 = dynamics.propagator(couplings, times[:half] + times[half:]).matrix
    size = np.maximum(1.0, np.abs(props.matrix).max(axis=(-2, -1)))
    group = np.abs(m12 - m1 @ m2).max(axis=(-2, -1)) / (size[:half] * size[half:])
    yield _verdict("propagator-group", group.max())

    # 4. conditioned-state physicality at gate 2's times, relative to
    #    max(1, |G|max), so physical states at large nbar pass; the only
    #    check of the channel's physicality.  Gate 7 reuses these channel
    #    matrices and gate 5's n_eff
    mats = np.stack([protocol.conditional_correlation(g).matrix for g in analytic])
    defects = physicality_defect(CorrelationMatrix4(mats))
    scale = np.maximum(1.0, np.abs(mats).max(axis=(-2, -1)))
    yield _verdict("conditional-physicality", np.max(defects / scale))

    # 5. n_eff by the coefficient formula, from the propagator's moments,
    #    against the factored n_eff, relative to the state; d (d / E1), as
    #    d^2 overflows first.  Unclipped: a negative n_eff is part of the gap
    props = dynamics.propagator(couplings, ode_times)
    moments = [dynamics.coeffs_from_propagator(props, nbar) for nbar in nbar_values]
    n_effs = np.stack([protocol.effective_occupation(g) for g in analytic])
    worst_fid = 0.0
    for g, m, n_eff in zip(analytic, moments, n_effs):
        d = m.stokes_anti - m.mirror_anti
        bracket = 1.0 + m.stokes_n + m.mirror_n + 2.0 * m.stokes_mirror
        gap = np.abs(bracket - d * (d / (m.anti_n + 1.0)) - n_eff)
        worst_fid = max(worst_fid, np.max(gap / state_scale(coeff_rows(g))[:, 0]))
    yield _verdict("fidelity-identity", worst_fid)

    # 6. moment route vs closed form
    worst_mom = max(_scaled_gap(g, mom) for g, mom in zip(analytic[:2], moments))
    yield _verdict("moment-route", worst_mom)

    # 7. teleporting the vacuum adds n_eff, in X and in P, at every tenth
    #    time of the grid, both peak times and every time near the
    #    heterodyne peak; each row is bit for bit that of its time alone,
    #    and gate 4 checks those channels' physicality
    teleported = np.r_[0 : len(grid) : 10, len(grid) : len(ode_times)]
    gin = CovMatrix2.vacuum()
    out = protocol.teleport_covariance(CorrelationMatrix4(mats[:, teleported]), gin).matrix
    added = out.diagonal(0, -2, -1) - gin.matrix.diagonal()
    n = n_effs[:, teleported, None]
    yield _verdict("teleport-noise", np.max(np.abs(added - n) / np.maximum(1.0, n)))


def cmd_verify(config: RunConfig, out_dir: Path | None) -> int:
    if out_dir is not None:  # a run that raises leaves no earlier run's file
        (out_dir / "verify.txt").unlink(missing_ok=True)
    lines = []
    all_ok = True
    gates = _run_gates(compute_couplings(config.params), config.nbar_values)
    for name, defect, tolerance, ok in gates:
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


@functools.cache  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirror-teleport",
        description="Radiation-pressure teleportation onto a vibrating mirror: "
        "couplings, fidelity curves, self-verification and readout analysis.",
    )
    parser.add_argument(
        "--config",
        default=None,
        help="path to a JSON run config (default: bundled fig2.json)",
    )
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--grid", type=int, default=None, help="override grid_points")
    parser.add_argument(
        "--periods", type=float, default=None, help="override sweep length in periods"
    )
    parser.add_argument(
        "--no-heterodyne",
        action="store_true",
        help="curve: use the variant without the anti-Stokes heterodyne",
    )
    parser.add_argument(
        "command", choices=["couplings", "curve", "verify", "readout"]
    )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage or the help
        return 1 if exc.code else 0  # a usage error is a config error
    try:
        config_path = args.config or bundled_config_path()
        config = load_config(config_path)
        flags = {"grid_points": args.grid, "periods": args.periods}
        config = replace(config, **{k: v for k, v in flags.items() if v is not None})
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    out_dir = None
    if args.out is not None:
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"i/o error: cannot create {out_dir}: {exc}", file=sys.stderr)
            return 3

    try:
        # These two compute with Python floats, which np.errstate does not govern.
        if args.command == "couplings":
            return cmd_couplings(config, out_dir)
        if args.command == "readout":
            return cmd_readout(config)
        if args.command == "curve" and out_dir is None:
            print("i/o error: curve requires --out", file=sys.stderr)
            return 3
        import numpy as np

        # An overflow or NaN in the closed forms means the config's values
        # leave the float64 range; a result computed past one is not reported.
        with np.errstate(over="raise", invalid="raise"):
            if args.command == "curve":
                return cmd_curve(config, out_dir, no_heterodyne=args.no_heterodyne)
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


if __name__ == "__main__":
    sys.exit(main())
