"""Validation of a decoded run configuration: ``RunConfig`` and its fields.

``cli.load_config`` reads the config file and decodes its JSON, then
hands the decoded value to :func:`validate`.  This module compiles as a
unit of its own, apart from ``cli``: without a bytecode cache a numpy-free
command's peak is set while the compiler holds its largest unit, and
``cli`` without the config's validation is a smaller one.
"""

from __future__ import annotations

import json
import math
from collections import Counter

from ._record import record
from .errors import ConfigError, DomainError
from .optomech import PhysicalParams, thermal_occupation

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
        # Checked here, not in validate, so that --grid/--periods are too.
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


def validate(raw) -> RunConfig:
    """The ``RunConfig`` of the decoded JSON value ``raw``; ConfigError
    names the first field that is missing, unknown or invalid."""
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
    repeated = sorted(label for label, n in Counter(labels).items() if n > 1)
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
