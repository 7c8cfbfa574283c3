"""Continuous-variable teleportation onto a vibrating mirror.

Simulation and verification suite for the protocol in which the two optical
sidebands back-scattered off a vibrating mirror (Stokes and anti-Stokes)
mediate teleportation of an unknown optical state onto the mirror's acoustic
mode.  The package derives the effective interaction rates from physical
parameters, evolves the three-mode Gaussian state exactly, conditions on
Alice's heterodyne, and reports fidelities, cooling figures and readout
diagnostics.

Importing the package loads only the errors, the rates (``optomech``) and
the record helper (``_record``).  The other modules' names resolve lazily:
those of the readout analysis (``readout``) and of the closed forms
(``gaussian_core``, ``dynamics``, ``protocol``), so each module loads with
the first of its names a program uses, not before.  The closed forms take
Python floats; only the fidelity kernel that ``curve`` sweeps,
``fidelity_curves`` and ``effective_occupation``, also takes an array of
times, and only for an array does a module import numpy: of the commands,
only ``curve`` loads numpy.

The value types (``Couplings``, ``PhysicalParams``, ``GaussianCoeffs`` and
the others) are frozen records with slots, not standard-library data
classes: copy one with changed fields by :func:`replace`, which runs the
type's checks again.  The standard library's ``replace``, ``fields`` and
``asdict`` do not apply to them.
"""

import importlib
import types

from ._record import replace
from .errors import ConfigError, DomainError
from .optomech import (
    C_LIGHT,
    HBAR,
    K_BOLTZMANN,
    Couplings,
    PhysicalParams,
    compute_couplings,
    period,
    sideband_frequencies,
    thermal_occupation,
    validate_regime,
)

#: The names that load on first use, by defining module; see __getattr__.
_LAZY = {
    **dict.fromkeys(
        (
            "QUALITY_THRESHOLD",
            "ReadoutWeights",
            "decoherence_window",
            "readout_quality",
            "readout_times",
            "readout_weights",
        ),
        "readout",
    ),
    **dict.fromkeys(
        (
            "CorrelationMatrix4",
            "CovMatrix2",
            "physicality_defect",
            "symplectic_defect",
        ),
        "gaussian_core",
    ),
    **dict.fromkeys(
        (
            "GaussianCoeffs",
            "coeffs_analytic",
            "coeffs_from_propagator",
            "propagator",
        ),
        "dynamics",
    ),
    **dict.fromkeys(
        (
            "CLASSICAL_FIDELITY_BOUND",
            "VACUUM_VARIANCE",
            "ActuationSetting",
            "DisplacementCommand",
            "MeasurementRecord",
            "actuation_setting",
            "bob_displacement",
            "conditional_correlation",
            "effective_occupation",
            "fidelity_coherent",
            "fidelity_curves",
            "optimal_time",
            "peak_fidelity",
            "teleport_covariance",
        ),
        "protocol",
    ),
}


def __getattr__(name: str):
    """Import the module that defines ``name`` on first access (PEP 562)
    and keep the name in this namespace, so later lookups are plain."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

#: The public names: those imported above, then the lazy ones.
__all__ = [
    name
    for name, value in list(globals().items())
    if not (name.startswith("_") or isinstance(value, types.ModuleType))
] + list(_LAZY)
