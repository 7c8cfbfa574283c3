"""Continuous-variable teleportation onto a vibrating mirror.

Simulation and verification suite for the protocol in which the two optical
sidebands back-scattered off a vibrating mirror (Stokes and anti-Stokes)
mediate teleportation of an unknown optical state onto the mirror's acoustic
mode.  The package derives the effective interaction rates from physical
parameters, evolves the three-mode Gaussian state exactly, conditions on
Alice's heterodyne, and reports fidelities, cooling figures and readout
diagnostics.
"""

from .errors import ConfigError, ConsistencyError, DomainError, IntegrationError
from .gaussian_core import (
    MODE_METRIC_3,
    SYMPLECTIC_FORM_4,
    VACUUM_VARIANCE,
    CorrelationMatrix4,
    CovMatrix2,
    PropagatorMatrix,
    physicality_defect,
    symplectic_defect,
)
from .optomech import (
    C_LIGHT,
    HBAR,
    K_BOLTZMANN,
    Couplings,
    PhysicalParams,
    compute_couplings,
    sideband_frequencies,
    thermal_occupation,
    validate_regime,
)
from .dynamics import (
    GaussianCoeffs,
    coeffs_analytic,
    coeffs_from_propagator,
    coeffs_ode,
    period,
    propagator,
)
from .protocol import (
    CLASSICAL_FIDELITY_BOUND,
    ActuationSetting,
    DisplacementCommand,
    MeasurementRecord,
    actuation_setting,
    bob_displacement,
    conditional_correlation,
    effective_occupation,
    fidelity_coherent,
    fidelity_curves,
    fidelity_no_heterodyne,
    optimal_time,
    peak_fidelity,
    teleport_covariance,
)
from .readout import (
    QUALITY_THRESHOLD,
    ReadoutWeights,
    decoherence_window,
    readout_quality,
    readout_times,
    readout_weights,
)

__version__ = "0.1.0"

__all__ = [
    "C_LIGHT",
    "CLASSICAL_FIDELITY_BOUND",
    "HBAR",
    "K_BOLTZMANN",
    "MODE_METRIC_3",
    "QUALITY_THRESHOLD",
    "SYMPLECTIC_FORM_4",
    "VACUUM_VARIANCE",
    "ActuationSetting",
    "ConfigError",
    "ConsistencyError",
    "CorrelationMatrix4",
    "Couplings",
    "CovMatrix2",
    "DisplacementCommand",
    "DomainError",
    "GaussianCoeffs",
    "IntegrationError",
    "MeasurementRecord",
    "PhysicalParams",
    "PropagatorMatrix",
    "ReadoutWeights",
    "actuation_setting",
    "bob_displacement",
    "coeffs_analytic",
    "coeffs_from_propagator",
    "coeffs_ode",
    "compute_couplings",
    "conditional_correlation",
    "decoherence_window",
    "effective_occupation",
    "fidelity_coherent",
    "fidelity_curves",
    "fidelity_no_heterodyne",
    "optimal_time",
    "peak_fidelity",
    "period",
    "physicality_defect",
    "propagator",
    "readout_quality",
    "readout_times",
    "readout_weights",
    "sideband_frequencies",
    "symplectic_defect",
    "teleport_covariance",
    "thermal_occupation",
    "validate_regime",
]
