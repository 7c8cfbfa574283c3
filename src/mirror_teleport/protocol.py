"""Heterodyne conditioning, teleportation covariances, fidelity, displacements.

Alice heterodynes the anti-Stokes mode (projecting it on a coherent state),
leaving Stokes + mirror in a conditioned two-mode Gaussian state that serves
as the teleportation channel.  The heterodyne outcome enters only the mean
of the conditioned state, never its variances, so fidelities and covariance
maps ignore it; it reappears solely in Bob's corrective displacement.

Where the generating couplings are known (GaussianCoeffs.couplings is set),
conditioned quantities are evaluated through exact factored forms in
r = parametric/oscillation, q = beam_splitter/oscillation, x = oscillation*t:

    E1   := anti_n + 1 = 1 + q^2 (r^2 (1-cos x)^2 + nbar sin^2 x)
    gain := r^2 (1 - cos x) + r sin x
    n_eff * E1 = (nbar + 1) (1 + gain)^2

These are algebraically identical to the coefficient-level expressions
(stokes_n + ... - (stokes_anti - mirror_anti)^2 / E1 etc.; the test suite
checks both routes against each other) but involve no cancellation of the
r^4-sized terms, which is what makes the near-degenerate benchmark regime
(r ~ 1400) computable in float64 at all.

The fidelity peak just before the revival is about 1/parametric wide in t
but of order one in the stretched variable u = r (2 pi - x), in which
:func:`optimal_time` searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import GaussianCoeffs, coeffs_analytic, period
from .errors import ConsistencyError, DomainError
from .gaussian_core import (
    VACUUM_VARIANCE,
    CorrelationMatrix4,
    CovMatrix2,
    physicality_defect,
)
from .optomech import Couplings

#: Best coherent-state fidelity achievable with no shared entanglement.
CLASSICAL_FIDELITY_BOUND = 0.5


@dataclass(frozen=True)
class MeasurementRecord:
    """Alice's outcomes: the two Bell quadratures and the heterodyne result."""

    x_plus: float
    p_minus: float
    alpha: complex

    def __post_init__(self):
        values = (self.x_plus, self.p_minus, self.alpha.real, self.alpha.imag)
        if not all(math.isfinite(v) for v in values):
            raise DomainError(f"measurement outcomes must be finite, got {self!r}")


@dataclass(frozen=True)
class DisplacementCommand:
    """Phase-space shift Bob must apply to the mirror mode."""

    dx: float
    dp: float

    def __post_init__(self):
        if not (math.isfinite(self.dx) and math.isfinite(self.dp)):
            raise DomainError(f"displacement must be finite, got {self!r}")


@dataclass(frozen=True)
class ActuationSetting:
    """Bichromatic-drive setting realizing a displacement: magnitude and phase."""

    phase: float
    strength: float

    def __post_init__(self):
        if self.strength < 0:
            raise DomainError(f"strength must be >= 0, got {self.strength!r}")
        if not 0 <= self.phase < 2 * math.pi:
            raise DomainError(f"phase must lie in [0, 2pi), got {self.phase!r}")


def _stable_parts(g: GaussianCoeffs):
    """(E1, gain, r, q, sin, cos, omc) via the factored forms, or None."""
    if g.couplings is None:
        return None
    r = g.couplings.parametric / g.couplings.oscillation
    q = g.couplings.beam_splitter / g.couplings.oscillation
    x = g.couplings.oscillation * np.asarray(g.time, dtype=float)
    s = np.sin(x)
    c = np.cos(x)
    omc = 2.0 * np.sin(0.5 * x) ** 2
    e1 = 1.0 + q**2 * (r**2 * omc**2 + g.nbar * s**2)
    gain = r**2 * omc + r * s
    return e1, gain, r, q, s, c, omc


def conditional_correlation(g: GaussianCoeffs) -> CorrelationMatrix4:
    """Correlation matrix of the conditioned Stokes+mirror state.

    Block pattern over (X_s, P_s, X_m, P_m): equal diagonal pairs, a single
    correlation +/-k in the (X, X) and (P, P) slots, zero X-P cross terms.
    Raises ConsistencyError if the result is unphysical beyond 1e-8, which
    would signal a dynamics bug.
    """
    parts = _stable_parts(g)
    if parts is not None:
        e1, _, r, q, s, c, omc = parts
        stokes_var = VACUUM_VARIANCE + (g.nbar + 1.0) * r**2 * s**2 / e1
        mirror_var = VACUUM_VARIANCE + (
            g.nbar * (r**2 * q**2 * omc**2 + c**2) + r**2 * s**2
        ) / e1
        corr = (g.nbar + 1.0) * r * s * (1.0 + r**2 * omc) / e1
        stokes_var, mirror_var, corr = map(float, (stokes_var, mirror_var, corr))
    else:
        e1 = g.anti_n + 1.0
        if not e1 > 0:
            raise DomainError(f"anti_n + 1 must be > 0, got {e1!r}")
        stokes_var = float(g.stokes_n - g.stokes_anti**2 / e1 + VACUUM_VARIANCE)
        mirror_var = float(g.mirror_n - g.mirror_anti**2 / e1 + VACUUM_VARIANCE)
        corr = float(g.stokes_mirror + g.stokes_anti * g.mirror_anti / e1)
    matrix = np.array(
        [
            [stokes_var, 0.0, corr, 0.0],
            [0.0, stokes_var, 0.0, -corr],
            [corr, 0.0, mirror_var, 0.0],
            [0.0, -corr, 0.0, mirror_var],
        ]
    )
    result = CorrelationMatrix4(matrix)
    defect = physicality_defect(result)
    if defect > 1e-8 * max(1.0, float(np.abs(matrix).max())):
        raise ConsistencyError(
            f"conditioned state unphysical (defect {defect:.3e}); "
            "dynamics coefficients are inconsistent"
        )
    return result


def teleport_covariance(channel: CorrelationMatrix4, gin: CovMatrix2) -> CovMatrix2:
    """Output covariance of the teleported state.

    The protocol adds input-independent noise taken from the channel matrix:
        out_xx = in_xx + (G11 + 2 G13 + G33)
        out_xp = in_xp + (G14 - G12 + G34 - G23)
        out_pp = in_pp + (G22 - 2 G24 + G44)
    """
    g = channel.matrix
    m = gin.matrix
    out_xx = m[0, 0] + (g[0, 0] + 2.0 * g[0, 2] + g[2, 2])
    out_xp = m[0, 1] + (g[0, 3] - g[0, 1] + g[2, 3] - g[1, 2])
    out_pp = m[1, 1] + (g[1, 1] - 2.0 * g[1, 3] + g[3, 3])
    return CovMatrix2.from_variances(float(out_xx), float(out_xp), float(out_pp))


def effective_occupation(g: GaussianCoeffs):
    """Effective thermal occupation of the mirror after Alice's measurements.

    n_eff = 1 + stokes_n + mirror_n + 2 stokes_mirror
            - (stokes_anti - mirror_anti)^2 / (anti_n + 1),
    which reduces to nbar + 1 at t = 0 (protocol noise on top of the thermal
    state) and satisfies fidelity = 1 / (1 + n_eff) exactly.
    """
    parts = _stable_parts(g)
    if parts is not None:
        e1, gain, *_ = parts
        n_eff = (g.nbar + 1.0) * (1.0 + gain) ** 2 / e1
    else:
        e1 = g.anti_n + 1.0
        n_eff = (
            1.0
            + g.stokes_n
            + g.mirror_n
            + 2.0 * g.stokes_mirror
            - (g.stokes_anti - g.mirror_anti) ** 2 / e1
        )
    if np.any(np.asarray(n_eff) < -1e-10):
        raise ConsistencyError(
            f"effective occupation came out negative ({np.min(n_eff)!r})"
        )
    n_eff = np.maximum(n_eff, 0.0)
    return float(n_eff) if np.ndim(n_eff) == 0 else n_eff


def fidelity_coherent(g: GaussianCoeffs):
    """Teleportation fidelity for an input coherent state, 1/(1 + n_eff)."""
    return 1.0 / (1.0 + effective_occupation(g))


def fidelity_no_heterodyne(g: GaussianCoeffs):
    """Fidelity of the protocol variant that traces out the anti-Stokes mode.

    Dropping the heterodyne removes the conditioning corrections:
    F = 1 / (2 + stokes_n + mirror_n + 2 stokes_mirror).  Never exceeds the
    heterodyne fidelity, and is independent of temperature at its maximum.
    """
    parts = _stable_parts(g)
    if parts is not None:
        _, gain, r, _, s, c, _ = parts
        bracket = (1.0 + gain) ** 2 + g.nbar * (r * s + c) ** 2
    else:
        bracket = 1.0 + g.stokes_n + g.mirror_n + 2.0 * g.stokes_mirror
    if np.any(np.asarray(bracket) < -1e-10):
        raise ConsistencyError(f"no-heterodyne noise bracket negative ({bracket!r})")
    out = 1.0 / (1.0 + np.maximum(bracket, 0.0))
    return float(out) if np.ndim(out) == 0 else out


def _golden_section_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """(x, f(x)) at the best point of a golden-section search for the maximum
    of a unimodal f on [lo, hi], run until the bracket is below tol (which
    must exceed a few ulps of hi, or the bracket stops shrinking)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


#: Fixed scans of u in [0, _PEAK_SCAN_U] (the peak for large r) and of the
#: rest of the period (the peak for small r), and the golden-section width
#: in u.
_PERIOD_SCAN_POINTS = 2001
_PEAK_SCAN_U = 8.0
_PEAK_SCAN_POINTS = 801
_U_TOL = 1e-9


def optimal_time(
    couplings: Couplings, nbar: float, objective=fidelity_coherent
) -> tuple[float, float]:
    """(t*, F_max): maximum of ``objective`` over one revival period.

    ``objective`` is fidelity_coherent, or fidelity_no_heterodyne for the
    variant without the heterodyne.  The search runs in u = r (2 pi - x),
    r = parametric/oscillation, x = oscillation t, where for large r
    n_eff -> (nbar + 1) (1 - u + u^2/2)^2 / (1 + u^4/4 + nbar u^2) is
    minimal at u = sqrt(2) for every nbar (F = 1/(4 - 2 sqrt(2))), and the
    heterodyne-free bracket (1 - u + u^2/2)^2 + nbar (1 - u)^2 at u = 1
    (F = 0.8).  A fixed scan of u in [0, 8], joined to a uniform scan of the
    rest of the period for small r, brackets the peak; golden section refines
    u to 1e-9, or to a few ulps of t where that is coarser.  F_max is the
    objective at t* exactly.

    Raises DomainError when the closed forms leave the float64 range: a NaN
    anywhere in the scan, or F_max not > 0 (n_eff overflowed).
    """
    t_period = period(couplings)

    def time_of(u):
        return np.maximum(t_period - u / couplings.parametric, 0.0)

    def f_of_u(u: float) -> float:
        return objective(coeffs_analytic(couplings, nbar, time_of(u)))

    u_period = couplings.parametric * t_period
    # Disjoint scans: two overlapping ones would leave pairs of points an ulp
    # apart, and the +/-1-point bracket around the best could miss the peak.
    u_peak = min(_PEAK_SCAN_U, u_period)
    us = np.unique(np.concatenate((
        np.linspace(0.0, u_peak, _PEAK_SCAN_POINTS),
        np.linspace(u_peak, u_period, _PERIOD_SCAN_POINTS),
    )))
    fv = objective(coeffs_analytic(couplings, nbar, time_of(us)))
    out_of_range = f"fidelity at nbar = {nbar:.12g} is outside the float64 range"
    if np.isnan(fv).any():  # np.argmax would pick the first NaN
        raise DomainError(out_of_range)
    i = int(np.argmax(fv))
    lo = us[max(i - 1, 0)]
    hi = us[min(i + 1, len(us) - 1)]
    # 8 ulps of t in u: a finer bracket could no longer move t (or u).
    tol = max(_U_TOL, 8.0 * couplings.parametric * math.ulp(t_period))
    u_star, f_star = _golden_section_max(f_of_u, lo, hi, tol)
    if f_star < fv[i]:  # grid point beat the refinement (flat maximum)
        u_star = us[i]
        f_star = f_of_u(u_star)
    if not f_star > 0:  # n_eff overflowed
        raise DomainError(out_of_range)
    return float(time_of(u_star)), float(f_star)


def bob_displacement(record: MeasurementRecord, g: GaussianCoeffs) -> DisplacementCommand:
    """Corrective displacement from Alice's classical outcomes.

    dx = sqrt(2) X+ + sqrt(2) Re(alpha) (stokes_anti - mirror_anti)/(anti_n + 1)
    dp = -sqrt(2) P- + sqrt(2) Im(alpha) (stokes_anti + mirror_anti)/(anti_n + 1)

    Shifts means only; fidelity is unaffected.
    """
    e1 = g.anti_n + 1.0
    rt2 = math.sqrt(2.0)
    dx = rt2 * record.x_plus + rt2 * record.alpha.real * (
        (g.stokes_anti - g.mirror_anti) / e1
    )
    dp = -rt2 * record.p_minus + rt2 * record.alpha.imag * (
        (g.stokes_anti + g.mirror_anti) / e1
    )
    return DisplacementCommand(float(dx), float(dp))


def actuation_setting(command: DisplacementCommand) -> ActuationSetting:
    """Map a displacement to the bichromatic drive's (phase, strength).

    Convention: phase 0 displaces +X of the mirror, phase pi/2 displaces +P
    (the drive's relative phase rotates the displacement direction in phase
    space; the overall drive amplitude phase is absorbed into the strength
    calibration).  The zero command maps to the canonical (0, 0).
    """
    strength = math.hypot(command.dx, command.dp)
    if strength == 0.0:
        return ActuationSetting(0.0, 0.0)
    phase = math.atan2(command.dp, command.dx) % (2.0 * math.pi)
    if phase >= 2.0 * math.pi:  # a tiny negative angle can round up to 2*pi
        phase = 0.0
    return ActuationSetting(phase, strength)
