"""Heterodyne conditioning, teleportation covariances, fidelity, displacements.

Alice heterodynes the anti-Stokes mode (projecting it on a coherent state),
leaving Stokes + mirror in a conditioned two-mode Gaussian state that serves
as the teleportation channel.  The heterodyne outcome enters only the mean
of the conditioned state, never its variances, so fidelities and covariance
maps ignore it; it reappears solely in Bob's corrective displacement.

Conditioned quantities are evaluated through exact factored forms in
r = parametric/oscillation, q = beam_splitter/oscillation, x = oscillation*t:

    E1   := anti_n + 1 = 1 + q^2 (r^2 (1-cos x)^2 + nbar sin^2 x)
    gain := r^2 (1 - cos x) + r sin x
    n_eff * E1 = (nbar + 1) (1 + gain)^2
    bracket = (1 + gain)^2 + nbar (r sin x + cos x)^2   (no heterodyne)

These are algebraically identical to the coefficient-level expressions
(stokes_n + ... - (stokes_anti - mirror_anti)^2 / E1 etc.) but involve no
cancellation of the r^4-sized terms, which is what makes the near-degenerate
benchmark regime (r ~ 1400) computable in float64 at all.  They need the
couplings, not the six coefficients, so the channel functions take
(couplings, nbar, time) and check them in ``_checked_trig``, as
``dynamics``' closed forms do; ``cli``'s ``fidelity-identity`` gate compares
the coefficient formula on the propagator's moments with them.
:func:`fidelity_curves` evaluates them for several nbar at once, from one
set of sines and cosines.  The channel maps :func:`conditional_correlation`
and :func:`teleport_covariance` take stacks over times, each result bit for
bit that of its time alone.  The channel is built only by
:func:`conditional_correlation` and checked only by ``cli``'s
``conditional-physicality`` gate; ``gaussian_core`` loads only to build it,
and ``dynamics`` never.

In tau = tan(x/2) the derivatives of both noise forms factor into
quadratics, which puts each fidelity maximum at a closed-form time, with a
closed-form value, that does not depend on nbar: :func:`peak_fidelity`
returns the value and :func:`optimal_time` evaluates the fidelity there.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

import numpy as np

from ._record import record
from .errors import DomainError
from .optomech import Couplings, _check_nbar

if TYPE_CHECKING:
    from .dynamics import GaussianCoeffs
    from .gaussian_core import CorrelationMatrix4, CovMatrix2

#: Best coherent-state fidelity achievable with no shared entanglement.
CLASSICAL_FIDELITY_BOUND = 0.5


@record
class MeasurementRecord:
    """Alice's outcomes: the two Bell quadratures and the heterodyne result."""

    x_plus: float
    p_minus: float
    alpha: complex

    def __post_init__(self):
        values = (self.x_plus, self.p_minus, self.alpha.real, self.alpha.imag)
        if not all(math.isfinite(v) for v in values):
            raise DomainError(f"measurement outcomes must be finite, got {self!r}")


@record
class DisplacementCommand:
    """Phase-space shift Bob must apply to the mirror mode."""

    dx: float
    dp: float

    def __post_init__(self):
        if not (math.isfinite(self.dx) and math.isfinite(self.dp)):
            raise DomainError(f"displacement must be finite, got {self!r}")


@record
class ActuationSetting:
    """Bichromatic-drive setting realizing a displacement: magnitude and phase."""

    phase: float
    strength: float

    def __post_init__(self):
        if not 0 <= self.strength < math.inf:
            raise DomainError(f"strength must be finite and >= 0, got {self.strength!r}")
        if not 0 <= self.phase < 2 * math.pi:
            raise DomainError(f"phase must lie in [0, 2pi), got {self.phase!r}")


def _ratios_and_trig(couplings: Couplings, time):
    """(r, q, t, sin x, cos x, omc) of every closed form at time(s) ``time``.

    r = parametric/oscillation, q = beam_splitter/oscillation, t is ``time``
    as a float array and x = oscillation*t; omc = 1 - cos x as 2 sin^2(x/2)
    keeps its full relative precision near the revivals.  DomainError names
    a NaN or infinite time, or a finite one whose phase x overflows: with a
    rate finite and > 0, x is finite exactly when neither happens.
    """
    t = np.asarray(time, dtype=float)
    with np.errstate(over="ignore"):
        x = couplings.oscillation * t
    if not np.all(np.isfinite(x)):
        bad = float(t[~np.isfinite(x)][0])
        raise DomainError(
            f"time must be finite, with oscillation*t in the float64 range, got {bad!r}"
        )
    # np.square, not **: a numpy scalar's ** 2 calls pow(), which can round
    # differently from an array's x * x, and a single time must match a grid.
    omc = 2.0 * np.square(np.sin(0.5 * x))
    r = couplings.parametric / couplings.oscillation
    q = couplings.beam_splitter / couplings.oscillation
    return r, q, t, np.sin(x), np.cos(x), omc


def _checked_trig(couplings: Couplings, nbar_values, time):
    """``_ratios_and_trig`` after the closed forms' one check of nbar and of t >= 0."""
    for nbar in nbar_values:
        _check_nbar(nbar)
    trig = _ratios_and_trig(couplings, time)
    if np.any(trig[2] < 0):
        raise DomainError("time must be >= 0")
    return trig


class _FactoredParts:
    """The nbar-free parts of the factored forms, made once per time grid."""

    def __init__(self, couplings: Couplings, nbar_values, time):
        self.r, self.q, _, self.s, self.c, self.omc = _checked_trig(couplings, nbar_values, time)

    @functools.cached_property
    def _e1_terms(self):
        """r^2 omc^2 and sin^2 x: E1 = 1 + q^2 (r^2 omc^2 + nbar sin^2 x)."""
        return self.r**2 * np.square(self.omc), np.square(self.s)

    @functools.cached_property
    def _lift2(self):
        """(1 + gain)^2, gain = r^2 omc + r sin x."""
        return np.square(1.0 + (self.r**2 * self.omc + self.r * self.s))

    @functools.cached_property
    def _tilt2(self):
        """(r sin x + cos x)^2, which nbar multiplies without the heterodyne."""
        return np.square(self.r * self.s + self.c)

    def e1(self, nbar):
        free, s2 = self._e1_terms
        return 1.0 + self.q**2 * (free + nbar * s2)

    def noise(self, nbar, heterodyne: bool = True):
        """n_eff, or without the heterodyne the bracket; F = 1/(1 + noise)."""
        if heterodyne:
            return (nbar + 1.0) * self._lift2 / self.e1(nbar)
        return self._lift2 + nbar * self._tilt2

    def channel(self, nbar):
        """The conditioned channel's Stokes variance, mirror variance and X-X
        correlation: stokes_n - stokes_anti^2/E1 + 1/2, mirror_n -
        mirror_anti^2/E1 + 1/2 and stokes_mirror + stokes_anti mirror_anti/E1."""
        from .gaussian_core import VACUUM_VARIANCE

        e1, r, q, s, c, omc = self.e1(nbar), self.r, self.q, self.s, self.c, self.omc
        stokes_var = VACUUM_VARIANCE + (nbar + 1.0) * r**2 * s**2 / e1
        mirror_var = VACUUM_VARIANCE + (nbar * (r**2 * q**2 * omc**2 + c**2) + r**2 * s**2) / e1
        corr = (nbar + 1.0) * r * s * (1.0 + r**2 * omc) / e1
        return stokes_var, mirror_var, corr


def fidelity_curves(couplings: Couplings, nbar_values, time, heterodyne: bool = True):
    """Fidelity at ``time`` for each of ``nbar_values``, from the factored forms.

    1/(1 + n_eff), or when ``heterodyne`` is False the fidelity of the
    variant that traces out the anti-Stokes mode, 1/(1 + bracket) with
    bracket = 1 + stokes_n + mirror_n + 2 stokes_mirror, which never exceeds
    it.  The sines and cosines are computed once for all nbar.
    """
    parts = _FactoredParts(couplings, nbar_values, time)
    return [1.0 / (1.0 + parts.noise(nbar, heterodyne)) for nbar in nbar_values]


def conditional_correlation(couplings: Couplings, nbar: float, time) -> CorrelationMatrix4:
    """Correlation matrix of the conditioned Stokes+mirror state.

    Evaluated elementwise over ``time``: shape (4, 4) for a scalar time,
    (n, 4, 4) for n times.  The block pattern over (X_s, P_s, X_m, P_m)
    is the standard form that ``CorrelationMatrix4`` requires: equal
    diagonal pairs, a single correlation +k in the (X, X) slots and -k in
    the (P, P) slots, zero X-P cross terms.  Raises DomainError where the
    factored forms leave float64 (``CorrelationMatrix4`` holds finite
    entries only); ``verify``'s conditional-physicality gate checks that
    the matrices are physical, in closed form from their three entries.
    """
    from .gaussian_core import CorrelationMatrix4

    stokes_var, mirror_var, corr = _FactoredParts(couplings, (nbar,), time).channel(nbar)
    matrix = np.zeros(np.shape(stokes_var) + (4, 4))
    matrix[..., 0, 0] = matrix[..., 1, 1] = stokes_var
    matrix[..., 2, 2] = matrix[..., 3, 3] = mirror_var
    matrix[..., 0, 2] = matrix[..., 2, 0] = corr
    matrix[..., 1, 3] = matrix[..., 3, 1] = -corr
    return CorrelationMatrix4(matrix)


def teleport_covariance(channel: CorrelationMatrix4, gin: CovMatrix2) -> CovMatrix2:
    """Output covariance of the teleported state: the input's plus the noise
    the channel adds, whatever the input,

        xx = G11 + 2 G13 + G33,  xp = G14 - G12 + G34 - G23,
        pp = G22 - 2 G24 + G44,

    which is n_eff in X and in P for the conditioned channel.  A stack of
    channels (..., 4, 4) gives a stack of covariances (..., 2, 2), each bit
    for bit that of its channel alone; ``gin`` may be one input or a stack.
    """
    from .gaussian_core import CovMatrix2

    g = channel.matrix
    xx = g[..., 0, 0] + 2.0 * g[..., 0, 2] + g[..., 2, 2]
    xp = g[..., 0, 3] - g[..., 0, 1] + g[..., 2, 3] - g[..., 1, 2]
    pp = g[..., 1, 1] - 2.0 * g[..., 1, 3] + g[..., 3, 3]
    added = np.stack([xx, xp, xp, pp], axis=-1).reshape(xx.shape + (2, 2))
    return CovMatrix2(gin.matrix + added)


def effective_occupation(couplings: Couplings, nbar: float, time):
    """Effective thermal occupation of the mirror after Alice's measurements.

    n_eff = 1 + stokes_n + mirror_n + 2 stokes_mirror
            - (stokes_anti - mirror_anti)^2 / (anti_n + 1),
    which reduces to nbar + 1 at t = 0 (protocol noise on top of the thermal
    state) and satisfies fidelity = 1 / (1 + n_eff) exactly; evaluated
    through the factored form, a square times (nbar + 1)/E1.
    """
    return _FactoredParts(couplings, (nbar,), time).noise(nbar)


def fidelity_coherent(g: GaussianCoeffs):
    """``fidelity_curves(g.couplings, (g.nbar,), g.time)[0]``, kept only for
    the benchmark's ``fidelity_coherent(coeffs_analytic(...))`` check
    (``perfbench/checks.py:132``): this wrapper, ``GaussianCoeffs.couplings``,
    which only it reads, and its DomainError for a state without them go
    when that check takes (couplings, nbar, time)."""
    if g.couplings is None:
        raise DomainError(
            "conditioning needs a closed-form state (coeffs_analytic): the "
            "coefficient formulas cancel ~r^4-sized terms"
        )
    return fidelity_curves(g.couplings, (g.nbar,), g.time)[0]


#: Float times on each side of the peak's closed-form time that are also
#: evaluated: at large nbar the rounding of t limits the heterodyne-free F.
_ULPS = 8


def _peak(couplings: Couplings, heterodyne: bool) -> tuple[float, float]:
    """(t, F) at the fidelity maximum of the first revival period, both in
    closed form; :func:`optimal_time` derives them."""
    r = couplings.parametric / couplings.oscillation
    s = math.sqrt(r * r + 1.0)
    if heterodyne:
        k = math.sqrt(2.0 * r * r + 1.0)
        tau, noise = -1.0 / k, ((k - r) / s) ** 2
    else:
        tau, noise = -1.0 / (r + s), (s / (s + r)) ** 2
    t_peak = (2.0 * math.pi + 2.0 * math.atan(tau)) / couplings.oscillation
    return t_peak, 1.0 / (1.0 + noise)


def peak_fidelity(couplings: Couplings, heterodyne: bool = True) -> float:
    """Maximum over time of the fidelity, the same for every nbar.

    With the heterodyne it is 1/(1 + (sqrt(2r^2+1) - r)^2/(r^2+1)), without
    it 1/(1 + (s/(s + r))^2), s = sqrt(r^2+1); :func:`optimal_time` derives
    both.  Float64 times cannot resolve the heterodyne-free peak at large
    nbar; this value needs no time.
    """
    return _peak(couplings, heterodyne)[1]


def optimal_time(
    couplings: Couplings, nbar: float, heterodyne: bool = True
) -> tuple[float, float]:
    """(t*, F_max): maximum of the fidelity over one revival period.

    The fidelity is that of :func:`fidelity_curves`, with or without the
    heterodyne.  In tau = tan(x/2), with q^2 = 1 + r^2,
    1 + gain = N/(1 + tau^2), N = (2r^2+1) tau^2 + 2r tau + 1 > 0, and the
    derivatives of the two noise forms factor into quadratics:

        d n_eff/d tau   ~ ((2r^2+1) tau^2 - 1) N
                          (r (2r^2+1) tau^2 + 2 (r^2 - nbar (r^2+1)) tau + r)
        d bracket/d tau ~ (tau^2 - 2r tau - 1)
                          (r (2r^2+1-nbar) tau^2 + 2 (r^2-nbar) tau + r (nbar+1))

    Each maximum lies at one root, the same for every nbar.  With the
    heterodyne at nbar = 0 the last factor has no real root, and of
    tau = +-1/sqrt(2r^2+1) and x = pi (n_eff = 1) n_eff is least at
    tau* = -1/sqrt(2r^2+1), m = (sqrt(2r^2+1) - r)^2/(r^2+1); as
    N >= 2 (sqrt(2r^2+1) - r) |tau|, with equality at tau*, the nbar term
    cannot take n_eff below m.  Without it, tau^2 - 2r tau - 1 = 0 is
    r sin x + cos x = 0, where the nbar term vanishes and 1 + gain is
    stationary; 1 + gain is least at tau0 = r - sqrt(r^2+1)
    (x0 = 2 pi - atan(1/r)), sqrt(r^2+1)/(sqrt(r^2+1) + r).  F is evaluated
    once, through :func:`fidelity_curves`, at that time and the float times
    within 8 ulps of it; t* is the best, and F_max the kernel's value at t*.
    With the heterodyne F_max is within a few ulps of :func:`peak_fidelity`.
    Without it float64 times near the revival leave the bracket near
    nbar (2 pi r 2^-53)^2, so at large nbar F_max falls below it.

    Raises DomainError when the closed forms leave the float64 range: a NaN
    at any evaluated time, or F_max outside (0, 1) (n_eff or E1 overflowed;
    n_eff >= m > 0 and the bracket >= 1/4).
    """
    t_peak, _ = _peak(couplings, heterodyne)
    ts = t_peak + math.ulp(t_peak) * np.arange(-_ULPS, _ULPS + 1)
    out_of_range = f"fidelity at nbar = {nbar:.12g} is outside the float64 range"
    (fv,) = fidelity_curves(couplings, (nbar,), ts, heterodyne)
    best = int(np.argmax(fv))  # the first NaN, if there is one
    f_star = float(fv[best])
    if not 0 < f_star < 1:  # a NaN, or n_eff or E1 alone overflowed
        raise DomainError(out_of_range)
    return float(ts[best]), f_star


def bob_displacement(record: MeasurementRecord, g: GaussianCoeffs) -> DisplacementCommand:
    """Corrective displacement from Alice's classical outcomes.

    dx = sqrt(2) X+ + sqrt(2) Re(alpha) (stokes_anti - mirror_anti)/(anti_n + 1)
    dp = -sqrt(2) P- + sqrt(2) Im(alpha) (stokes_anti + mirror_anti)/(anti_n + 1)

    Shifts means only; fidelity is unaffected.
    """
    e1 = g.anti_n + 1.0
    if not np.all(e1 > 0):
        raise DomainError(f"anti_n + 1 must be > 0, got {e1!r}")
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
