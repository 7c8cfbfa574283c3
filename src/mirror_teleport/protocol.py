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
``dynamics``' closed forms do; ``verify``'s ``fidelity-identity`` gate
compares the coefficient formula on the propagator's moments with them.
:func:`fidelity_curves` evaluates them for several nbar at once, from one
set of sines and cosines.

Every function here takes Python floats, except :func:`fidelity_curves`
and :func:`effective_occupation`, the kernel that ``curve`` runs on arrays
of times.  A function that takes one time only, here and in ``dynamics``,
takes it through ``_float_time``: an int or a float as a Python float,
and DomainError naming any other type.  The kernel shares one piece of
source with the float functions, ``_FactoredParts``, which is built from
one trig tuple and which ``verify``'s gates build once per time, and
three places choose between a float and an array: ``_ratios_and_trig``
takes the sines and cosines from ``math`` for an int or float and from numpy
for an array, ``_checked_trig`` checks t >= 0 on either, and
``_FactoredParts.e1`` checks a float E1 itself.  This module imports numpy
only for an array.  Over a stack of times each result is bit for bit that
of its time alone.  numpy signals an array's overflow (a RuntimeWarning,
or FloatingPointError under ``np.errstate``); a Python float overflows to
inf without a signal, so a float result past float64 comes back inf or
NaN, except where a division by E1 would hide it: a float E1 that is not
finite raises DomainError.

The channel is the standard form (a, b, c) of the conditioned Stokes-mirror
state, ``_FactoredParts.channel``, which :func:`conditional_correlation`
returns as a ``gaussian_core.CorrelationMatrix4`` and which only
``verify``'s ``conditional-physicality`` gate checks; ``gaussian_core``
loads only to build it, and ``dynamics`` never.
:func:`teleport_covariance` adds a + b + 2c to the input's variances,
which is n_eff.

In tau = tan(x/2) the derivatives of both noise forms factor into
quadratics, which puts each fidelity maximum at a closed-form time, with a
closed-form value, that does not depend on nbar: :func:`peak_fidelity`
returns the value and :func:`optimal_time` evaluates the fidelity there.
At the heterodyne peak tau* = -1/sqrt(2r^2+1), for every nbar, the channel
is a = b = (3r^2+1)/(2(r^2+1)) and c = -r sqrt(2r^2+1)/(r^2+1), with
ab - c^2 = 1/4: the heterodyne heralds a pure, symmetric two-mode squeezed
vacuum, whatever the mirror's temperature.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ._record import record
from .errors import DomainError
from .optomech import Couplings, _check_nbar

if TYPE_CHECKING:
    from .dynamics import GaussianCoeffs
    from .gaussian_core import CorrelationMatrix4, CovMatrix2

#: Best coherent-state fidelity achievable with no shared entanglement.
CLASSICAL_FIDELITY_BOUND = 0.5

#: Vacuum variance of a single quadrature; the single source of truth for
#: the variance normalization used by every module.  ``gaussian_core``
#: imports it from here, so that the channel, which adds it at every time
#: and nbar ``verify`` checks, needs no import: one took over half of the
#: channel's time.
VACUUM_VARIANCE = 0.5


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


def _ratios_and_trig(couplings: Couplings, time, cos_x: bool = True):
    """(r, q, t, sin x, cos x, omc) of every closed form at time(s) ``time``.

    r = parametric/oscillation, q = beam_splitter/oscillation, t is ``time``
    and x = oscillation*t; omc = 1 - cos x as 2 sin^2(x/2) keeps its full
    relative precision near the revivals.  A Python float or int time is a
    float and takes its sines and cosines from ``math``; any other time is
    a float array and takes them from numpy, for the fidelity kernel, which
    alone takes arrays.  That is the only difference between the two paths:
    the closed forms are one source, so a float time's values are those of
    its row of an array wherever the two libraries' sines agree.
    DomainError names a NaN or infinite time, or a finite one whose phase x
    overflows: with a rate finite and > 0, x is finite exactly when neither
    happens.  An array time's cos x is None unless ``cos_x``: only the
    heterodyne-free forms and the channel read it, so a heterodyne curve
    skips its ``np.cos`` for every chunk.  A float time's is always made.
    """
    if type(time) is int:  # not a bool
        time = _float_time(time)
    if type(time) is float:
        t, sin, cos = time, math.sin, math.cos
        x = couplings.oscillation * t
        bad = None if math.isfinite(x) else t
    else:
        import numpy as np

        t, sin, cos = np.asarray(time, dtype=float), np.sin, np.cos if cos_x else None
        with np.errstate(over="ignore"):
            x = couplings.oscillation * t
        finite = np.isfinite(x)
        bad = None if finite.all() else float(t[~finite][0])
    if bad is not None:
        raise DomainError(
            f"time must be finite, with oscillation*t in the float64 range, got {bad!r}"
        )
    # h * h, not h**2: a float's ** calls pow(), which can round differently
    # from the product that numpy's square of an array is.
    h = sin(0.5 * x)
    omc = 2.0 * (h * h)
    r = couplings.parametric / couplings.oscillation
    q = couplings.beam_splitter / couplings.oscillation
    return r, q, t, sin(x), None if cos is None else cos(x), omc


def _float_time(time) -> float:
    """The entry of every function that takes one time only: an int or a
    float time as a Python float, so that ``_ratios_and_trig`` takes its
    float path.  DomainError names any other type, an array included, and
    an int past the float64 range."""
    if not isinstance(time, (int, float)):
        raise DomainError(f"time must be an int or a float, got {type(time).__name__}")
    try:
        return float(time)
    except OverflowError:
        raise DomainError(f"time must be in the float64 range, got {time!r}") from None


def _checked_trig(couplings: Couplings, nbar_values, time, cos_x: bool = True):
    """``_ratios_and_trig`` after the closed forms' one check of nbar and of t >= 0."""
    for nbar in nbar_values:
        _check_nbar(nbar)
    trig = _ratios_and_trig(couplings, time, cos_x)
    negative = trig[2] < 0
    if negative if type(negative) is bool else negative.any():
        raise DomainError("time must be >= 0")
    return trig


class _FactoredParts:
    """The nbar-free parts of the factored forms at one trig tuple of
    ``_checked_trig``, for one time or a grid: ``verify``'s gates build one
    per time and evaluate it at every nbar.  Built from a tuple without
    cos x, it serves the heterodyne forms only."""

    __slots__ = ("r", "q", "s", "c", "omc", "_e1_terms", "_lift2", "_tilt2_value")

    def __init__(self, trig):
        self.r, self.q, _, self.s, self.c, self.omc = trig
        r, s, omc = self.r, self.s, self.omc
        # n_eff needs these two, made at once: a cached property's first read
        # would cost a float time more than their arithmetic does.
        # r^2 omc^2 and sin^2 x: E1 = 1 + q^2 (r^2 omc^2 + nbar sin^2 x).
        self._e1_terms = r**2 * (omc * omc), s * s
        # (1 + gain)^2, gain = r^2 omc + r sin x.
        lift = 1.0 + (r**2 * omc + r * s)
        self._lift2 = lift * lift
        self._tilt2_value = None

    def _tilt2(self):
        """(r sin x + cos x)^2, which nbar multiplies without the heterodyne:
        made on first use, as n_eff and the channel do without it."""
        if self._tilt2_value is None:
            tilt = self.r * self.s + self.c
            self._tilt2_value = tilt * tilt
        return self._tilt2_value

    def e1(self, nbar):
        """E1; DomainError for a float E1 that is not finite, which every
        form divides by and so would hide, where an array's overflow is
        numpy's to signal."""
        free, s2 = self._e1_terms
        e1 = 1.0 + self.q**2 * (free + nbar * s2)
        if type(e1) is float and not math.isfinite(e1):
            raise DomainError(f"non-finite E1 = 1 + anti_n at nbar = {nbar:.12g}")
        return e1

    def noise(self, nbar, heterodyne: bool = True):
        """n_eff, or without the heterodyne the bracket; F = 1/(1 + noise)."""
        if heterodyne:
            return (nbar + 1.0) * self._lift2 / self.e1(nbar)
        return self._lift2 + nbar * self._tilt2()

    def fidelity(self, nbar, heterodyne: bool = True):
        """1/(1 + noise): the fidelity, with or without the heterodyne."""
        return 1.0 / (1.0 + self.noise(nbar, heterodyne))

    def channel(self, nbar):
        """The conditioned channel's Stokes variance, mirror variance and X-X
        correlation: stokes_n - stokes_anti^2/E1 + 1/2, mirror_n -
        mirror_anti^2/E1 + 1/2 and stokes_mirror + stokes_anti mirror_anti/E1."""
        e1, r, q, s, c, omc = self.e1(nbar), self.r, self.q, self.s, self.c, self.omc
        s2 = self._e1_terms[1]
        stokes_var = VACUUM_VARIANCE + (nbar + 1.0) * r**2 * s2 / e1
        mirror_var = VACUUM_VARIANCE + (nbar * (r**2 * q**2 * (omc * omc) + c * c) + r**2 * s2) / e1
        corr = (nbar + 1.0) * r * s * (1.0 + r**2 * omc) / e1
        return stokes_var, mirror_var, corr


def fidelity_curves(couplings: Couplings, nbar_values, time, heterodyne: bool = True):
    """Fidelity at ``time`` for each of ``nbar_values``, from the factored forms.

    1/(1 + n_eff), or when ``heterodyne`` is False the fidelity of the
    variant that traces out the anti-Stokes mode, 1/(1 + bracket) with
    bracket = 1 + stokes_n + mirror_n + 2 stokes_mirror, which never exceeds
    it.  The sines and cosines are computed once for all nbar, the cosines
    only for the variant, which alone reads them.
    """
    parts = _FactoredParts(_checked_trig(couplings, nbar_values, time, not heterodyne))
    return [parts.fidelity(nbar, heterodyne) for nbar in nbar_values]


def conditional_correlation(
    couplings: Couplings, nbar: float, time: float
) -> CorrelationMatrix4:
    """Correlation matrix of the conditioned Stokes+mirror state, in standard
    form: a ``CorrelationMatrix4`` of (a, b, c).

    a = stokes_n - stokes_anti^2/E1 + 1/2 is the variance of both Stokes
    quadratures, b = mirror_n - mirror_anti^2/E1 + 1/2 that of both mirror
    quadratures, and c = stokes_mirror + stokes_anti mirror_anti/E1 their
    correlation, +c in (X_s, X_m) and -c in (P_s, P_m); no X-P cross term.
    Raises DomainError where the factored forms leave float64
    (``CorrelationMatrix4`` holds finite entries only); ``verify``'s
    conditional-physicality gate checks that the channel is physical, in
    closed form from a, b and c.
    """
    from .gaussian_core import CorrelationMatrix4

    parts = _FactoredParts(_checked_trig(couplings, (nbar,), _float_time(time)))
    return CorrelationMatrix4(*parts.channel(nbar))


def teleport_covariance(channel: CorrelationMatrix4, gin: CovMatrix2) -> CovMatrix2:
    """Output covariance of the teleported state: the input's plus the noise
    the channel adds, a + b + 2c in X and in P and none in XP,

        xx = G11 + 2 G13 + G33,  pp = G22 - 2 G24 + G44,

    which is n_eff for the conditioned channel.
    """
    added = channel.a + 2.0 * channel.c + channel.b
    # A CovMatrix2 as gin is: importing the type here took most of the
    # call's time, and verify's teleport-noise gate calls this 53 times for
    # each nbar.
    return type(gin)(gin.xx + added, gin.xp, gin.pp + added)


def effective_occupation(couplings: Couplings, nbar: float, time):
    """Effective thermal occupation of the mirror after Alice's measurements.

    n_eff = 1 + stokes_n + mirror_n + 2 stokes_mirror
            - (stokes_anti - mirror_anti)^2 / (anti_n + 1),
    which reduces to nbar + 1 at t = 0 (protocol noise on top of the thermal
    state) and satisfies fidelity = 1 / (1 + n_eff) exactly; evaluated
    through the factored form, a square times (nbar + 1)/E1.
    """
    return _FactoredParts(_checked_trig(couplings, (nbar,), time, False)).noise(nbar)


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
    at that time and the float times within 8 ulps of it, each a Python
    float; t* is the first best and F_max the fidelity there, so
    ``fidelity_curves`` at the returned t* is F_max.
    With the heterodyne F_max is within a few ulps of :func:`peak_fidelity`.
    Without it float64 times near the revival leave the bracket near
    nbar (2 pi r 2^-53)^2, so at large nbar F_max falls below it.

    Raises DomainError when the closed forms leave the float64 range: a NaN
    at any evaluated time, or F_max outside (0, 1) (n_eff or E1 overflowed;
    n_eff >= m > 0 and the bracket >= 1/4).
    """
    t_peak, _ = _peak(couplings, heterodyne)
    _check_nbar(nbar)
    ulp = math.ulp(t_peak)
    t_star, f_max = t_peak, -math.inf
    for k in range(-_ULPS, _ULPS + 1):
        t = t_peak + ulp * k
        f = _FactoredParts(_checked_trig(couplings, (), t)).fidelity(nbar, heterodyne)
        if f != f:
            f_max = f
            break
        if f > f_max:
            t_star, f_max = t, f
    if not 0 < f_max < 1:  # a NaN, or n_eff or E1 alone overflowed
        raise DomainError(f"fidelity at nbar = {nbar:.12g} is outside the float64 range")
    return t_star, f_max


def bob_displacement(record: MeasurementRecord, g: GaussianCoeffs) -> DisplacementCommand:
    """Corrective displacement from Alice's classical outcomes.

    dx = sqrt(2) X+ + sqrt(2) Re(alpha) (stokes_anti - mirror_anti)/(anti_n + 1)
    dp = -sqrt(2) P- + sqrt(2) Im(alpha) (stokes_anti + mirror_anti)/(anti_n + 1)

    Shifts means only; fidelity is unaffected.
    """
    e1 = g.anti_n + 1.0
    if not e1 > 0:
        raise DomainError(f"anti_n + 1 must be > 0, got {e1!r}")
    rt2 = math.sqrt(2.0)
    dx = rt2 * record.x_plus + rt2 * record.alpha.real * (
        (g.stokes_anti - g.mirror_anti) / e1
    )
    dp = -rt2 * record.p_minus + rt2 * record.alpha.imag * (
        (g.stokes_anti + g.mirror_anti) / e1
    )
    return DisplacementCommand(dx, dp)


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
