"""Physical mirror/laser parameters -> effective interaction rates.

The driving beam back-scattered off the vibrating mirror populates two
sideband modes (Stokes at laser_freq - mirror_freq, anti-Stokes at
laser_freq + mirror_freq).  The Stokes mode couples to the mirror through a
parametric (two-mode-squeezing) interaction of rate ``parametric``; the
anti-Stokes mode through a beam-splitter (excitation-exchange) interaction
of rate ``beam_splitter``.  The closed dynamics oscillates at
``oscillation = sqrt(beam_splitter^2 - parametric^2)``.

Frequency conventions (documented here and in the config schema):
``laser_freq`` and ``mirror_freq`` are ANGULAR frequencies in rad/s, while
the two bandwidths are ordinary frequencies in Hz; the bandwidths enter the
coupling formula only as a ratio, so their common 2*pi convention cancels.
"""

from __future__ import annotations

import math
import sys

from ._record import record
from .errors import DomainError

# CODATA/SI values (exact where defined).
HBAR = 1.054571817e-34  # J s
K_BOLTZMANN = 1.380649e-23  # J/K
C_LIGHT = 2.99792458e8  # m/s


@record
class PhysicalParams:
    """Laser, mirror and environment inputs.

    power: W; laser_freq, mirror_freq: rad/s; det_bandwidth, mode_bandwidth:
    Hz; mass: kg (effective mass of the fundamental Gaussian acoustic mode);
    incidence_angle: rad; temperature: K; damping: Hz (mechanical damping
    rate, used only for the decoherence-window estimate).
    """

    power: float
    laser_freq: float
    mirror_freq: float
    det_bandwidth: float
    mode_bandwidth: float
    mass: float
    incidence_angle: float = 0.0
    temperature: float = 0.0
    damping: float = 0.0

    def __post_init__(self):
        positive = {
            "power": self.power,
            "laser_freq": self.laser_freq,
            "mirror_freq": self.mirror_freq,
            "det_bandwidth": self.det_bandwidth,
            "mode_bandwidth": self.mode_bandwidth,
            "mass": self.mass,
        }
        for name, value in positive.items():
            if not value > 0:
                raise DomainError(f"{name} must be > 0, got {value!r}")
        if not self.temperature >= 0:
            raise DomainError(f"temperature must be >= 0, got {self.temperature!r}")
        if not self.damping >= 0:
            raise DomainError(f"damping must be >= 0, got {self.damping!r}")
        if not 0 <= self.incidence_angle < math.pi / 2:
            raise DomainError(
                f"incidence_angle must lie in [0, pi/2), got {self.incidence_angle!r}"
            )
        if not self.mirror_freq < self.laser_freq:
            raise DomainError(
                "mirror_freq must be far below laser_freq "
                f"(got {self.mirror_freq!r} >= {self.laser_freq!r})"
            )


@record
class Couplings:
    """Derived interaction rates, all in rad/s.

    All three are finite, beam_splitter > parametric > 0 and
    oscillation > 0.  ``oscillation`` must equal
    sqrt(beam_splitter^2 - parametric^2); the constructor enforces this to
    1e-12 relative plus the float64 resolution floor of the
    difference-of-squares (see :func:`oscillation_consistency`).  It also
    requires 2 (beam_splitter/oscillation)^2 to be finite, so that no square
    the closed forms take of the rate ratios overflows.
    """

    parametric: float
    beam_splitter: float
    oscillation: float

    def __post_init__(self):
        # The consistency floor below grows without bound as the rates
        # approach degeneracy, so it alone would admit oscillation <= 0.
        if not (
            0 < self.parametric < self.beam_splitter < math.inf
            and 0 < self.oscillation < math.inf
        ):
            raise DomainError(
                "require finite beam_splitter > parametric > 0 and "
                f"oscillation > 0, got {self!r}"
            )
        rel, floor = oscillation_consistency(
            self.parametric, self.beam_splitter, self.oscillation
        )
        if rel > 1e-12 + floor:
            raise DomainError(
                f"oscillation {self.oscillation!r} inconsistent with "
                "sqrt(beam_splitter^2 - parametric^2) "
                f"(relative defect {rel:.3e}, resolvable floor {floor:.1e})"
            )
        q = self.beam_splitter / self.oscillation
        if not 2.0 * q * q < math.inf:
            raise DomainError(
                f"beam_splitter/oscillation = {q!r} is too large: its square "
                f"leaves the float64 range, got {self!r}"
            )

    @classmethod
    def from_rates(cls, parametric: float, beam_splitter: float) -> "Couplings":
        if not 0 < parametric < beam_splitter:
            raise DomainError(
                "require beam_splitter > parametric > 0, got "
                f"({parametric!r}, {beam_splitter!r})"
            )
        osc = math.sqrt((beam_splitter - parametric) * (beam_splitter + parametric))
        return cls(parametric, beam_splitter, osc)


def period(couplings: Couplings) -> float:
    """Revival period of the closed dynamics, 2*pi/oscillation."""
    return 2.0 * math.pi / couplings.oscillation


def oscillation_consistency(
    parametric: float, beam_splitter: float, oscillation: float
) -> tuple[float, float]:
    """(relative defect, float64 floor) of the oscillation-rate invariant.

    The reference value sqrt((b - p)(b + p)) loses digits when b - p is far
    below b: its own relative error is ~ eps * b^2 / oscillation^2.  The
    returned floor is 8x that, so "defect <= tol + floor" is the sharpest
    check float64 supports; for well-separated rates the floor is ~ eps and
    the check is effectively exact.
    """
    # Square roots taken apart and the ratio squared by multiplication, so
    # that no intermediate underflows to 0 or raises OverflowError.
    expected = math.sqrt(beam_splitter - parametric) * math.sqrt(
        beam_splitter + parametric
    )
    rel = abs(oscillation - expected) / expected
    ratio = beam_splitter / expected
    floor = 8.0 * sys.float_info.epsilon * ratio * ratio
    return rel, floor


def compute_couplings(params: PhysicalParams) -> Couplings:
    """Map physical parameters to the two interaction rates.

    parametric = cos(phi0) * sqrt(P * dnu_det^2 * (w0 - Wm)
                                  / (2 M Wm c^2 dnu_mode))
    beam_splitter = parametric * sqrt((w0 + Wm) / (w0 - Wm))

    The oscillation rate is formed through the cancellation-safe identity
    sqrt(beam_splitter^2 - parametric^2) = parametric * sqrt(2 Wm / (w0 - Wm)):
    the two rates agree to ~Wm/w0 relative, so the naive difference would
    lose most of its digits.
    """
    w0, wm = params.laser_freq, params.mirror_freq
    try:
        parametric = math.cos(params.incidence_angle) * math.sqrt(
            params.power
            * params.det_bandwidth**2
            * (w0 - wm)
            / (2.0 * params.mass * wm * C_LIGHT**2 * params.mode_bandwidth)
        )
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError(
            f"the parametric rate of {params!r} is outside the float64 range"
        ) from exc
    beam_splitter = parametric * math.sqrt((w0 + wm) / (w0 - wm))
    oscillation = parametric * math.sqrt(2.0 * wm / (w0 - wm))
    return Couplings(parametric, beam_splitter, oscillation)


def thermal_occupation(temperature: float, mirror_freq: float) -> float:
    """Mean phonon number of the mirror mode at thermal equilibrium.

    [coth(h_bar W / 2 k T) - 1] / 2, which is the Bose factor
    1 / (exp(h_bar W / k T) - 1); evaluated via expm1 so that both the
    T -> 0 and the k T >> h_bar W limits are exact to rounding.  Where k T
    or h_bar W is subnormal (below about 1.6e-285 K or 2.1e-274 rad/s) it
    keeps only a few bits, or is 0, so h_bar W / k T is formed as
    (h_bar / k) (W / T).  Raises DomainError where the occupation overflows
    float64 (above about 6.9e305 K at 5e8 rad/s).
    """
    if not temperature >= 0:
        raise DomainError(f"temperature must be >= 0, got {temperature!r}")
    if not mirror_freq > 0:
        raise DomainError(f"mirror_freq must be > 0, got {mirror_freq!r}")
    if temperature == 0:
        return 0.0
    kt, hw = K_BOLTZMANN * temperature, HBAR * mirror_freq
    if min(kt, hw) >= sys.float_info.min:
        x = hw / kt
    else:
        x = (HBAR / K_BOLTZMANN) * (mirror_freq / temperature)
    if x > 600.0:  # expm1 would overflow; occupation is exp(-x) to all digits
        return math.exp(-x)
    nbar = 1.0 / math.expm1(x) if x > 0 else math.inf
    if nbar == math.inf:  # 1/expm1(x) overflows for a subnormal x
        raise DomainError(f"thermal occupation at {temperature!r} K exceeds the float64 range")
    return nbar


def _check_nbar(nbar) -> None:
    """Raise DomainError naming ``nbar`` unless it is finite and >= 0: the
    one check of every function that takes an occupation."""
    if not 0 <= nbar < math.inf:
        raise DomainError(f"nbar must be finite and >= 0, got {nbar!r}")


def sideband_frequencies(params: PhysicalParams) -> tuple[float, float]:
    """(Stokes, anti-Stokes) angular frequencies of the back-scattered modes."""
    return (
        params.laser_freq - params.mirror_freq,
        params.laser_freq + params.mirror_freq,
    )


def validate_regime(params: PhysicalParams) -> list[str]:
    """Check the approximations behind the effective interaction model.

    Returns one warning string per violated condition; an empty list means
    every regime assumption holds.  Warnings only: callers decide whether
    to proceed.
    """
    warnings = []
    # Rotating-wave averaging needs the mirror period to be well inside the
    # detection time 1/det_bandwidth.
    if params.mirror_freq < 10.0 * params.det_bandwidth:
        warnings.append(
            "rotating-wave approximation marginal: mirror_freq "
            f"{params.mirror_freq:g} rad/s is not >= 10x the detection "
            f"bandwidth {params.det_bandwidth:g} Hz"
        )
    couplings = compute_couplings(params)
    if params.damping > couplings.oscillation / 10.0:
        warnings.append(
            f"mechanical damping {params.damping:g} Hz is not negligible "
            f"against the oscillation rate {couplings.oscillation:g} rad/s"
        )
    return warnings
