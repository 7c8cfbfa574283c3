"""Verification-stage analysis of the back-scattered heterodyne signal.

A second, intense reading pulse drives the same optomechanical interaction;
heterodyning the combination Z(t) = stokes(t) - anti_stokes^dag(t) of the
two back-scattered meter modes (laser as local oscillator, photocurrent
mixed down at the mirror frequency) reveals the mirror state.  Expanding
Z(t) over the initial operators gives three weights; at the times where
cos(oscillation*t) = 0 the mirror weight peaks and the signal is dominated
by the mirror's initial creation operator whenever the quality ratio
returned by :func:`readout_quality` is large.

The reading pulse may use its own power and bandwidths, so every operation
takes an explicit Couplings value rather than reusing the teleportation one.
"""

from __future__ import annotations

import math

from ._record import record
from .errors import DomainError
from .optomech import Couplings, _check_nbar

#: Quality ratio above which a readout is reported as faithful.  An artifact
#: convention (one order of magnitude), not a sharp physical threshold.
QUALITY_THRESHOLD = 10.0


@record
class ReadoutWeights:
    """Decomposition of Z(t) over the initial-time operators.

    mirror_weight multiplies mirror^dag(0), stokes_weight multiplies
    stokes(0), anti_weight multiplies anti_stokes^dag(0).  At t = 0 the
    combination is stokes(0) - anti_stokes^dag(0), i.e. (0, 1, -1).
    """

    mirror_weight: float
    stokes_weight: float
    anti_weight: float
    time: float

    def __post_init__(self):
        for name in ("mirror_weight", "stokes_weight", "anti_weight"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")


def readout_weights(couplings: Couplings, time: float) -> ReadoutWeights:
    """Weights of Z(t) over (mirror^dag, stokes, anti_stokes^dag) at time 0.

    With p = parametric, b = beam_splitter, O = oscillation, x = O*t:

        mirror_weight = (p + b) sin(x) / O
        stokes_weight = (b + p cos x) / (b + p)
        anti_weight   = -(p + b cos x) / (b + p)

    The a-mode weights are the factored forms of the published quadratic
    expressions: e.g. [b^2 - p^2 cos x - p b (1 - cos x)] / O^2 =
    (b - p)(b + p cos x)/O^2 = (b + p cos x)/(b + p), using
    O^2 = (b - p)(b + p); the factored forms stay accurate when b - p
    underflows the naive subtraction.
    """
    p = couplings.parametric
    b = couplings.beam_splitter
    x = couplings.oscillation * time
    c = math.cos(x)
    return ReadoutWeights(
        mirror_weight=(p + b) * math.sin(x) / couplings.oscillation,
        stokes_weight=(b + p * c) / (b + p),
        anti_weight=-(p + b * c) / (b + p),
        time=float(time),
    )


def readout_times(couplings: Couplings, k_max: int) -> list[float]:
    """First ``k_max`` optimal readout times, where cos(oscillation*t) = 0."""
    if k_max < 0:
        raise DomainError(f"k_max must be >= 0, got {k_max}")
    return [
        (2 * k + 1) * math.pi / (2.0 * couplings.oscillation) for k in range(k_max)
    ]


def readout_quality(couplings: Couplings) -> float:
    """Mirror-to-light weight ratio at the optimal readout times.

    Q = oscillation (b + p) / (b (b - p)) = (b + p)^2 / (b * oscillation),
    using oscillation^2 = (b - p)(b + p).  Q >> 1 means the heterodyne
    signal practically coincides with the mirror's initial oscillation
    operator; Q is invariant under a common rescaling of both rates.
    """
    p = couplings.parametric
    b = couplings.beam_splitter
    return (b + p) / b * ((b + p) / couplings.oscillation)


def decoherence_window(damping: float, nbar: float) -> float:
    """Time budget 1/(damping * nbar) for feed-forward before the mirror reheats.

    Returns +inf for nbar = 0: with no thermal phonons there is no reheating
    constraint, and downstream schedulers compare windows numerically.  A
    reheating rate damping * nbar that underflows float64 means the same.
    """
    if not damping > 0:
        raise DomainError(f"damping must be > 0, got {damping!r}")
    _check_nbar(nbar)
    rate = damping * nbar
    if rate == 0:
        return math.inf
    return 1.0 / rate
