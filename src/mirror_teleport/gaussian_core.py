"""Small Gaussian-state records and physicality checks, on Python floats.

Conventions used throughout the package:

* quadratures satisfy [X, P] = i, so the vacuum variance is 1/2
  (``VACUUM_VARIANCE``, which ``protocol`` defines);
* two-mode correlation matrices are real symmetric 4x4 over the ordered
  quadrature vector (X_stokes, P_stokes, X_mirror, P_mirror);
* the three-mode propagator acts on the operator vector
  (stokes, mirror^dag, anti_stokes^dag), whose commutator metric is
  diag(+1, -1, -1).

Both state types hold the independent entries of their matrix, not the
matrix: a one-mode covariance its (xx, xp, pp), a two-mode correlation
matrix in standard form its (a, b, c), each a finite float.  Every check
here is a closed form in those entries; none solves an eigenproblem, and
this module imports no numpy.
"""

from __future__ import annotations

import math

from ._record import record
from .errors import DomainError
from .protocol import VACUUM_VARIANCE


def _check_finite(record, *values) -> None:
    """DomainError naming ``record``'s type unless every one of ``values`` is finite."""
    if not all(map(math.isfinite, values)):
        raise DomainError(f"{type(record).__name__} has a non-finite entry")


def _largest_abs(values) -> float:
    """max |v| over ``values``; a NaN gives NaN, which Python's max() would skip."""
    if any(v != v for v in values):
        return math.nan
    return max(map(abs, values))


@record
class CovMatrix2:
    """Covariance matrix [[xx, xp], [xp, pp]] of one mode, dimensionless.

    Raises DomainError for a NaN or infinite entry, or where the matrix is
    not positive semidefinite, beyond rounding.
    """

    xx: float
    xp: float
    pp: float

    def __post_init__(self):
        xx, xp, pp = self.xx, self.xp, self.pp
        _check_finite(self, xx, xp, pp)
        # The smaller eigenvalue of [[xx, xp], [xp, pp]] in closed form.
        low = 0.5 * (xx + pp) - math.hypot(0.5 * (xx - pp), xp)
        if low < -1e-12 * max(abs(xx), abs(xp), abs(pp), 1.0):
            raise DomainError(f"CovMatrix2 not positive semidefinite: eigenvalue {low}")

    @classmethod
    def vacuum(cls) -> "CovMatrix2":
        return cls(VACUUM_VARIANCE, 0.0, VACUUM_VARIANCE)


@record
class CorrelationMatrix4:
    """Correlation matrix of a two-mode state in standard form, by its three
    entries; every entry is finite.

    Over (X_1, P_1, X_2, P_2) the standard form is variance ``a`` on both
    quadratures of mode 1, variance ``b`` on both of mode 2, correlation
    +``c`` in (X_1, X_2) and -``c`` in (P_1, P_2), and zeros elsewhere: the
    form of the conditioned channel that ``protocol.conditional_correlation``
    returns.  Raises DomainError for a NaN or infinite entry.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        _check_finite(self, self.a, self.b, self.c)


def physicality_defect(corr: CorrelationMatrix4) -> float:
    """Uncertainty-principle violation of a two-mode correlation matrix.

    A correlation matrix G describes a physical state iff G + (i/2)J is
    positive semidefinite, J being the two-mode symplectic form.  Returns
    max(0, -lambda_min) of that Hermitian matrix; zero means physical.  In
    standard form (a, b, c) it splits into two real 2x2 blocks, on the
    vectors (1, -i, 0, 0), (0, 0, 1, i) and on their conjugates:

        [[a + 1/2, c], [c, b - 1/2]]  and  [[a - 1/2, c], [c, b + 1/2]],

    so lambda_min = (a + b)/2 - hypot((|a - b| + 1)/2, c).  Every term is
    halved before it is added or subtracted, so no intermediate overflows
    for finite entries.
    """
    return _physicality(corr.a, corr.b, corr.c)


def _physicality(a: float, b: float, c: float) -> float:
    """:func:`physicality_defect` of the standard form (a, b, c), which
    ``verify``'s gate evaluates on the channel's three floats."""
    # Half of each entry, so half_low is lambda_min / 2.
    a, b, c = 0.5 * a, 0.5 * b, 0.5 * c
    half_low = (0.5 * a + 0.5 * b) - math.hypot(0.5 * abs(a - b) + 0.25, c)
    defect = -2.0 * half_low
    return defect if defect > 0.0 else 0.0  # -0.0 is 0.0


def symplectic_defect(prop) -> float:
    """Commutator-preservation defect of a propagator, scale-relative.

    A valid propagator M satisfies M eta M^T = eta with eta = diag(+1,-1,-1).
    The max-abs entry of the residual is normalized by max(1, |M|_max)^2:
    the residual is quadratic in M, so for entries of size m the float64
    noise floor is ~m^2 * eps and only the scaled defect is meaningful.
    For O(1) matrices the scaling is a no-op.  ``prop`` is the three rows
    of floats that ``dynamics.propagator`` returns; a NaN entry gives a NaN
    defect.
    """
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = prop
    # The six entries of the symmetric residual M eta M^T - eta.
    residual = (
        a0 * a0 - a1 * a1 - a2 * a2 - 1.0,
        b0 * b0 - b1 * b1 - b2 * b2 + 1.0,
        c0 * c0 - c1 * c1 - c2 * c2 + 1.0,
        a0 * b0 - a1 * b1 - a2 * b2,
        a0 * c0 - a1 * c1 - a2 * c2,
        b0 * c0 - b1 * c1 - b2 * c2,
    )
    scale = max(_largest_abs((a0, a1, a2, b0, b1, b2, c0, c1, c2)), 1.0)  # a NaN first is kept
    return _largest_abs(residual) / (scale * scale)
