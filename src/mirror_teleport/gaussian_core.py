"""Small dense-matrix utilities and physicality checks for Gaussian states.

Conventions used throughout the package:

* quadratures satisfy [X, P] = i, so the vacuum variance is 1/2;
* two-mode correlation matrices are real symmetric 4x4 over the ordered
  quadrature vector (X_stokes, P_stokes, X_mirror, P_mirror);
* the three-mode propagator acts on the operator vector
  (stokes, mirror^dag, anti_stokes^dag), whose commutator metric is
  diag(+1, -1, -1).

All matrices here are tiny (at most 4x4).  The two state matrices have
checked types; a propagator is a plain array, whose shape
``symplectic_defect`` checks.  Each matrix type and check takes one matrix
or a stack (..., n, n), checked in one array expression, each result bit
for bit that of its matrix alone.  A two-mode correlation matrix is in
standard form by its type, so its physicality check is a closed form: no
check here solves an eigenproblem.
"""

from __future__ import annotations

import numpy as np

from ._record import record
from .errors import DomainError

#: Vacuum variance of a single quadrature; the single source of truth for
#: the variance normalization used by every module.
VACUUM_VARIANCE = 0.5

#: Commutator metric of the mixed annihilation/creation operator vector
#: (stokes, mirror^dag, anti_stokes^dag).
MODE_METRIC_3 = np.diag([1.0, -1.0, -1.0])


def _as_square(matrix, n: int, name: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.shape[-2:] != (n, n):
        raise DomainError(f"{name} must be {n}x{n}, got shape {m.shape}")
    return m


@record
class CovMatrix2:
    """2x2 covariance matrix of one mode, dimensionless, or a stack (..., 2, 2)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square(self.matrix, 2, "CovMatrix2")
        if not np.array_equal(m, np.swapaxes(m, -1, -2)):
            raise DomainError("CovMatrix2 must be symmetric; build it from its upper triangle")
        # The smaller eigenvalue of [[a, b], [b, c]] in closed form.
        a, b, c = m[..., 0, 0], m[..., 0, 1], m[..., 1, 1]
        low = 0.5 * (a + c) - np.hypot(0.5 * (a - c), b)
        if np.any(low < -1e-12 * np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))):
            raise DomainError(f"CovMatrix2 not positive semidefinite: eigenvalue {np.min(low)}")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def vacuum(cls) -> "CovMatrix2":
        return cls(VACUUM_VARIANCE * np.eye(2))

    @classmethod
    def from_variances(cls, xx: float, xp: float, pp: float) -> "CovMatrix2":
        return cls(np.array([[xx, xp], [xp, pp]]))


@record
class CorrelationMatrix4:
    """4x4 quadrature correlation matrix of the two-mode state in standard
    form, or a stack; every entry is finite.

    Over (X_1, P_1, X_2, P_2) the standard form is variance a on both
    quadratures of mode 1, variance b on both of mode 2, correlation +c in
    (X_1, X_2) and -c in (P_1, P_2), and zeros elsewhere: the form that
    ``protocol.conditional_correlation`` builds.  Any other matrix, an
    asymmetric one included, raises DomainError.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square(self.matrix, 4, "CorrelationMatrix4")
        if not np.isfinite(m).all():
            raise DomainError("CorrelationMatrix4 has a non-finite entry")
        a, b, c = m[..., 0, 0], m[..., 2, 2], m[..., 0, 2]
        form = np.zeros_like(m)
        form[..., 0, 0] = form[..., 1, 1] = a
        form[..., 2, 2] = form[..., 3, 3] = b
        form[..., 0, 2] = form[..., 2, 0] = c
        form[..., 1, 3] = form[..., 3, 1] = -c
        if not np.array_equal(m, form):
            raise DomainError(
                "CorrelationMatrix4 must be symmetric and in standard form: "
                "(a, a, b, b) on the diagonal, +c in (X, X), -c in (P, P), zeros elsewhere"
            )
        object.__setattr__(self, "matrix", m)


def physicality_defect(corr: CorrelationMatrix4):
    """Uncertainty-principle violation of a two-mode correlation matrix.

    A correlation matrix G describes a physical state iff G + (i/2)J is
    positive semidefinite, J being the two-mode symplectic form.  Returns
    max(0, -lambda_min) of that Hermitian matrix; zero means physical.  In
    standard form (a, b, c) it splits into two real 2x2 blocks, on the
    vectors (1, -i, 0, 0), (0, 0, 1, i) and on their conjugates:

        [[a + 1/2, c], [c, b - 1/2]]  and  [[a - 1/2, c], [c, b + 1/2]],

    so lambda_min = (a + b)/2 - hypot((|a - b| + 1)/2, c).  Every term is
    halved before it is added or subtracted, so no intermediate overflows
    for finite entries.  A stack of shape (..., 4, 4) gives one defect per
    matrix, each bit for bit the defect of its matrix alone.
    """
    m = corr.matrix
    # Half of each entry, so half_low is lambda_min / 2.
    a, b, c = 0.5 * m[..., 0, 0], 0.5 * m[..., 2, 2], 0.5 * m[..., 0, 2]
    half_low = (0.5 * a + 0.5 * b) - np.hypot(0.5 * np.abs(a - b) + 0.25, c)
    return np.maximum(-2.0 * half_low, 0.0)[()]


def symplectic_defect(prop: np.ndarray):
    """Commutator-preservation defect of a propagator, scale-relative.

    A valid propagator M satisfies M eta M^T = eta with eta = diag(+1,-1,-1).
    The max-abs entry of the residual is normalized by max(1, |M|_max)^2:
    the residual is quadratic in M, so for entries of size m the float64
    noise floor is ~m^2 * eps and only the scaled defect is meaningful.
    For O(1) matrices the scaling is a no-op.  A stack of n matrices gives
    n defects, each bit for bit the defect of its matrix alone; any shape
    but (..., 3, 3) raises DomainError.
    """
    m = _as_square(prop, 3, "propagator")
    residual = m @ MODE_METRIC_3 @ np.swapaxes(m, -1, -2) - MODE_METRIC_3
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    return np.abs(residual).max(axis=(-2, -1)) / np.square(scale)
