"""Small dense-matrix utilities and physicality checks for Gaussian states.

Conventions used throughout the package:

* quadratures satisfy [X, P] = i, so the vacuum variance is 1/2;
* two-mode correlation matrices are real symmetric 4x4 over the ordered
  quadrature vector (X_stokes, P_stokes, X_mirror, P_mirror);
* the three-mode propagator acts on the operator vector
  (stokes, mirror^dag, anti_stokes^dag), whose commutator metric is
  diag(+1, -1, -1).

All matrices here are tiny (at most 4x4), so everything is solved densely.
Complex arithmetic appears only inside the physicality check and stays
confined to this module.
"""

from __future__ import annotations

import numpy as np

from ._record import record
from .errors import DomainError

#: Vacuum variance of a single quadrature; the single source of truth for
#: the variance normalization used by every module.
VACUUM_VARIANCE = 0.5

#: Symplectic form for two modes in (X1, P1, X2, P2) ordering.
SYMPLECTIC_FORM_4 = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)

#: Commutator metric of the mixed annihilation/creation operator vector
#: (stokes, mirror^dag, anti_stokes^dag).
MODE_METRIC_3 = np.diag([1.0, -1.0, -1.0])


def _as_square(matrix, n: int, name: str, stack: bool = False) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.shape[-2:] != (n, n) or (m.ndim > 2 and not stack):
        raise DomainError(f"{name} must be {n}x{n}, got shape {m.shape}")
    return m


def _require_symmetric(m: np.ndarray, name: str) -> None:
    if not np.array_equal(m, m.T):
        raise DomainError(f"{name} must be symmetric; build it from its upper triangle")


@record
class CovMatrix2:
    """2x2 covariance matrix of one mode, dimensionless quadrature units."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square(self.matrix, 2, "CovMatrix2")
        _require_symmetric(m, "CovMatrix2")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -1e-12 * max(1.0, np.abs(m).max()):
            raise DomainError(f"CovMatrix2 not positive semidefinite: eigenvalues {eigs}")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def vacuum(cls) -> "CovMatrix2":
        return cls(VACUUM_VARIANCE * np.eye(2))

    @classmethod
    def from_variances(cls, xx: float, xp: float, pp: float) -> "CovMatrix2":
        return cls(np.array([[xx, xp], [xp, pp]]))


@record
class CorrelationMatrix4:
    """4x4 symmetric quadrature correlation matrix of the shared two-mode state."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square(self.matrix, 4, "CorrelationMatrix4")
        _require_symmetric(m, "CorrelationMatrix4")
        object.__setattr__(self, "matrix", m)


@record
class PropagatorMatrix:
    """3x3 real matrix evolving (stokes, mirror^dag, anti_stokes^dag), or a
    stack of them, shape (n, 3, 3), with ``time`` an array of n times."""

    matrix: np.ndarray
    time: float | np.ndarray = 0.0

    def __post_init__(self):
        m = _as_square(self.matrix, 3, "PropagatorMatrix", stack=True)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls) -> "PropagatorMatrix":
        return cls(np.eye(3), 0.0)


def physicality_defects(matrices) -> np.ndarray:
    """:func:`physicality_defect` of each matrix in a stack of shape (..., 4, 4).

    One stacked eigenvalue solve; the defects have the stack's leading shape.
    Raises DomainError on a non-finite entry, which no eigenvalue solve takes.
    """
    matrices = np.asarray(matrices, dtype=float)
    if not np.isfinite(matrices).all():
        raise DomainError("correlation matrix has a non-finite entry")
    h = matrices + 0.5j * SYMPLECTIC_FORM_4
    return np.maximum(-np.linalg.eigvalsh(h)[..., 0], 0.0)


def physicality_defect(corr: CorrelationMatrix4) -> float:
    """Uncertainty-principle violation of a two-mode correlation matrix.

    A correlation matrix G describes a physical state iff G + (i/2)J is
    positive semidefinite, J being the two-mode symplectic form.  Returns
    max(0, -lambda_min) of that Hermitian matrix; zero means physical.
    """
    return float(physicality_defects(corr.matrix))


def symplectic_defect(prop: PropagatorMatrix):
    """Commutator-preservation defect of a propagator, scale-relative.

    A valid propagator M satisfies M eta M^T = eta with eta = diag(+1,-1,-1).
    The max-abs entry of the residual is normalized by max(1, |M|_max)^2:
    the residual is quadratic in M, so for entries of size m the float64
    noise floor is ~m^2 * eps and only the scaled defect is meaningful.
    For O(1) matrices the scaling is a no-op.  A stack of n matrices gives
    n defects, each bit for bit the defect of its matrix alone.
    """
    m = prop.matrix
    residual = m @ MODE_METRIC_3 @ np.swapaxes(m, -1, -2) - MODE_METRIC_3
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    return np.abs(residual).max(axis=(-2, -1)) / np.square(scale)
