"""Small Gaussian-state records and physicality checks, on floats or arrays.

Conventions used throughout the package:

* quadratures satisfy [X, P] = i, so the vacuum variance is 1/2;
* two-mode correlation matrices are real symmetric 4x4 over the ordered
  quadrature vector (X_stokes, P_stokes, X_mirror, P_mirror);
* the three-mode propagator acts on the operator vector
  (stokes, mirror^dag, anti_stokes^dag), whose commutator metric is
  diag(+1, -1, -1).

Both state types hold the independent entries of their matrix, not the
matrix: a one-mode covariance its (xx, xp, pp), a two-mode correlation
matrix in standard form its (a, b, c).  Each entry is a Python float, or
all are numpy arrays of one shape for a stack.  ``.matrix`` builds the
matrix (or the stack (..., n, n)) with numpy, and ``from_matrix`` reads one
back, rejecting a matrix the entries cannot hold.  Every check here is a closed
form in those entries, one source for floats and arrays, each result bit
for bit that of its entries alone: a float takes its ``hypot`` from
``math`` and an array from numpy, the only difference between the two.
No check solves an eigenproblem, and this module imports numpy only for an
array.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import TYPE_CHECKING

from ._record import record
from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

#: Vacuum variance of a single quadrature; the single source of truth for
#: the variance normalization used by every module.
VACUUM_VARIANCE = 0.5


def _floats(*values) -> bool:
    """True if every one of ``values`` is a Python float, which takes the
    scalar path; a numpy scalar or array takes the array path."""
    for value in values:
        if type(value) is not float:
            return False
    return True


def _entries(record, fields: tuple[str, ...]):
    """The entries ``fields`` of ``record``: as they are if all are Python
    floats, else as float arrays broadcast to one shape, which replace them
    in ``record``.  DomainError for shapes that do not broadcast, or for a
    NaN or infinite entry."""
    name = type(record).__name__
    values = tuple(map(getattr, repeat(record), fields))
    if _floats(*values):
        finite = all(map(math.isfinite, values))
    else:
        import numpy as np

        arrays = [np.asarray(v, dtype=float) for v in values]
        try:
            shape = np.broadcast_shapes(*(v.shape for v in arrays))
        except ValueError:
            shapes = [v.shape for v in arrays]
            raise DomainError(f"{name} entries must have one shape, got {shapes}") from None
        values = tuple(v if v.shape == shape else np.broadcast_to(v, shape) for v in arrays)
        for field, value in zip(fields, values):
            object.__setattr__(record, field, value)
        finite = all(np.isfinite(v).all() for v in values)
    if not finite:
        raise DomainError(f"{name} has a non-finite entry")
    return values


def _square(matrix, n: int, name: str) -> np.ndarray:
    """``matrix`` as a finite float array (..., n, n); DomainError for
    another shape or for a NaN or infinite entry, checked first, since a NaN
    (unequal to itself) would fail a symmetry check under a misleading
    message."""
    import numpy as np

    m = np.asarray(matrix, dtype=float)
    if m.shape[-2:] != (n, n):
        raise DomainError(f"{name} must be {n}x{n}, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DomainError(f"{name} has a non-finite entry")
    return m


def _entries_of(m, *cells):
    """The entries ``cells`` of the matrix ``m``, as Python floats for one
    matrix or as arrays for a stack."""
    entries = tuple(m[(..., i, j)] for i, j in cells)
    return tuple(map(float, entries)) if m.ndim == 2 else entries


def _hypot(x, y):
    """hypot(x, y): ``math``'s for Python floats, numpy's for arrays."""
    if _floats(x, y):
        return math.hypot(x, y)
    import numpy as np

    return np.hypot(x, y)


def _largest_abs(values):
    """max |v| over ``values``, elementwise over arrays; a NaN gives NaN,
    which Python's max() would skip."""
    if _floats(*values):
        if any(v != v for v in values):
            return math.nan
        return max(map(abs, values))
    import numpy as np

    return np.max(np.abs(values), axis=0)


def _at_least_one(value):
    """max(value, 1), elementwise over arrays; a NaN stays NaN."""
    if _floats(value):
        return max(value, 1.0)  # a NaN first is kept
    import numpy as np

    return np.maximum(1.0, value)


@record
class CovMatrix2:
    """Covariance matrix [[xx, xp], [xp, pp]] of one mode, dimensionless.

    The entries are Python floats, or arrays of one shape for a stack (a
    float entry broadcasts).  Raises DomainError for a NaN or infinite
    entry, or where the matrix is not positive semidefinite, beyond
    rounding.
    """

    xx: float | np.ndarray
    xp: float | np.ndarray
    pp: float | np.ndarray

    def __post_init__(self):
        xx, xp, pp = _entries(self, ("xx", "xp", "pp"))
        # The smaller eigenvalue of [[xx, xp], [xp, pp]] in closed form.
        low = 0.5 * (xx + pp) - _hypot(0.5 * (xx - pp), xp)
        below = low < -1e-12 * _at_least_one(_largest_abs((xx, xp, pp)))
        if below if _floats(low) else below.any():
            least = low if _floats(low) else low.min()
            raise DomainError(f"CovMatrix2 not positive semidefinite: eigenvalue {least}")

    @classmethod
    def vacuum(cls) -> "CovMatrix2":
        return cls(VACUUM_VARIANCE, 0.0, VACUUM_VARIANCE)

    @classmethod
    def from_matrix(cls, matrix) -> "CovMatrix2":
        """The entries of a 2x2 matrix, or of a stack (..., 2, 2).  Raises
        DomainError for another shape, a NaN or infinite entry, an
        asymmetric matrix, or one the constructor rejects."""
        import numpy as np

        m = _square(matrix, 2, cls.__name__)
        if not np.array_equal(m[..., 0, 1], m[..., 1, 0]):
            raise DomainError(f"{cls.__name__} must be symmetric")
        return cls(*_entries_of(m, (0, 0), (0, 1), (1, 1)))

    @property
    def matrix(self) -> np.ndarray:
        """The matrix, (2, 2), or (..., 2, 2) for a stack."""
        import numpy as np

        entries = (self.xx, self.xp, self.xp, self.pp)
        return np.stack(entries, axis=-1).reshape(np.shape(self.xx) + (2, 2))


@record
class CorrelationMatrix4:
    """Correlation matrix of a two-mode state in standard form, by its three
    entries; every entry is finite.

    Over (X_1, P_1, X_2, P_2) the standard form is variance ``a`` on both
    quadratures of mode 1, variance ``b`` on both of mode 2, correlation
    +``c`` in (X_1, X_2) and -``c`` in (P_1, P_2), and zeros elsewhere: the
    form of the conditioned channel that ``protocol.conditional_correlation``
    returns.  The entries are Python floats, or arrays of one shape for a
    stack (a float entry broadcasts).  Raises DomainError for a NaN or
    infinite entry.
    """

    a: float | np.ndarray
    b: float | np.ndarray
    c: float | np.ndarray

    def __post_init__(self):
        _entries(self, ("a", "b", "c"))

    @classmethod
    def from_matrix(cls, matrix) -> "CorrelationMatrix4":
        """The triple of a 4x4 matrix in standard form, or of a stack
        (..., 4, 4).  Raises DomainError for another shape, a NaN or
        infinite entry, or a matrix off the standard form, an asymmetric
        one included."""
        import numpy as np

        m = _square(matrix, 4, cls.__name__)
        corr = cls(*_entries_of(m, (0, 0), (2, 2), (0, 2)))
        if not np.array_equal(m, corr.matrix):
            raise DomainError(
                f"{cls.__name__} must be symmetric and in standard form: "
                "(a, a, b, b) on the diagonal, +c in (X, X), -c in (P, P), zeros elsewhere"
            )
        return corr

    @property
    def matrix(self) -> np.ndarray:
        """The 4x4 matrix, or the stack (..., 4, 4)."""
        import numpy as np

        m = np.zeros(np.shape(self.a) + (4, 4))
        m[..., 0, 0] = m[..., 1, 1] = self.a
        m[..., 2, 2] = m[..., 3, 3] = self.b
        m[..., 0, 2] = m[..., 2, 0] = self.c
        m[..., 1, 3] = m[..., 3, 1] = -self.c
        return m


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
    for finite entries.  A float for float entries; for a stack, one defect
    per matrix, each bit for bit the defect of its matrix alone.
    """
    # Half of each entry, so half_low is lambda_min / 2.
    a, b, c = 0.5 * corr.a, 0.5 * corr.b, 0.5 * corr.c
    half_low = (0.5 * a + 0.5 * b) - _hypot(0.5 * abs(a - b) + 0.25, c)
    defect = -2.0 * half_low
    if _floats(defect):  # max(defect, 0), as numpy's: NaN stays, -0.0 is 0.0
        return defect if defect > 0.0 or defect != defect else 0.0
    import numpy as np

    return np.maximum(defect, 0.0)[()]


def symplectic_defect(prop):
    """Commutator-preservation defect of a propagator, scale-relative.

    A valid propagator M satisfies M eta M^T = eta with eta = diag(+1,-1,-1).
    The max-abs entry of the residual is normalized by max(1, |M|_max)^2:
    the residual is quadratic in M, so for entries of size m the float64
    noise floor is ~m^2 * eps and only the scaled defect is meaningful.
    For O(1) matrices the scaling is a no-op.  ``prop`` is what
    ``dynamics.propagator`` returns: its three rows of floats for a float
    time, a float defect; or an array (..., 3, 3), one defect per matrix,
    each bit for bit the defect of its matrix alone.  An array of any other
    shape raises DomainError.
    """
    if not isinstance(prop, tuple):
        import numpy as np

        m = np.asarray(prop, dtype=float)
        if m.shape[-2:] != (3, 3):
            raise DomainError(f"propagator must be 3x3, got shape {m.shape}")
        prop = np.moveaxis(m, (-2, -1), (0, 1))
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
    scale = _at_least_one(_largest_abs((a0, a1, a2, b0, b1, b2, c0, c1, c2)))
    return _largest_abs(residual) / (scale * scale)
