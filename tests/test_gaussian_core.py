import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirror_teleport import (
    CorrelationMatrix4,
    CovMatrix2,
    DomainError,
    VACUUM_VARIANCE,
    physicality_defect,
    symplectic_defect,
)

from conftest import standard_form, standard_form_triple


def test_vacuum_covariance():
    vacuum = CovMatrix2.vacuum()
    assert (vacuum.xx, vacuum.xp, vacuum.pp) == (0.5, 0.0, 0.5)
    assert VACUUM_VARIANCE == 0.5


def test_covariance_rejects_indefinite():
    with pytest.raises(DomainError):
        CovMatrix2(1.0, 2.0, 1.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_covariance_rejects_non_finite(value):
    # As a correlation matrix does, whichever entry.
    for entries in ((value, 0.0, 0.5), (0.5, value, 0.5), (0.5, 0.0, value)):
        with pytest.raises(DomainError, match="non-finite"):
            CovMatrix2(*entries)


def test_covariance_rejects_wrong_shape():
    # The entries are floats: an array of them is no covariance, and is
    # refused rather than held.
    with pytest.raises(TypeError):
        CovMatrix2(np.ones(3), 0.0, np.ones(3))
    with pytest.raises(TypeError):
        CorrelationMatrix4(np.ones(2), 3.0, 0.0)


def test_correlation_rejects_asymmetric():
    # The reader through which the tests compare a matrix with a
    # CorrelationMatrix4 takes the standard form and nothing else.
    m = 0.5 * np.eye(4)
    m[0, 1] = 0.3
    with pytest.raises(ValueError, match="symmetric"):
        standard_form_triple(m)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_correlation_rejects_non_finite(value):
    # Every CorrelationMatrix4 is finite, whichever entry is not.  The
    # tests' matrix reader checks finiteness before the form, which a NaN
    # (unequal to itself) would fail under a misleading message.
    for entries in ((value, 0.5, 0.0), (0.5, value, 0.0), (0.5, 0.5, value)):
        with pytest.raises(DomainError, match="non-finite"):
            CorrelationMatrix4(*entries)
    for i, j in ((0, 2), (0, 1)):
        m = 0.5 * np.eye(4)
        m[i, j] = m[j, i] = value
        with pytest.raises(ValueError, match="non-finite"):
            standard_form_triple(m)


#: (entries, value): each change takes the standard form (2, 3, 1.5) off it.
_OFF_FORM = [
    *[
        pytest.param(((i, j),), 0.25, id=f"entry-{i}{j}")
        for i in range(4)
        for j in range(4)
        if i != j and (i, j) not in {(0, 2), (2, 0), (1, 3), (3, 1)}
    ],
    *[
        pytest.param(((i, j), (j, i)), 0.25, id=f"pair-{i}{j}")
        for i, j in [(0, 1), (0, 3), (1, 2), (2, 3)]
    ],
    pytest.param(((1, 1),), 2.5, id="unequal-stokes-variances"),
    pytest.param(((3, 3),), 3.5, id="unequal-mirror-variances"),
    pytest.param(((1, 3), (3, 1)), 1.5, id="pp-is-plus-c"),
    pytest.param(((1, 3), (3, 1)), -1.25, id="pp-is-not-minus-c"),
    pytest.param(((2, 0),), 1.25, id="xx-asymmetric"),
]


@pytest.mark.parametrize("entries, value", _OFF_FORM)
def test_correlation_rejects_a_matrix_off_the_standard_form(entries, value):
    # A CorrelationMatrix4 holds the standard form, and the physicality
    # defect's closed form takes nothing else.  The tests read the matrix
    # that general Gaussian conditioning gives into its triple, to compare
    # it with conditional_correlation's, through a reader that rejects each
    # way off the form, exactly and at the tolerance that comparison uses.
    m = standard_form(2.0, 3.0, 1.5)
    assert standard_form_triple(m) == (2.0, 3.0, 1.5)
    for i, j in entries:
        m[i, j] = value
    for rel in (0.0, 1e-12):
        with pytest.raises(ValueError, match="standard form"):
            standard_form_triple(m, rel)


def test_correlation_is_its_standard_form_triple():
    # The type holds (a, b, c), as given, so no correlation matrix is off
    # the standard form; the tests' reader is the inverse of the form.
    one = CorrelationMatrix4(2.0, 3.0, 1.5)
    assert (one.a, one.b, one.c) == (2.0, 3.0, 1.5)
    assert all(type(v) is float for v in (one.a, one.b, one.c))
    assert standard_form_triple(standard_form(one.a, one.b, one.c)) == (2.0, 3.0, 1.5)


_J = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


@given(
    log_a=st.floats(-3.0, 150.0),
    log_b=st.floats(-3.0, 150.0),
    purity=st.one_of(st.just(1.0), st.floats(0.0, 1.5)),
    sign=st.sampled_from([1.0, -1.0]),
)
@example(log_a=150.0, log_b=150.0, purity=1.0, sign=1.0)
@example(log_a=-3.0, log_b=150.0, purity=1.0, sign=-1.0)
@example(log_a=0.0, log_b=0.0, purity=0.0, sign=1.0)
@example(log_a=1.0146248006985341, log_b=1.0146248006985341, purity=1.0146248006985341, sign=1.0)
@settings(max_examples=300, deadline=None)
def test_physicality_defect_is_the_least_eigenvalue(log_a, log_b, purity, sign):
    # c^2 = purity^2 ab: purity 1 is at the edge of physicality, where the
    # closed form cancels most; a variance below 1/2 or a purity above 1 is
    # unphysical.  The gap to a 40-digit eigenvalue solve of G + (i/2)J is
    # rounding.  LAPACK's float64 eigvalsh is no reference at this bound: at
    # a = b = 10.34, purity 1.0146 it erred by 1.0e-14, the closed form by
    # 4.7e-16.
    a, b = 10.0**log_a, 10.0**log_b
    corr = CorrelationMatrix4(a, b, sign * purity * math.sqrt(a) * math.sqrt(b))
    with mpmath.workdps(40):
        m = standard_form(corr.a, corr.b, corr.c)
        g = mpmath.matrix(m.tolist()) + mpmath.mpc(0, 0.5) * mpmath.matrix(_J.tolist())
        reference = max(-float(min(mpmath.eighe(g, eigvals_only=True))), 0.0)
    gap = abs(physicality_defect(corr) - reference)
    assert gap <= 4.0 * np.finfo(float).eps * max(1.0, abs(a), abs(b), abs(corr.c))


def test_physicality_defect_does_not_overflow():
    # Every term is halved first: at entries near the float64 limit the
    # defect, about 0.618 of them, is finite and raises no overflow.
    defect = physicality_defect(CorrelationMatrix4(1.7e308, 0.0, 1.7e308))
    assert defect == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0 * 1.7e308, rel=1e-15)


def test_vacuum_two_mode_state_is_physical():
    # 0.5*I saturates the uncertainty bound: defect exactly 0.
    assert physicality_defect(CorrelationMatrix4(0.5, 0.5, 0.0)) == 0.0


def test_squeezed_below_vacuum_is_unphysical():
    # Variance 0.4 on every quadrature: lambda_min(0.4 I + i/2 J) = -0.1.
    defect = physicality_defect(CorrelationMatrix4(0.4, 0.4, 0.0))
    assert defect == pytest.approx(0.1, rel=1e-12)


def test_thermal_state_is_physical():
    defect = physicality_defect(CorrelationMatrix4(3.7, 3.7, 0.0))
    assert defect == 0.0


def _rows(m):
    """The rows of ``m`` as tuples of floats, as ``propagator`` returns them."""
    return tuple(tuple(row) for row in np.asarray(m, dtype=float).tolist())


def test_identity_preserves_metric():
    assert symplectic_defect(_rows(np.eye(3))) == 0.0


def test_metric_violation_detected():
    # diag(2,1,1) maps eta -> diag(4,-1,-1): raw defect 3, scale 4.
    assert symplectic_defect(_rows(np.diag([2.0, 1.0, 1.0]))) == pytest.approx(3.0 / 4.0)


def test_symplectic_defect_is_scale_relative():
    # Large valid hyperbolic rotation: scaled defect stays at rounding level.
    r = 15.0
    m = np.array(
        [
            [np.cosh(r), np.sinh(r), 0.0],
            [np.sinh(r), np.cosh(r), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    assert symplectic_defect(_rows(m)) < 1e-14


@pytest.mark.parametrize("shape", [(2, 2), (3, 4), (5, 3), (3,), ()])
def test_symplectic_defect_rejects_a_non_propagator_shape(shape):
    # A propagator is three rows of three floats; anything else fails to
    # unpack into them, rather than give a defect.
    with pytest.raises((TypeError, ValueError)):
        symplectic_defect(np.ones(shape).tolist())


def test_symplectic_defect_keeps_a_nan():
    # max() would skip a NaN entry or residual; the defect is NaN instead,
    # which the propagator-metric gate rejects as leaving float64.
    rows = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for i in range(3):
        for j in range(3):
            bad = [list(row) for row in rows]
            bad[i][j] = math.nan
            assert math.isnan(symplectic_defect(bad))
