import math

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


def test_vacuum_covariance():
    m = CovMatrix2.vacuum().matrix
    assert np.array_equal(m, 0.5 * np.eye(2))
    assert VACUUM_VARIANCE == 0.5


def test_covariance_rejects_asymmetric():
    with pytest.raises(DomainError):
        CovMatrix2(np.array([[1.0, 0.1], [0.2, 1.0]]))


def test_covariance_rejects_indefinite():
    with pytest.raises(DomainError):
        CovMatrix2.from_variances(1.0, 2.0, 1.0)


def test_covariance_rejects_wrong_shape():
    with pytest.raises(DomainError):
        CovMatrix2(np.eye(3))


def test_correlation_rejects_asymmetric():
    m = np.eye(4)
    m[0, 1] = 0.3
    with pytest.raises(DomainError):
        CorrelationMatrix4(m)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_correlation_rejects_non_finite(value):
    # Every CorrelationMatrix4 is finite, alone or in a stack; the check
    # runs before the symmetry check, which a NaN (unequal to itself)
    # would fail under a misleading message.
    one = 0.5 * np.eye(4)
    one[0, 2] = one[2, 0] = value
    for m in (one, np.stack([0.5 * np.eye(4), one])):
        with pytest.raises(DomainError, match="non-finite"):
            CorrelationMatrix4(m)


def _standard_form(a, b, c):
    m = np.zeros((4, 4))
    m[0, 0] = m[1, 1] = a
    m[2, 2] = m[3, 3] = b
    m[0, 2] = m[2, 0] = c
    m[1, 3] = m[3, 1] = -c
    return m


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
    # The type holds the standard form exactly, alone or in a stack: the
    # physicality defect's closed form takes nothing else.
    one = _standard_form(2.0, 3.0, 1.5)
    CorrelationMatrix4(one)
    for i, j in entries:
        one[i, j] = value
    for m in (one, np.stack([_standard_form(2.0, 3.0, 1.5), one])):
        with pytest.raises(DomainError, match="standard form"):
            CorrelationMatrix4(m)


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
@settings(max_examples=300, deadline=None)
def test_physicality_defect_is_the_least_eigenvalue(log_a, log_b, purity, sign):
    # c^2 = purity^2 ab: purity 1 is at the edge of physicality, where the
    # closed form cancels most; a variance below 1/2 or a purity above 1 is
    # unphysical.  The gap to an eigenvalue solve of G + (i/2)J is rounding.
    a, b = 10.0**log_a, 10.0**log_b
    m = _standard_form(a, b, sign * purity * math.sqrt(a) * math.sqrt(b))
    reference = max(-np.linalg.eigvalsh(m + 0.5j * _J)[0], 0.0)
    gap = abs(physicality_defect(CorrelationMatrix4(m)) - reference)
    assert gap <= 4.0 * np.finfo(float).eps * max(1.0, np.abs(m).max())


def test_physicality_defect_does_not_overflow():
    # Every term is halved first: at entries near the float64 limit the
    # defect, about 0.618 of them, is finite and raises no overflow.
    with np.errstate(over="raise", invalid="raise"):
        defect = physicality_defect(CorrelationMatrix4(_standard_form(1.7e308, 0.0, 1.7e308)))
    assert defect == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0 * 1.7e308, rel=1e-15)


def test_vacuum_two_mode_state_is_physical():
    # 0.5*I saturates the uncertainty bound: defect exactly 0.
    assert physicality_defect(CorrelationMatrix4(0.5 * np.eye(4))) == 0.0


def test_squeezed_below_vacuum_is_unphysical():
    # Variance 0.4 on every quadrature: lambda_min(0.4 I + i/2 J) = -0.1.
    defect = physicality_defect(CorrelationMatrix4(0.4 * np.eye(4)))
    assert defect == pytest.approx(0.1, rel=1e-12)


def test_thermal_state_is_physical():
    defect = physicality_defect(CorrelationMatrix4(3.7 * np.eye(4)))
    assert defect == 0.0


def test_identity_preserves_metric():
    assert symplectic_defect(np.eye(3)) == 0.0


def test_metric_violation_detected():
    # diag(2,1,1) maps eta -> diag(4,-1,-1): raw defect 3, scale 4.
    assert symplectic_defect(np.diag([2.0, 1.0, 1.0])) == pytest.approx(3.0 / 4.0)


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
    assert symplectic_defect(m) < 1e-14


@pytest.mark.parametrize("shape", [(2, 2), (3, 4), (5, 3), (3,), ()])
def test_symplectic_defect_rejects_a_non_propagator_shape(shape):
    # A propagator is a plain array: the defect checks its shape itself.
    with pytest.raises(DomainError, match="propagator must be 3x3"):
        symplectic_defect(np.ones(shape))


def test_stack_with_one_asymmetric_member_raises():
    stack = np.stack([0.5 * np.eye(4)] * 3)
    stack[1, 0, 1] = 0.3
    with pytest.raises(DomainError, match="symmetric"):
        CorrelationMatrix4(stack)


def test_stack_with_one_indefinite_member_raises():
    stack = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2)])
    with pytest.raises(DomainError, match="positive semidefinite"):
        CovMatrix2(stack)


def test_stacks_keep_their_shape():
    # A stack (..., n, n) is one value; a wrong trailing shape is not.
    stack = np.broadcast_to(3.7 * np.eye(4), (2, 3, 4, 4))
    assert CorrelationMatrix4(stack).matrix.shape == (2, 3, 4, 4)
    assert physicality_defect(CorrelationMatrix4(stack)).shape == (2, 3)
    assert CovMatrix2(np.stack([np.eye(2)] * 5)).matrix.shape == (5, 2, 2)
    with pytest.raises(DomainError, match="4x4"):
        CorrelationMatrix4(np.zeros((4, 4, 3)))
