"""The closed forms as the solution of the moment ODE system.

The system is linear, so forms that start at y(0) = (0, nbar, 0, 0, 0, 0)
and whose derivative equals ``_moment_derivatives(y)`` at every time are its
unique solution.  Here sympy proves both for the library's own expressions,
and the ``ode-vs-analytic`` gate, which checks both in float64, is tested for
its reach and its sensitivity.
"""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mirror_teleport import dynamics, replace
from mirror_teleport.cli import _run_gates
from mirror_teleport.dynamics import _moment_derivatives, _moment_slopes

from conftest import COEFF_FIELDS, NBAR_SET, assert_reaches_the_peaks, rate_pairs

# In units of the oscillation rate: x = oscillation*t, parametric = r and
# beam_splitter = q = sqrt(1 + r^2), since oscillation^2 = b^2 - p^2.
r, x, nbar = sp.symbols("r x nbar", positive=True)
q = sp.sqrt(1 + r**2)


@pytest.fixture
def symbolic(monkeypatch):
    """Make the closed forms and their slopes evaluate on sympy symbols:
    the ratios and trig that both read from ``_ratios_and_trig`` become
    r, q, sin x, cos x and 1 - cos x, and the rest is the library's code."""

    def ratios_and_trig(couplings, time):
        return r, q, np.array(x, dtype=object), sp.sin(x), sp.cos(x), 1 - sp.cos(x)

    monkeypatch.setattr(dynamics, "_ratios_and_trig", ratios_and_trig)
    g = dynamics.coeffs_analytic(None, nbar, None)
    return [getattr(g, f) for f in COEFF_FIELDS]


def _is_zero(expr) -> bool:
    # The library's float constants (1.0, 2.0) are exact integers.
    return sp.simplify(sp.nsimplify(expr, rational=True)) == 0


def test_symbols_are_the_ratios_and_trig(moderate):
    # The substitution the symbolic tests make, checked numerically.
    t = 0.7
    ratio = moderate.parametric / moderate.oscillation
    xv = moderate.oscillation * t
    expected = (
        ratio, math.sqrt(1.0 + ratio**2), t, math.sin(xv), math.cos(xv), 1.0 - math.cos(xv)
    )
    assert dynamics._ratios_and_trig(moderate, t) == pytest.approx(expected, rel=1e-14)


def test_closed_forms_start_at_the_initial_state(symbolic):
    assert [sp.simplify(v.subs(x, 0)) for v in symbolic] == [0, nbar, 0, 0, 0, 0]


def test_closed_forms_solve_the_moment_odes(symbolic):
    rhs = _moment_derivatives(symbolic, r, q)
    for field, v, f in zip(COEFF_FIELDS, symbolic, rhs):
        assert _is_zero(sp.diff(v, x) - f), field


def test_slopes_are_the_derivatives_of_the_closed_forms(symbolic):
    slopes = _moment_slopes(None, nbar, None)
    assert slopes.shape == (6,)
    for field, v, s in zip(COEFF_FIELDS, symbolic, slopes):
        assert _is_zero(s - sp.diff(v, x)), field


def _ode_gate(couplings, nbar_values):
    """Gate 2's (defect, tolerance, passed), running no later gate."""
    gates = _run_gates(couplings, nbar_values)
    next(gates)
    name, *verdict = next(gates)
    assert name == "ode-vs-analytic"
    return verdict


@given(
    c=rate_pairs,
    nbar=st.one_of(st.just(0.0), st.floats(-3.0, 8.0).map(lambda e: 10.0**e)),
)
@settings(max_examples=60, deadline=None)
def test_ode_gate_reads_rounding_only(c, nbar):
    defect, tolerance, ok = _ode_gate(c, (nbar,))
    assert ok and defect <= 1e-14, defect


@pytest.mark.parametrize("fixture", ["moderate", "bench_couplings"])
def test_ode_gate_reaches_the_peaks_for_every_nbar(request, monkeypatch, fixture):
    # Every nbar is checked at t = 0, at both closed-form peak times and at
    # 41 times within 5/r in x of the heterodyne peak (pi at most).
    c = request.getfixturevalue(fixture)
    calls = []

    def recorded(couplings, nbar, time):
        calls.append((nbar, np.array(time)))
        return _moment_slopes(couplings, nbar, time)

    monkeypatch.setattr(dynamics, "_moment_slopes", recorded)
    _ode_gate(c, NBAR_SET)
    assert [n for n, _ in calls] == list(NBAR_SET)
    for _, times in calls:
        assert_reaches_the_peaks(c, times)


@pytest.mark.parametrize("field", COEFF_FIELDS)
def test_ode_gate_measures_a_corrupted_closed_form(bench_couplings, monkeypatch, field):
    # Scaling one closed form by 1 + 1e-9 breaks the ODE by about that much
    # relative to the state, far above the gate's rounding; scaling mirror_n
    # moves the initial state, which the gate requires exactly.
    closed = dynamics.coeffs_analytic

    def corrupted(couplings, nbar, time):
        g = closed(couplings, nbar, time)
        return replace(g, **{field: getattr(g, field) * (1.0 + 1e-9)})

    monkeypatch.setattr(dynamics, "coeffs_analytic", corrupted)
    defect, *_ = _ode_gate(bench_couplings, NBAR_SET)
    if field == "mirror_n":
        assert defect == math.inf
    else:
        assert 1e-10 < defect < 1e-8, defect
