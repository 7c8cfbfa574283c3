"""The closed forms on a Python float time are their array rows.

``verify``'s gates evaluate the closed forms one float time at a time and
``curve`` evaluates the factored kernel on arrays, from one piece of
source.  The two paths differ only in where the sines and cosines come
from, ``math`` for a float and numpy for an array.  Given the same sines
and cosines, each float result must be, bit for bit, its time's row of the
array result, at every time the gates take: the kernel's own rows for the
channel and n_eff, and for ``dynamics``, which takes floats only, the rows
of its source evaluated on the array path's ratios and trig.  Whether the
two libraries' sines agree is a separate check, to within an ulp: numpy's
vectorised loops may differ from the C library's in the last bit.
"""

import math
import types

import numpy as np
import pytest

from mirror_teleport import CovMatrix2, dynamics, period, protocol
from mirror_teleport.cli import _time_rows

from conftest import COEFF_FIELDS, NBAR_SET, gate_times, propagator_gate_times


def _gate3_times(c):
    """Gate 3's 102 times and the 51 sums of their pairs."""
    times = propagator_gate_times(c)
    return np.concatenate([times, times[:51] + times[51:]])


def _same(value, row) -> bool:
    """A float and its row of an array hold the same bits."""
    return type(value) is float and np.float64(value).tobytes() == np.float64(row).tobytes()


@pytest.fixture(params=["moderate", "bench_couplings"])
def shared_trig(request, monkeypatch):
    """(couplings, times): the float path's ``math.sin`` and ``math.cos``
    made numpy's, value for value, at those times."""
    c = request.getfixturevalue(request.param)
    times = np.concatenate([gate_times(c), _gate3_times(c)])
    x = c.oscillation * times
    table = {}
    for args in (x, 0.5 * x):
        table.update(zip(args.tolist(), zip(np.sin(args).tolist(), np.cos(args).tolist())))
    shared = dict(vars(math))
    shared.update(sin=lambda v: table[v][0], cos=lambda v: table[v][1])
    monkeypatch.setattr(protocol, "math", types.SimpleNamespace(**shared))
    return c, times


def test_trig_and_factored_parts_are_their_rows(shared_trig):
    c, times = shared_trig
    stacked = protocol._ratios_and_trig(c, times)
    parts = protocol._FactoredParts(c, NBAR_SET, times)
    for i, t in enumerate(times.tolist()):
        one = protocol._ratios_and_trig(c, t)
        assert one[:2] == stacked[:2]
        assert all(_same(v, rows[i]) for v, rows in zip(one[2:], stacked[2:]))
        assert protocol._checked_trig(c, NBAR_SET, t) == one
        alone = protocol._FactoredParts(c, NBAR_SET, t)
        for nbar in NBAR_SET:
            pairs = [
                (alone.e1(nbar), parts.e1(nbar)),
                (alone.noise(nbar), parts.noise(nbar)),
                (alone.noise(nbar, False), parts.noise(nbar, False)),
                *zip(alone.channel(nbar), parts.channel(nbar)),
            ]
            assert all(_same(v, rows[i]) for v, rows in pairs), (t, nbar)


def test_channel_maps_are_their_rows(shared_trig):
    # The float channel, its n_eff and the covariance teleported through it
    # are the kernel's rows: _FactoredParts' channel, effective_occupation
    # on the array, and the input plus a + 2c + b.
    c, times = shared_trig
    gin = CovMatrix2(0.9, 0.2, 0.7)
    parts = protocol._FactoredParts(c, NBAR_SET, times)
    for nbar in NBAR_SET:
        a, b, corr = parts.channel(nbar)
        n_eff = protocol.effective_occupation(c, nbar, times)
        for i, t in enumerate(times.tolist()):
            one = protocol.conditional_correlation(c, nbar, t)
            assert all(map(_same, (one.a, one.b, one.c), (a[i], b[i], corr[i]))), (t, nbar)
            assert _same(protocol.effective_occupation(c, nbar, t), n_eff[i])
            teleported = protocol.teleport_covariance(one, gin)
            added = a[i] + 2.0 * corr[i] + b[i]
            assert _same(teleported.xx, gin.xx + added) and _same(teleported.pp, gin.pp + added)
            assert teleported.xp == gin.xp


def test_dynamics_are_their_rows(shared_trig, monkeypatch):
    # dynamics takes float times only; its source, given the array path's
    # ratios and trig in place of a float time's, evaluates on the arrays,
    # and each float result is its time's row of that evaluation.
    c, times = shared_trig
    p, b = c.parametric, c.beam_splitter
    floats = {
        nbar: [
            (
                dynamics.coeffs_analytic(c, nbar, t),
                dynamics.coeffs_from_propagator(c, nbar, t),
                dynamics._moment_slopes(c, nbar, t),
            )
            for t in times.tolist()
        ]
        for nbar in NBAR_SET
    }
    props = [dynamics.propagator(c, t) for t in times.tolist()]
    rows = protocol._ratios_and_trig(c, times)
    monkeypatch.setattr(protocol, "_ratios_and_trig", lambda couplings, time: rows)
    stack = dynamics.propagator(c, None)
    for i, one in enumerate(props):
        assert all(_same(v, row[i]) for v, row in zip(sum(one, ()), sum(stack, ())))
    for nbar in NBAR_SET:
        closed = dynamics.coeffs_analytic(c, nbar, None)
        moments = dynamics.coeffs_from_propagator(c, nbar, None)
        slopes = dynamics._moment_slopes(c, nbar, None)
        rhs = dynamics._moment_derivatives([getattr(closed, f) for f in COEFF_FIELDS], p, b)
        for i, (t, (single, from_propagator, one_slopes)) in enumerate(
            zip(times.tolist(), floats[nbar])
        ):
            for one, stacked in ((single, closed), (from_propagator, moments)):
                assert one.time == t and one.nbar == nbar
                assert all(_same(getattr(one, f), getattr(stacked, f)[i]) for f in COEFF_FIELDS)
            y = tuple(getattr(single, f) for f in COEFF_FIELDS)
            assert all(_same(v, row[i]) for v, row in zip(one_slopes, slopes))
            derivatives = dynamics._moment_derivatives(y, p, b)
            assert all(_same(v, row[i]) for v, row in zip(derivatives, rhs))


@pytest.mark.parametrize("fixture", ["moderate", "bench_couplings"])
def test_math_trig_is_numpys_to_an_ulp(request, bench_config, fixture):
    # At the gates' times and on curve's bundled grid, the sines and cosines
    # of x and of x/2 from math and from numpy agree to within an ulp (on
    # some hosts they agree bit for bit; numpy's vectorised loops need not).
    c = request.getfixturevalue(fixture)
    grid = _time_rows(bench_config.periods * period(c), bench_config.grid_points + 1, 0,
                      bench_config.grid_points + 1)
    for times in (gate_times(c), _gate3_times(c), grid):
        x = c.oscillation * times
        for args in (x, 0.5 * x):
            for f, vectorised in ((math.sin, np.sin), (math.cos, np.cos)):
                for arg, want in zip(args.tolist(), vectorised(args).tolist()):
                    assert abs(f(arg) - want) <= math.ulp(want), (f.__name__, arg)

