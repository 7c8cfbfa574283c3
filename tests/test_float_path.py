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

from mirror_teleport import CovMatrix2, DomainError, dynamics, period, protocol
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
    parts = protocol._FactoredParts(protocol._checked_trig(c, NBAR_SET, times))
    for i, t in enumerate(times.tolist()):
        one = protocol._ratios_and_trig(c, t)
        assert one[:2] == stacked[:2]
        assert all(_same(v, rows[i]) for v, rows in zip(one[2:], stacked[2:]))
        assert protocol._checked_trig(c, NBAR_SET, t) == one
        alone = protocol._FactoredParts(one)
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
    parts = protocol._FactoredParts(protocol._checked_trig(c, NBAR_SET, times))
    for nbar in NBAR_SET:
        a, b, corr = parts.channel(nbar)
        n_eff = protocol.effective_occupation(c, nbar, times)
        for i, t in enumerate(times.tolist()):
            one = protocol.conditional_correlation(c, nbar, t)
            assert all(map(_same, (one.a, one.b, one.c), (a[i], b[i], corr[i]))), (t, nbar)
            assert _same(protocol.effective_occupation(c, nbar, t), n_eff[i])
            teleported = protocol.teleport_covariance(one, gin)
            assert type(teleported) is CovMatrix2
            added = a[i] + 2.0 * corr[i] + b[i]
            assert _same(teleported.xx, gin.xx + added) and _same(teleported.pp, gin.pp + added)
            assert teleported.xp == gin.xp


def test_dynamics_are_their_rows(shared_trig):
    # dynamics takes float times only; its kernels, given the array path's
    # trig tuple in place of a float time's, evaluate on the arrays, and
    # each float result is its time's row of that evaluation.
    c, times = shared_trig
    p, b = c.parametric, c.beam_splitter
    trig = protocol._ratios_and_trig(c, times)
    stack = dynamics._rows(trig)
    for i, t in enumerate(times.tolist()):
        one = dynamics.propagator(c, t)
        assert all(_same(v, row[i]) for v, row in zip(sum(one, ()), sum(stack, ())))
    for nbar in NBAR_SET:
        closed = dynamics._analytic(trig, nbar)
        moments = dynamics._moments(stack, nbar)
        slopes = dynamics._slopes(trig, nbar)
        rhs = dynamics._moment_derivatives(closed, p, b)
        for i, t in enumerate(times.tolist()):
            single = dynamics.coeffs_analytic(c, nbar, t)
            from_propagator = dynamics.coeffs_from_propagator(c, nbar, t)
            for one, stacked in ((single, closed), (from_propagator, moments)):
                assert one.time == t and one.nbar == nbar
                assert all(_same(getattr(one, f), row[i]) for f, row in zip(COEFF_FIELDS, stacked))
            y = tuple(getattr(single, f) for f in COEFF_FIELDS)
            one_slopes = dynamics._moment_slopes(c, nbar, t)
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



#: The functions that take one time only, each as f(couplings, time).
_ONE_TIME = [
    pytest.param(lambda c, t, f=f: f(c, 1.0, t), id=f.__name__)
    for f in (
        dynamics.coeffs_analytic,
        dynamics.coeffs_from_propagator,
        dynamics._moment_slopes,
        protocol.conditional_correlation,
    )
] + [pytest.param(dynamics.propagator, id="propagator")]


@pytest.mark.parametrize("entry", _ONE_TIME)
@pytest.mark.parametrize(
    "time, kind",
    [(np.linspace(0.0, 1.0, 5), "ndarray"), ([0.3], "list"), ("0.3", "str"), (None, "NoneType")],
    ids=["array", "list", "str", "None"],
)
def test_one_time_functions_name_any_other_time_type(moderate, entry, time, kind):
    # An array once gave dynamics' records of arrays, and the channel a
    # TypeError from its finite check; only the fidelity kernel takes arrays.
    with pytest.raises(DomainError, match=f"time must be an int or a float, got {kind}$"):
        entry(moderate, time)


#: The fidelity kernel's functions, which take an array of times too, each
#: as f(couplings, time).
_KERNEL = [
    pytest.param(lambda c, t: protocol.effective_occupation(c, 1.0, t), id="effective_occupation"),
    pytest.param(lambda c, t: protocol.fidelity_curves(c, (1.0,), t), id="fidelity_curves"),
]


@pytest.mark.parametrize("entry", _ONE_TIME + _KERNEL)
def test_one_time_functions_take_an_int_time_as_a_float(moderate, entry):
    # An int time once took numpy's path and gave numpy.float64 values; it is
    # its float, and an int past float64 is a DomainError, not OverflowError.
    def values(result):
        if type(result) is float:
            return [result]
        if hasattr(result, "__slots__"):
            result = [getattr(result, name) for name in result.__slots__ if name != "couplings"]
        return [v for item in result for v in (item if type(item) is tuple else (item,))]

    at_int, at_float = values(entry(moderate, 2)), values(entry(moderate, 2.0))
    assert all(type(v) is float for v in at_int)
    assert [v.hex() for v in at_int] == [v.hex() for v in at_float]
    with pytest.raises(DomainError, match="float64 range"):
        entry(moderate, 10**400)


def test_the_fidelity_kernel_keeps_arrays(moderate):
    times = np.linspace(0.0, 1.0, 5)
    n_eff = protocol.effective_occupation(moderate, 1.0, times)
    (fidelity,) = protocol.fidelity_curves(moderate, (1.0,), times)
    assert n_eff.shape == fidelity.shape == times.shape
