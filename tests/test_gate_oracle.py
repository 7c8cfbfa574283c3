"""``verify``'s gates against the per-point loop they replace.

The gates make each time's trig, factored parts and propagator rows once
and evaluate the package's kernels on them at every nbar.  The reference
here calls the public functions once per (nbar, time) instead, keeping
every result until the last gate, and must give every defect bit for bit.
"""

import math
import tracemalloc
from operator import attrgetter

import pytest

from mirror_teleport import (
    CovMatrix2,
    coeffs_analytic,
    coeffs_from_propagator,
    conditional_correlation,
    effective_occupation,
    optomech,
    physicality_defect,
    propagator,
    protocol,
    symplectic_defect,
    teleport_covariance,
)
from mirror_teleport import gates
from mirror_teleport.cli import _run_gates
from mirror_teleport.dynamics import _moment_derivatives, _moment_slopes
from mirror_teleport.errors import DomainError

from conftest import COEFF_FIELDS, NBAR_SET, gate_times, propagator_gate_times

#: The 12 nbar values of CI's wide config.
WIDE = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 300.0, 1000.0, 1e4)

_fields = attrgetter(*COEFF_FIELDS)


def _size(values):
    return max(1.0, *map(abs, values))


def _per_point_defects(c, nbar_values):
    """Each gate's defect from the public functions, called once per
    (nbar, time) at the gates' times, every result kept."""
    osc, p, b = c.oscillation, c.parametric, c.beam_splitter
    times = gate_times(c).tolist()
    defects = {"couplings-consistency": optomech.oscillation_consistency(p, b, osc)[0]}
    analytic = {n: [_fields(coeffs_analytic(c, n, t)) for t in times] for n in nbar_values}
    sizes = {n: [_size(y) for y in analytic[n]] for n in nbar_values}
    worst = 0.0
    for n in nbar_values:
        for t, y, size in zip(times, analytic[n], sizes[n]):
            rhs = _moment_derivatives(y, p, b)
            residual = max(abs(osc * s - f) for s, f in zip(_moment_slopes(c, n, t), rhs))
            worst = max(worst, residual / (max(p, b) * size))
        if analytic[n][0] != (0.0, n, 0.0, 0.0, 0.0, 0.0):
            worst = math.inf
    defects["ode-vs-analytic"] = worst

    prop_times = propagator_gate_times(c).tolist()
    props = [propagator(c, t) for t in prop_times]
    prop_sizes = [_size(sum(m, ())) for m in props]
    defects["propagator-metric"] = max(map(symplectic_defect, props))
    worst = 0.0
    for t1, t2, m1, m2, size1, size2 in zip(
        prop_times[:51], prop_times[51:], props[:51], props[51:], prop_sizes, prop_sizes[51:]
    ):
        m12 = propagator(c, t1 + t2)
        residual = max(
            abs(m12[i][j] - (m1[i][0] * m2[0][j] + m1[i][1] * m2[1][j] + m1[i][2] * m2[2][j]))
            for i in range(3)
            for j in range(3)
        )
        worst = max(worst, residual / (size1 * size2))
    defects["propagator-group"] = worst

    channels = {n: [conditional_correlation(c, n, t) for t in times] for n in nbar_values}
    worst = 0.0
    for n in nbar_values:
        for chan in channels[n]:
            worst = max(worst, physicality_defect(chan) / _size((chan.a, chan.b, chan.c)))
    defects["conditional-physicality"] = worst

    moments = {n: [_fields(coeffs_from_propagator(c, n, t)) for t in times] for n in nbar_values}
    n_effs = {n: [effective_occupation(c, n, t) for t in times] for n in nbar_values}
    worst = 0.0
    for n in nbar_values:
        for (sn, mn, sm, ma, an, sa), n_eff, size in zip(moments[n], n_effs[n], sizes[n]):
            d = sa - ma
            gap = abs(1.0 + sn + mn + 2.0 * sm - d * (d / (an + 1.0)) - n_eff)
            worst = max(worst, gap / size)
    defects["fidelity-identity"] = worst

    worst = 0.0
    for n in nbar_values[:2]:
        for y, m, size in zip(analytic[n], moments[n], sizes[n]):
            worst = max(worst, max(abs(u - v) for u, v in zip(y, m)) / size)
    defects["moment-route"] = worst

    gin = CovMatrix2.vacuum()
    worst = 0.0
    for n in nbar_values:
        for i in [*range(0, 101, 10), *range(101, len(times))]:
            out = teleport_covariance(channels[n][i], gin)
            for added in (out.xx - gin.xx, out.pp - gin.pp):
                worst = max(worst, abs(added - n_effs[n][i]) / max(1.0, n_effs[n][i]))
    defects["teleport-noise"] = worst
    return defects


@pytest.mark.parametrize(
    "fixture, nbar_values",
    [("bench_couplings", NBAR_SET), ("moderate", NBAR_SET), ("bench_couplings", WIDE)],
    ids=["bundled", "moderate", "wide"],
)
def test_gates_are_the_per_point_loop(request, fixture, nbar_values):
    c = request.getfixturevalue(fixture)
    reference = _per_point_defects(c, nbar_values)
    measured = {name: defect for name, defect, *_ in _run_gates(c, nbar_values)}
    assert list(measured) == list(gates.TOLERANCES)
    assert {k: v.hex() for k, v in measured.items()} == {
        k: float(v).hex() for k, v in reference.items()
    }


def test_gates_make_each_times_trig_once(bench_couplings, monkeypatch):
    # The ratios and trig are made once for each of gate 2's 143 times,
    # which gates 4-6 share, and once for each of gate 3's 153
    # propagators, however many nbar values there are.
    calls = []
    trig = protocol._ratios_and_trig

    def counted(couplings, time, *cos_x):
        calls.append(time)
        return trig(couplings, time, *cos_x)

    monkeypatch.setattr(protocol, "_ratios_and_trig", counted)
    counts = []
    for nbar_values in [(1.0,), WIDE]:
        calls.clear()
        assert all(ok for *_, ok in _run_gates(bench_couplings, nbar_values))
        counts.append(len(calls))
    assert counts == [143 + 153] * 2


@pytest.mark.parametrize("count", [1, 50])
def test_gates_keep_nothing_across_times(bench_couplings, count):
    # The gates hold each gate's worst defect, not a value per (nbar, time):
    # their memory does not grow with the nbar values.  A run holding one
    # state size per (nbar, time) and gate 7's channels took 123 KB at one
    # value and 783 KB at 50.
    nbar_values = tuple(10.0 ** (k / 10) for k in range(count))
    assert all(ok for *_, ok in _run_gates(bench_couplings, nbar_values))
    tracemalloc.start()
    try:
        verdicts = list(_run_gates(bench_couplings, nbar_values))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(verdicts) == len(gates.TOLERANCES)
    assert peak < 64 * 1024, peak


def test_finite_check_is_exact_where_the_sum_overflows():
    # The check sums the values first; finite values whose sum overflows
    # pass, and an inf or a NaN fails wherever it sits.
    gates._finite("x", (1e308, 1e308), (1e308,))
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="the x gate leaves the float64 range"):
            gates._finite("x", (1e308, -1e308), (1.0, bad))
