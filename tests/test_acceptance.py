"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line (visible with
pytest -s or in failure reports) before asserting, so a full run doubles as
a human-readable scorecard.
"""

import numpy as np
import pytest

from mirror_teleport import (
    coeffs_analytic,
    fidelity_coherent,
    fidelity_no_heterodyne,
    optimal_time,
    period,
)
from mirror_teleport.cli import _run_gates, main
from mirror_teleport.dynamics import _moment_derivatives

from conftest import COEFF_FIELDS, NBAR_SET


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def optima(bench_couplings):
    return {nbar: optimal_time(bench_couplings, nbar) for nbar in NBAR_SET}


def test_criterion_1_fidelity_maximum(optima):
    f_values = {nbar: f for nbar, (_, f) in optima.items()}
    ok = all(abs(f - 0.85) <= 0.02 for f in f_values.values())
    _report(
        "criterion-1 fidelity maximum 0.85 +/- 0.02",
        ok,
        "F_max = " + ", ".join(f"{f:.6f}" for f in f_values.values()),
    )


def test_criterion_2_temperature_independence(optima):
    f0 = optima[0.0][1]
    spread = max(abs(f - f0) for _, f in optima.values())
    _report(
        "criterion-2 temperature independence",
        spread <= 0.01,
        f"max |F_max(nbar) - F_max(0)| = {spread:.2e}",
    )


def test_criterion_3_cooling_figure(optima):
    n_eff = {nbar: 1.0 / f - 1.0 for nbar, (_, f) in optima.items()}
    ok = all(abs(n - 0.17) <= 0.02 for n in n_eff.values())
    _report(
        "criterion-3 effective occupation 0.17 +/- 0.02",
        ok,
        "n_eff = " + ", ".join(f"{n:.6f}" for n in n_eff.values()),
    )


def test_criterion_4_no_heterodyne(bench_couplings):
    worst_gap = 0.0
    ts = np.linspace(0.0, period(bench_couplings), 100_001)
    for nbar in NBAR_SET:
        g = coeffs_analytic(bench_couplings, nbar, ts)
        gap = float(
            np.max(
                np.asarray(fidelity_no_heterodyne(g))
                - np.asarray(fidelity_coherent(g))
            )
        )
        worst_gap = max(worst_gap, gap)
    _, f_nh = optimal_time(bench_couplings, 0.0, heterodyne=False)
    ok = abs(f_nh - 0.80) <= 0.02 and worst_gap <= 1e-14
    _report(
        "criterion-4 no-heterodyne variant",
        ok,
        f"F_max = {f_nh:.6f}, max(F_nh - F) = {worst_gap:.2e}",
    )


def test_criterion_5_classical_anchor(bench_couplings):
    worst = max(
        abs(
            fidelity_coherent(coeffs_analytic(bench_couplings, nbar, 0.0))
            - 1.0 / (2.0 + nbar)
        )
        for nbar in NBAR_SET
    )
    _report(
        "criterion-5 classical anchor F(0) = 1/(2 + nbar)",
        worst <= 1e-12,
        f"max defect = {worst:.2e} (nbar = 0 gives exactly the 0.5 bound)",
    )


def test_criterion_6_window_narrowing(bench_couplings):
    ts = np.linspace(0.0, period(bench_couplings), 2_000_001)
    dt = ts[1] - ts[0]
    measures = []
    for nbar in NBAR_SET:
        f = np.asarray(fidelity_coherent(coeffs_analytic(bench_couplings, nbar, ts)))
        measures.append(
            float(np.count_nonzero(f > 0.5)) * dt * bench_couplings.oscillation
        )
    ok = all(a > b for a, b in zip(measures, measures[1:]))
    _report(
        "criterion-6 useful window narrows with temperature",
        ok,
        "measure(F > 0.5) = " + ", ".join(f"{m:.4e}" for m in measures),
    )


def test_criterion_7_coupling_magnitudes(bench_couplings):
    chi = bench_couplings.parametric
    osc = bench_couplings.oscillation
    ok_chi = abs(chi / 5e5 - 1.0) <= 0.20
    ok_osc = 1e2 <= osc <= 1e4  # within one order of magnitude of 1e3
    # frozen golden regression values (50-digit arithmetic)
    ok_golden = (
        abs(chi / 471730.80838357471408 - 1.0) < 1e-12
        and abs(osc / 333.56409519815204958 - 1.0) < 1e-12
    )
    _report(
        "criterion-7 coupling magnitudes",
        ok_chi and ok_osc and ok_golden,
        f"parametric = {chi:.6f}, oscillation = {osc:.6f}",
    )


@pytest.fixture(scope="module")
def gates(moderate, bench_couplings):
    """The verify gates, run on both coupling sets at NBAR_SET."""
    return {
        label: {
            name: (defect, ok)
            for name, defect, _, ok in _run_gates(c, NBAR_SET)
        }
        for label, c in (("moderate", moderate), ("bench", bench_couplings))
    }


def _gate_results(gates, names):
    """(all passed, one 'label gate defect' entry per gate and coupling set)."""
    results = [
        (label, name, *by_name[name])
        for label, by_name in gates.items()
        for name in names
    ]
    detail = ", ".join(
        f"{label} {name} {defect:.1e}" for label, name, defect, _ in results
    )
    return all(ok for *_, ok in results), detail


def test_criterion_8_oracle_equivalence(gates, moderate):
    ok_gates, detail = _gate_results(gates, ("ode-vs-analytic", "moment-route"))
    # finite-difference residual of the closed form against the ODE system
    h = 1e-7
    worst_res = 0.0
    for t in np.linspace(0.05, period(moderate), 41):
        def vec(tt):
            g = coeffs_analytic(moderate, 10.0, tt)
            return np.array([getattr(g, f) for f in COEFF_FIELDS])

        lhs = (vec(t + h) - vec(t - h)) / (2.0 * h)
        rhs = _moment_derivatives(vec(t), moderate.parametric, moderate.beam_splitter)
        worst_res = max(worst_res, float(np.abs(lhs - rhs).max()))
    _report(
        "criterion-8 oracle equivalence (ODE residual, moment route, finite differences)",
        ok_gates and worst_res <= 1e-6,
        f"{detail}, max ODE residual = {worst_res:.2e}",
    )


def test_criterion_9_structural_invariants(gates):
    ok, detail = _gate_results(
        gates,
        (
            "propagator-metric",
            "propagator-group",
            "conditional-physicality",
            "fidelity-identity",
            "teleport-noise",
        ),
    )
    _report("criterion-9 structural invariants", ok, detail)


def test_criterion_10_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    rc1 = main(["--out", str(out1), "--grid", "500", "curve"])
    rc2 = main(["--out", str(out2), "--grid", "500", "curve"])
    same_csv = (out1 / "curve.csv").read_bytes() == (out2 / "curve.csv").read_bytes()
    same_json = (
        (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    )
    ok = rc1 == 0 and rc2 == 0 and same_csv and same_json
    _report(
        "criterion-10 determinism",
        ok,
        f"exit codes ({rc1}, {rc2}), CSV identical: {same_csv}, "
        f"JSON identical: {same_json}",
    )
