"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line (visible with
pytest -s or in failure reports) before asserting, so a full run doubles as
a human-readable scorecard.
"""

import math

import numpy as np
import pytest

from mirror_teleport import (
    Couplings,
    coeffs_analytic,
    coeffs_ode,
    conditional_correlation,
    effective_occupation,
    fidelity_coherent,
    fidelity_no_heterodyne,
    optimal_time,
    period,
    physicality_defect,
    propagator,
    symplectic_defect,
    teleport_covariance,
    CovMatrix2,
)
from mirror_teleport.cli import main
from mirror_teleport.dynamics import _moment_derivatives

from conftest import COEFF_FIELDS

NBAR_SET = (0.0, 1.0, 10.0, 1000.0)


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
    _, f_nh = optimal_time(bench_couplings, 0.0, objective=fidelity_no_heterodyne)
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


def test_criterion_8_oracle_equivalence(moderate):
    ts = np.linspace(0.0, period(moderate), 1001)[1:]
    worst = 0.0
    for nbar in (0.0, 10.0):
        ode = coeffs_ode(moderate, nbar, ts, dt_max=1e-4)
        ana = coeffs_analytic(moderate, nbar, ts)
        for f in COEFF_FIELDS:
            worst = max(
                worst,
                float(
                    np.abs(
                        np.asarray(getattr(ode, f)) - np.asarray(getattr(ana, f))
                    ).max()
                ),
            )
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
    ok = worst <= 1e-8 and worst_res <= 1e-6
    _report(
        "criterion-8 oracle equivalence (RK4 and finite differences)",
        ok,
        f"max |analytic - RK4| = {worst:.2e}, max ODE residual = {worst_res:.2e}",
    )


def test_criterion_9_structural_invariants(moderate, bench_couplings):
    rng = np.random.default_rng(7)
    worst_metric = worst_group = 0.0
    for c in (moderate, bench_couplings):
        times = rng.uniform(0.0, period(c), size=100)
        for t in times:
            worst_metric = max(worst_metric, symplectic_defect(propagator(c, t)))
        for t1, t2 in zip(times[:50], times[50:]):
            m12 = propagator(c, t1 + t2).matrix
            prod = propagator(c, t1).matrix @ propagator(c, t2).matrix
            scale = max(1.0, float(np.abs(m12).max())) ** 2
            worst_group = max(worst_group, float(np.abs(m12 - prod).max()) / scale)

    worst_phys = 0.0
    for c in (moderate, bench_couplings):
        for nbar in NBAR_SET:
            for t in np.linspace(0.0, period(c), 41):
                g = coeffs_analytic(c, nbar, float(t))
                worst_phys = max(
                    worst_phys, physicality_defect(conditional_correlation(g))
                )

    worst_fid = 0.0
    worst_noise = 0.0
    gin = CovMatrix2.vacuum()
    for nbar in NBAR_SET:
        ts = np.linspace(0.0, period(moderate), 101)
        g = coeffs_analytic(moderate, nbar, ts)
        fv = np.asarray(fidelity_coherent(g))
        nv = np.asarray(effective_occupation(g))
        worst_fid = max(worst_fid, float(np.abs(fv * (1.0 + nv) - 1.0).max()))
        for t in ts[::10]:
            gs = coeffs_analytic(moderate, nbar, float(t))
            out = teleport_covariance(conditional_correlation(gs), gin).matrix
            n_eff = effective_occupation(gs)
            worst_noise = max(
                worst_noise,
                abs(out[0, 0] - 0.5 - n_eff) / max(1.0, n_eff),
                abs(out[1, 1] - 0.5 - n_eff) / max(1.0, n_eff),
            )

    ok = (
        worst_metric <= 1e-10
        and worst_group <= 1e-10
        and worst_phys <= 1e-10
        and worst_fid <= 1e-12
        and worst_noise <= 1e-12
    )
    _report(
        "criterion-9 structural invariants",
        ok,
        f"metric {worst_metric:.1e}, group {worst_group:.1e}, "
        f"physicality {worst_phys:.1e}, fidelity identity {worst_fid:.1e}, "
        f"added noise {worst_noise:.1e}",
    )


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
