import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirror_teleport import (
    CLASSICAL_FIDELITY_BOUND,
    Couplings,
    CovMatrix2,
    DisplacementCommand,
    DomainError,
    GaussianCoeffs,
    MeasurementRecord,
    actuation_setting,
    bob_displacement,
    coeffs_analytic,
    compute_couplings,
    conditional_correlation,
    effective_occupation,
    fidelity_coherent,
    fidelity_no_heterodyne,
    optimal_time,
    period,
    physicality_defect,
    teleport_covariance,
)

from conftest import COEFF_FIELDS

# Closed-form optima, independent of every parameter: the best fidelity is
# 1/(4 - 2 sqrt(2)) and the corresponding occupation (sqrt(2) - 1)^2.
# [DERIVED]
BEST_FIDELITY = 1.0 / (4.0 - 2.0 * math.sqrt(2.0))
BEST_OCCUPATION = (math.sqrt(2.0) - 1.0) ** 2


def _strip_couplings(g):
    """Same coefficients with the couplings forgotten: forces the generic route."""
    return GaussianCoeffs(
        *(getattr(g, f) for f in COEFF_FIELDS), time=g.time, nbar=g.nbar
    )


def test_initial_fidelity_is_classical(moderate):
    g = coeffs_analytic(moderate, 0.0, 0.0)
    assert fidelity_coherent(g) == pytest.approx(CLASSICAL_FIDELITY_BOUND, abs=1e-15)
    assert effective_occupation(g) == pytest.approx(1.0, abs=1e-15)


@given(nbar=st.floats(0.0, 5e3))
@settings(max_examples=50, deadline=None)
def test_initial_fidelity_thermal(nbar):
    c = Couplings.from_rates(2.0, 3.0)
    g = coeffs_analytic(c, nbar, 0.0)
    assert fidelity_coherent(g) == pytest.approx(1.0 / (2.0 + nbar), rel=1e-13)


def test_stable_and_generic_routes_agree(moderate):
    for nbar in (0.0, 1.0, 25.0):
        for t in np.linspace(0.01, period(moderate), 19):
            g = coeffs_analytic(moderate, nbar, float(t))
            stripped = _strip_couplings(g)
            assert effective_occupation(g) == pytest.approx(
                effective_occupation(stripped), rel=1e-10, abs=1e-10
            )
            assert fidelity_no_heterodyne(g) == pytest.approx(
                fidelity_no_heterodyne(stripped), rel=1e-10
            )
            assert conditional_correlation(g).matrix == pytest.approx(
                conditional_correlation(stripped).matrix, rel=1e-9, abs=1e-9
            )


def test_conditioned_state_block_structure(moderate):
    g = coeffs_analytic(moderate, 2.0, 0.6)
    m = conditional_correlation(g).matrix
    assert m[0, 0] == m[1, 1]
    assert m[2, 2] == m[3, 3]
    assert m[0, 2] == -m[1, 3]
    assert m[0, 1] == m[0, 3] == m[1, 2] == m[2, 3] == 0.0


def test_conditioned_state_physical_everywhere(moderate, bench_couplings):
    for c in (moderate, bench_couplings):
        for nbar in (0.0, 1.0, 1000.0):
            for t in np.linspace(0.0, period(c), 37):
                g = coeffs_analytic(c, nbar, float(t))
                assert physicality_defect(conditional_correlation(g)) < 1e-10


def test_teleport_added_noise_equals_occupation(moderate):
    gin = CovMatrix2.from_variances(0.9, 0.2, 0.7)
    for nbar in (0.0, 3.0):
        for t in np.linspace(0.0, period(moderate), 11):
            g = coeffs_analytic(moderate, nbar, float(t))
            out = teleport_covariance(conditional_correlation(g), gin).matrix
            n_eff = effective_occupation(g)
            assert out[0, 0] - 0.9 == pytest.approx(n_eff, rel=1e-12, abs=1e-12)
            assert out[1, 1] - 0.7 == pytest.approx(n_eff, rel=1e-12, abs=1e-12)
            assert out[0, 1] == pytest.approx(0.2, abs=1e-12)


def test_fidelity_occupation_identity(moderate):
    ts = np.linspace(0.0, period(moderate), 101)
    g = coeffs_analytic(moderate, 7.0, ts)
    f = np.asarray(fidelity_coherent(g))
    n = np.asarray(effective_occupation(g))
    assert np.abs(f * (1.0 + n) - 1.0).max() < 1e-12


def test_global_fidelity_ceiling(moderate, bench_couplings):
    # No time or temperature beats 1/(4 - 2 sqrt(2)).
    for c in (moderate, bench_couplings):
        ts = np.linspace(0.0, period(c), 200_001)
        for nbar in (0.0, 1000.0):
            f = np.asarray(fidelity_coherent(coeffs_analytic(c, nbar, ts)))
            assert f.max() <= BEST_FIDELITY + 1e-9


def test_optimum_saturates_ceiling(bench_couplings):
    t_star, f_max = optimal_time(bench_couplings, 0.0)
    assert f_max == pytest.approx(BEST_FIDELITY, abs=1e-7)
    assert 1.0 / f_max - 1.0 == pytest.approx(BEST_OCCUPATION, abs=1e-6)
    # the peak sits just before the revival at one full period
    assert 0.9 * period(bench_couplings) < t_star < period(bench_couplings)


@pytest.mark.parametrize(
    "c, nbar, objective",
    [
        (Couplings.from_rates(2.0, 3.0), 1.0, fidelity_coherent),
        # r < 8/(2 pi): the peak scan in u covers the whole period.
        (
            Couplings(15.006695007659511, 24.76684211707909, 19.702679345698385),
            3.0,
            fidelity_coherent,
        ),
        (
            Couplings(0.008525183270747378, 0.011072472838650456, 0.007065472734560735),
            1e4,
            fidelity_no_heterodyne,
        ),
    ],
    ids=["moderate", "r0.76-nbar3", "r1.21-nbar1e4-no-heterodyne"],
)
def test_optimal_time_agrees_with_brute_force(c, nbar, objective):
    # Well-separated rates make the dense scan cheap and trustworthy.
    ts = np.linspace(0.0, period(c), 2_000_001)
    f = np.asarray(objective(coeffs_analytic(c, nbar, ts)))
    t_star, f_max = optimal_time(c, nbar, objective=objective)
    assert f_max >= f.max() - 1e-12
    assert objective(coeffs_analytic(c, nbar, t_star)) == f_max
    assert t_star == pytest.approx(ts[int(np.argmax(f))], abs=1e-6 * period(c))


@pytest.mark.parametrize("objective", [fidelity_coherent, fidelity_no_heterodyne])
@pytest.mark.parametrize("mirror_freq", [5e8, 7.3e5], ids=["r1414", "r37000"])
def test_optimal_time_beats_dense_u_scan(bench_config, mirror_freq, objective):
    # A 1e-5 step in u = r (2 pi - oscillation t) over [0, 4], which holds
    # the peak, bounds the maximum from below.
    c = compute_couplings(dataclasses.replace(bench_config.params, mirror_freq=mirror_freq))
    r = c.parametric / c.oscillation
    u = np.linspace(0.0, 4.0, 400_001)
    ts = (2.0 * math.pi - u / r) / c.oscillation
    scan_max = np.max(objective(coeffs_analytic(c, 1000.0, ts)))
    t_star, f_max = optimal_time(c, 1000.0, objective=objective)
    assert f_max >= scan_max - 1e-12
    assert objective(coeffs_analytic(c, 1000.0, t_star)) == f_max


def test_optimal_time_rejects_overflowed_scan(bench_couplings):
    # At nbar = 1e302 the closed forms overflow to NaN on part of the scan.
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="float64 range"):
            optimal_time(bench_couplings, 1e302)
        _, f_max = optimal_time(bench_couplings, 1e301)
    assert f_max == pytest.approx(0.8535533463990972, abs=1e-15)


def test_no_heterodyne_never_beats_heterodyne(moderate, bench_couplings):
    for c in (moderate, bench_couplings):
        ts = np.linspace(0.0, period(c), 100_001)
        for nbar in (0.0, 10.0):
            g = coeffs_analytic(c, nbar, ts)
            assert np.all(
                np.asarray(fidelity_no_heterodyne(g))
                <= np.asarray(fidelity_coherent(g)) + 1e-14
            )


def test_no_heterodyne_optimum(bench_couplings):
    _, f_nh = optimal_time(bench_couplings, 0.0, objective=fidelity_no_heterodyne)
    assert f_nh == pytest.approx(0.8, abs=2e-3)


def test_displacement_without_heterodyne_outcome(moderate):
    g = coeffs_analytic(moderate, 1.0, 0.5)
    cmd = bob_displacement(MeasurementRecord(0.3, -0.2, 0j), g)
    assert cmd.dx == pytest.approx(math.sqrt(2.0) * 0.3)
    assert cmd.dp == pytest.approx(math.sqrt(2.0) * 0.2)


def test_displacement_uses_heterodyne_outcome(moderate):
    g = coeffs_analytic(moderate, 1.0, 0.5)
    base = bob_displacement(MeasurementRecord(0.0, 0.0, 0j), g)
    shifted = bob_displacement(MeasurementRecord(0.0, 0.0, 1.0 + 2.0j), g)
    e1 = g.anti_n + 1.0
    assert shifted.dx - base.dx == pytest.approx(
        math.sqrt(2.0) * (g.stokes_anti - g.mirror_anti) / e1
    )
    assert shifted.dp - base.dp == pytest.approx(
        math.sqrt(2.0) * 2.0 * (g.stokes_anti + g.mirror_anti) / e1
    )


@given(dx=st.floats(-50.0, 50.0), dp=st.floats(-50.0, 50.0))
@settings(max_examples=80, deadline=None)
def test_actuation_round_trip(dx, dp):
    setting = actuation_setting(DisplacementCommand(dx, dp))
    assert setting.strength * math.cos(setting.phase) == pytest.approx(dx, abs=1e-9)
    assert setting.strength * math.sin(setting.phase) == pytest.approx(dp, abs=1e-9)


def test_actuation_zero_command():
    setting = actuation_setting(DisplacementCommand(0.0, 0.0))
    assert setting.strength == 0.0 and setting.phase == 0.0


def test_measurement_record_validation():
    with pytest.raises(DomainError):
        MeasurementRecord(math.nan, 0.0, 0j)
    with pytest.raises(DomainError):
        MeasurementRecord(0.0, 0.0, complex(math.inf, 0.0))
