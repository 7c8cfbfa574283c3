import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirror_teleport import (
    CLASSICAL_FIDELITY_BOUND,
    ActuationSetting,
    Couplings,
    CovMatrix2,
    DisplacementCommand,
    DomainError,
    GaussianCoeffs,
    MeasurementRecord,
    actuation_setting,
    bob_displacement,
    coeffs_analytic,
    coeffs_from_propagator,
    compute_couplings,
    conditional_correlation,
    decoherence_window,
    effective_occupation,
    fidelity_coherent,
    fidelity_curves,
    optimal_time,
    peak_fidelity,
    period,
    physicality_defect,
    replace,
    teleport_covariance,
)
from mirror_teleport import protocol
from mirror_teleport.cli import _run_gates, bundled_config_path, load_config

from conftest import COEFF_FIELDS, NBAR_SET, rate_pairs

# Closed-form optima, independent of every parameter: the best fidelity is
# 1/(4 - 2 sqrt(2)) and the corresponding occupation (sqrt(2) - 1)^2.
# [DERIVED]
BEST_FIDELITY = 1.0 / (4.0 - 2.0 * math.sqrt(2.0))
BEST_OCCUPATION = (math.sqrt(2.0) - 1.0) ** 2


def _fidelity(c, nbar, time, heterodyne=True):
    """The fidelity at one nbar: fidelity_curves' one curve."""
    return fidelity_curves(c, (nbar,), time, heterodyne)[0]


def _strip_couplings(g):
    """Same coefficients with the couplings forgotten: a hand-built state."""
    return GaussianCoeffs(
        *(getattr(g, f) for f in COEFF_FIELDS), time=g.time, nbar=g.nbar
    )


def test_initial_fidelity_is_classical(moderate):
    assert _fidelity(moderate, 0.0, 0.0) == pytest.approx(CLASSICAL_FIDELITY_BOUND, abs=1e-15)
    assert effective_occupation(moderate, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)


@given(nbar=st.floats(0.0, 5e3))
@settings(max_examples=50, deadline=None)
def test_initial_fidelity_thermal(nbar):
    c = Couplings.from_rates(2.0, 3.0)
    assert _fidelity(c, nbar, 0.0) == pytest.approx(1.0 / (2.0 + nbar), rel=1e-13)


def test_conditioned_state_block_structure(moderate):
    m = conditional_correlation(moderate, 2.0, 0.6).matrix
    assert m[0, 0] == m[1, 1]
    assert m[2, 2] == m[3, 3]
    assert m[0, 2] == -m[1, 3]
    assert m[0, 1] == m[0, 3] == m[1, 2] == m[2, 3] == 0.0


def test_conditioned_state_physical_everywhere(moderate, bench_couplings):
    for c in (moderate, bench_couplings):
        for nbar in (0.0, 1.0, 1000.0):
            for t in np.linspace(0.0, period(c), 37):
                assert physicality_defect(conditional_correlation(c, nbar, float(t))) < 1e-10


@pytest.mark.parametrize("anti_n", [-1.0, -2.0, np.array([0.0, -1.0]), np.array([0.5, -2.0])])
@pytest.mark.parametrize(
    "route, message",
    [
        pytest.param(fidelity_coherent, "closed-form state", id="fidelity_coherent"),
        pytest.param(
            lambda g: bob_displacement(MeasurementRecord(0.0, 0.0, 1.0 + 1.0j), g),
            r"anti_n \+ 1 must be > 0",
            id="bob_displacement",
        ),
    ],
)
def test_anti_n_below_the_vacuum_raises(route, message, anti_n):
    # Every route that conditions on the anti-Stokes outcome divides by
    # anti_n + 1: at or below 0, for one time or any of several, each
    # raises a DomainError, not a ZeroDivisionError or a value.
    # bob_displacement names the divisor; fidelity_coherent rejects the
    # hand-built state before it divides.  The channel functions take
    # (couplings, nbar, time), so no such state reaches them.
    zero = np.zeros_like(anti_n)
    g = GaussianCoeffs(zero, zero, zero, zero, anti_n, zero, time=zero, nbar=0.0)
    with pytest.raises(DomainError, match=message):
        route(g)


@pytest.mark.parametrize("route", [fidelity_coherent], ids=lambda route: route.__name__)
def test_conditioning_needs_a_closed_form_state(moderate, route):
    # Only a closed-form state carries the couplings the factored forms
    # need.  fidelity_coherent, the one function that takes a state, rejects
    # a hand-built or propagator-route state, for one time or several,
    # rather than condition it by the coefficient formulas, which cancel
    # ~r^4-sized terms.
    for time in (0.3, np.linspace(0.0, period(moderate), 7)):
        hand_built = _strip_couplings(coeffs_analytic(moderate, 1.0, time))
        from_propagator = coeffs_from_propagator(moderate, 1.0, time)
        for g in (hand_built, from_propagator):
            with pytest.raises(DomainError, match=r"closed-form state \(coeffs_analytic\)"):
                route(g)


def _coefficient_formulas(g):
    """n_eff, the heterodyne-free fidelity and the conditioned matrix, written
    from the coefficients as in the docstrings: the generic route."""
    e1 = g.anti_n + 1.0
    bracket = 1.0 + g.stokes_n + g.mirror_n + 2.0 * g.stokes_mirror
    d = g.stokes_anti - g.mirror_anti
    matrix = np.zeros(np.shape(g.time) + (4, 4))
    matrix[..., 0, 0] = matrix[..., 1, 1] = g.stokes_n - g.stokes_anti**2 / e1 + 0.5
    matrix[..., 2, 2] = matrix[..., 3, 3] = g.mirror_n - g.mirror_anti**2 / e1 + 0.5
    corr = g.stokes_mirror + g.stokes_anti * g.mirror_anti / e1
    matrix[..., 0, 2] = matrix[..., 2, 0] = corr
    matrix[..., 1, 3] = matrix[..., 3, 1] = -corr
    return bracket - d * (d / e1), 1.0 / (1.0 + bracket), matrix


def _assert_matches_coefficient_formulas(c, nbar, time):
    n_eff, f_no_het, matrix = _coefficient_formulas(coeffs_analytic(c, nbar, time))
    assert effective_occupation(c, nbar, time) == pytest.approx(n_eff, rel=1e-10, abs=1e-10)
    assert _fidelity(c, nbar, time, heterodyne=False) == pytest.approx(f_no_het, rel=1e-10)
    got = conditional_correlation(c, nbar, time).matrix
    assert got == pytest.approx(matrix, rel=1e-9, abs=1e-9)


def test_stable_and_generic_routes_agree(moderate):
    # The factored (stable) forms are the coefficient formulas (the generic
    # route) regrouped; at moderate rates the formulas keep all but a few
    # digits, so the two agree one time at a time.
    for nbar in (0.0, 1.0, 25.0):
        for t in np.linspace(0.01, period(moderate), 19):
            _assert_matches_coefficient_formulas(moderate, nbar, float(t))


def test_noise_without_couplings_is_the_coefficient_formulas(moderate):
    # The same agreement for a stack of times, row by row, and for a
    # single time given as a float.
    ts = np.linspace(0.0, period(moderate), 101)
    for nbar in (0.0, 1.0, 3.0, 25.0):
        for time in (ts, 0.7):
            _assert_matches_coefficient_formulas(moderate, nbar, time)


@pytest.mark.parametrize("c", ["moderate", "bench_couplings"])
def test_grid_rows_match_their_times_alone(request, c):
    # The verify gates read every tenth row of the 101-point grid's channel
    # matrices and n_eff in place of evaluating grid[::10] again.
    c = request.getfixturevalue(c)
    grid = np.linspace(0.0, period(c), 101)
    for nbar in NBAR_SET:
        assert (
            conditional_correlation(c, nbar, grid).matrix[::10].tobytes()
            == conditional_correlation(c, nbar, grid[::10]).matrix.tobytes()
        )
        assert (
            effective_occupation(c, nbar, grid)[::10].tobytes()
            == effective_occupation(c, nbar, grid[::10]).tobytes()
        )


@pytest.mark.parametrize("c", ["moderate", "bench_couplings"])
def test_stacked_channel_rows_are_their_matrices_alone(request, c):
    # One array code path: the conditioned channel, its physicality defect
    # and the teleported covariance of a stack of times are, row by row, bit
    # for bit those of each time alone.
    c = request.getfixturevalue(c)
    ts = np.linspace(0.0, period(c), 101)
    gin = CovMatrix2.from_variances(0.9, 0.2, 0.7)
    for nbar in NBAR_SET:
        chan = conditional_correlation(c, nbar, ts)
        defects = physicality_defect(chan)
        out = teleport_covariance(chan, gin).matrix
        assert chan.matrix.shape == (101, 4, 4) and defects.shape == (101,)
        assert out.shape == (101, 2, 2)
        for i, t in enumerate(ts):
            one = conditional_correlation(c, nbar, t)
            assert one.matrix.tobytes() == chan.matrix[i].tobytes()
            assert np.float64(physicality_defect(one)).tobytes() == defects[i].tobytes()
            assert teleport_covariance(one, gin).matrix.tobytes() == out[i].tobytes()


@pytest.mark.parametrize("nbar", [1e300, 1e307])
def test_overflowing_channel_raises(bench_couplings, nbar):
    # There the factored forms leave float64: entries overflow to inf at
    # 1e300, and E1 too at 1e307, where inf/inf makes them NaN, which the
    # symmetry check alone would reject under a misleading message.  The
    # channel raises DomainError naming the non-finite entry, for a stack of
    # times and for one time, and never returns an inf or a NaN.
    ts = np.linspace(0.0, period(bench_couplings), 101)
    with np.errstate(over="ignore", invalid="ignore"):
        for time in (ts, float(ts[37])):
            with pytest.raises(DomainError, match="non-finite"):
                conditional_correlation(bench_couplings, nbar, time)


@pytest.mark.parametrize("r", [5000.0, 3.7e4])
def test_noise_guard_is_relative_to_the_state(bench_config, r):
    # The coefficient formula rounds exact propagator-route states' ~r^4-sized
    # terms to an n_eff with no digit left (F read 1.0 where the closed form
    # gives 0.49996 and 0.00099797), so conditioning them raises.  Gate 5
    # measures the formula's gap relative to the state, where it is rounding.
    laser = bench_config.params.laser_freq
    c = compute_couplings(replace(bench_config.params, mirror_freq=laser / (2 * r * r + 1)))
    times = np.linspace(0.0, period(c), 101)
    nbar_values = (0.0, 1.0, 1000.0)
    for nbar in nbar_values:
        with pytest.raises(DomainError, match="closed-form state"):
            fidelity_coherent(coeffs_from_propagator(c, nbar, times))
    gates = {name: defect for name, defect, *_ in _run_gates(c, nbar_values)}
    assert gates["fidelity-identity"] <= 1e-12


def test_teleport_added_noise_equals_occupation(moderate):
    gin = CovMatrix2.from_variances(0.9, 0.2, 0.7)
    for nbar in (0.0, 3.0):
        for t in np.linspace(0.0, period(moderate), 11):
            out = teleport_covariance(conditional_correlation(moderate, nbar, t), gin).matrix
            n_eff = effective_occupation(moderate, nbar, t)
            assert out[0, 0] - 0.9 == pytest.approx(n_eff, rel=1e-12, abs=1e-12)
            assert out[1, 1] - 0.7 == pytest.approx(n_eff, rel=1e-12, abs=1e-12)
            assert out[0, 1] == pytest.approx(0.2, abs=1e-12)


def test_fidelity_occupation_identity(moderate):
    ts = np.linspace(0.0, period(moderate), 101)
    f = _fidelity(moderate, 7.0, ts)
    n = effective_occupation(moderate, 7.0, ts)
    assert np.abs(f * (1.0 + n) - 1.0).max() < 1e-12


def test_global_fidelity_ceiling(moderate, bench_couplings):
    # No time or temperature beats 1/(4 - 2 sqrt(2)).
    for c in (moderate, bench_couplings):
        ts = np.linspace(0.0, period(c), 200_001)
        for f in fidelity_curves(c, (0.0, 1000.0), ts):
            assert f.max() <= BEST_FIDELITY + 1e-9


def test_optimum_saturates_ceiling(bench_couplings):
    t_star, f_max = optimal_time(bench_couplings, 0.0)
    assert f_max == pytest.approx(BEST_FIDELITY, abs=1e-7)
    assert 1.0 / f_max - 1.0 == pytest.approx(BEST_OCCUPATION, abs=1e-6)
    # the peak sits just before the revival at one full period
    assert 0.9 * period(bench_couplings) < t_star < period(bench_couplings)


@pytest.mark.parametrize(
    "c, nbar, heterodyne",
    [
        (Couplings.from_rates(2.0, 3.0), 1.0, True),
        (Couplings(15.006695007659511, 24.76684211707909, 19.702679345698385), 3.0, True),
        (
            Couplings(0.008525183270747378, 0.011072472838650456, 0.007065472734560735),
            1e4,
            False,
        ),
        # At large nbar the heterodyne-free peak is a few ulps of t wide, and
        # the rounding of t limits F.
        ("bench_couplings", 1e16, False),
        ("bench_couplings", 1e20, False),
        (Couplings.from_rates(2.0, 3.0), 1e20, False),
        (Couplings.from_rates(1.0, 10.0), 1e22, False),
        (Couplings.from_rates(1.0, 10.0), 1e23, False),
        # The best float time is a few ulps from the closed-form one.
        (Couplings.from_rates(1.0, 1.1), 1e20, False),
    ],
    ids=[
        "moderate",
        "r0.76-nbar3",
        "r1.21-nbar1e4-no-heterodyne",
        "bench-nbar1e16-no-heterodyne",
        "bench-nbar1e20-no-heterodyne",
        "moderate-nbar1e20-no-heterodyne",
        "r0.1-nbar1e22-no-heterodyne",
        "r0.1-nbar1e23-no-heterodyne",
        "r2.18-nbar1e20-no-heterodyne",
    ],
)
def test_optimal_time_agrees_with_brute_force(request, c, nbar, heterodyne):
    # A dense scan of the period, joined to every float time within 20,000
    # ulps of x0 = 2 pi - atan(1/r), where the heterodyne-free bracket
    # nbar (r sin x + cos x)^2 vanishes.
    if isinstance(c, str):
        c = request.getfixturevalue(c)
    t0 = (2.0 * math.pi - math.atan(c.oscillation / c.parametric)) / c.oscillation
    ts = np.concatenate((
        np.linspace(0.0, period(c), 2_000_001),
        t0 + math.ulp(t0) * np.arange(-20_000, 20_001),
    ))
    f = _fidelity(c, nbar, ts, heterodyne)
    t_star, f_max = optimal_time(c, nbar, heterodyne)
    assert f_max >= f.max() - 1e-12
    assert _fidelity(c, nbar, t_star, heterodyne) == f_max
    assert t_star == pytest.approx(ts[int(np.argmax(f))], abs=1e-6 * period(c))


@pytest.mark.parametrize("heterodyne", [True, False], ids=["heterodyne", "no-heterodyne"])
@pytest.mark.parametrize("mirror_freq", [5e8, 7.3e5], ids=["r1414", "r37000"])
def test_optimal_time_beats_dense_u_scan(bench_config, mirror_freq, heterodyne):
    # A 1e-5 step in u = r (2 pi - oscillation t) over [0, 4], which holds
    # the peak, bounds the maximum from below.
    c = compute_couplings(replace(bench_config.params, mirror_freq=mirror_freq))
    r = c.parametric / c.oscillation
    u = np.linspace(0.0, 4.0, 400_001)
    ts = (2.0 * math.pi - u / r) / c.oscillation
    scan_max = np.max(_fidelity(c, 1000.0, ts, heterodyne))
    t_star, f_max = optimal_time(c, 1000.0, heterodyne)
    assert f_max >= scan_max - 1e-12
    assert _fidelity(c, 1000.0, t_star, heterodyne) == f_max


@given(
    c=rate_pairs,
    nbar=st.one_of(st.just(0.0), st.floats(-3.0, 20.0).map(lambda e: 10.0**e)),
    heterodyne=st.booleans(),
)
@settings(max_examples=40, deadline=None)
# A numpy scalar's ** 2 rounded this t*'s fidelity an ulp below the grid's.
@example(
    c=Couplings(7.0, 13.163630797845702, 11.148146742037076),
    nbar=0.0,
    heterodyne=True,
)
def test_optimal_time_beats_dense_scans_at_small_r(c, nbar, heterodyne):
    # r from 0.35 to 7, where the peak may lie anywhere in the period: a dense
    # scan of the period, joined to a 4e-4 step in u over [0, 8].
    t_period = period(c)
    u = np.linspace(0.0, min(8.0, c.parametric * t_period), 20_001)
    ts = np.concatenate((
        np.linspace(0.0, t_period, 200_001),
        np.maximum(t_period - u / c.parametric, 0.0),
    ))
    scan_max = np.max(_fidelity(c, nbar, ts, heterodyne))
    t_star, f_max = optimal_time(c, nbar, heterodyne)
    assert f_max >= scan_max - 1e-12
    assert _fidelity(c, nbar, t_star, heterodyne) == f_max


def _reference_fidelity(c, nbar, time, heterodyne=True):
    """The factored forms as the fidelity functions evaluated them from the
    six coefficients, one nbar at a time: the reference, bit for bit."""
    g = coeffs_analytic(c, nbar, time)
    r = c.parametric / c.oscillation
    q = c.beam_splitter / c.oscillation
    x = c.oscillation * np.asarray(g.time, dtype=float)
    s, cos = np.sin(x), np.cos(x)
    omc = 2.0 * np.sin(0.5 * x) ** 2
    e1 = 1.0 + q**2 * (r**2 * omc**2 + g.nbar * s**2)
    gain = r**2 * omc + r * s
    if heterodyne:
        noise = (g.nbar + 1.0) * (1.0 + gain) ** 2 / e1
    else:
        noise = (1.0 + gain) ** 2 + g.nbar * (r * s + cos) ** 2
    return 1.0 / (1.0 + np.maximum(noise, 0.0))


def _reference_curves(c, nbar_values, time, heterodyne=True):
    return [_reference_fidelity(c, nbar, time, heterodyne) for nbar in nbar_values]


_BUNDLED_COUPLINGS = compute_couplings(load_config(bundled_config_path()).params)


@given(
    c=st.one_of(rate_pairs, st.just(_BUNDLED_COUPLINGS)),
    nbar_values=st.lists(
        st.one_of(st.just(0.0), st.floats(-3.0, 20.0).map(lambda e: 10.0**e)),
        min_size=1,
        max_size=4,
    ),
    heterodyne=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_fidelity_curves_match_the_coefficient_route(c, nbar_values, heterodyne):
    # The one kernel of the factored forms gives the bits of the coefficient
    # route for every nbar, so does each nbar alone and the fidelity_coherent
    # wrapper, and the optimiser finds the same (t*, F_max) with either route
    # in its scans.
    ts = np.linspace(0.0, 1.5 * period(c), 3001)
    want = _reference_curves(c, nbar_values, ts, heterodyne)
    got = fidelity_curves(c, nbar_values, ts, heterodyne)
    for nbar, f, ref in zip(nbar_values, got, want):
        assert f.tobytes() == ref.tobytes()
        assert _fidelity(c, nbar, ts, heterodyne).tobytes() == ref.tobytes()
        if heterodyne:
            g = coeffs_analytic(c, nbar, ts)
            assert np.asarray(fidelity_coherent(g)).tobytes() == ref.tobytes()
    optima = [optimal_time(c, nbar, heterodyne) for nbar in nbar_values]
    with mock.patch.object(protocol, "fidelity_curves", _reference_curves):
        assert optima == [optimal_time(c, nbar, heterodyne) for nbar in nbar_values]


@pytest.mark.parametrize("nbar", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(lambda c, n: coeffs_analytic(c, n, 0.3), id="coeffs_analytic"),
        pytest.param(lambda c, n: coeffs_from_propagator(c, n, 0.3), id="coeffs_from_propagator"),
        pytest.param(lambda c, n: fidelity_curves(c, (1.0, n), 0.3), id="fidelity_curves"),
        pytest.param(
            lambda c, n: conditional_correlation(c, n, 0.3), id="conditional_correlation"
        ),
        pytest.param(lambda c, n: effective_occupation(c, n, 0.3), id="effective_occupation"),
        pytest.param(lambda c, n: optimal_time(c, n), id="optimal_time"),
        pytest.param(lambda c, n: decoherence_window(1.0, n), id="decoherence_window"),
        pytest.param(lambda c, n: list(_run_gates(c, (n,))), id="verify_gates"),
    ],
)
def test_nbar_must_be_finite_and_non_negative(moderate, entry, nbar):
    # Every entry that takes an occupation names a NaN, an infinite or a
    # negative one in a DomainError, rather than return NaN values.
    with pytest.raises(DomainError, match=rf"nbar must be finite and >= 0, got {nbar!r}"):
        entry(moderate, nbar)


def test_fidelity_curves_reject_negative_nbar(moderate):
    with pytest.raises(DomainError):
        fidelity_curves(moderate, (1.0, -1.0), np.linspace(0.0, 1.0, 3))
    with pytest.raises(DomainError):
        fidelity_curves(moderate, (1.0,), np.array([-1.0]))


def test_optimal_time_rejects_overflowed_fidelity(bench_couplings):
    # At the peak the closed forms stay in range up to nbar ~ 1e307 on these
    # rates, and the maximum is the nbar-free 0.8536; at 1e308 E1 overflows
    # there, which would read as F = 1.
    assert optimal_time(bench_couplings, 1e302)[1] == pytest.approx(0.8535533463990973, abs=1e-15)
    near_degenerate = Couplings(12345761.047506284, 12345761.052012486, 333.5640951981521)
    assert optimal_time(near_degenerate, 1e300)[1] == pytest.approx(0.85355339, abs=1e-8)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="float64 range"):
            optimal_time(bench_couplings, 1e308)


@pytest.mark.parametrize("offset", [1, 8, 16])
def test_optimal_time_rejects_a_nan_off_the_peak(monkeypatch, bench_couplings, offset):
    # np.argmax takes the first NaN of the 17 values for their largest, so
    # a NaN away from the peak fails the same range check as an overflow.
    fidelity_curves = protocol.fidelity_curves

    def with_a_nan(*args):
        (fv,) = fidelity_curves(*args)
        assert len(fv) == 17
        fv[(int(np.argmax(fv)) + offset) % 17] = math.nan
        return (fv,)

    monkeypatch.setattr(protocol, "fidelity_curves", with_a_nan)
    with pytest.raises(DomainError, match="float64 range"):
        optimal_time(bench_couplings, 1.0)


def test_optimal_time_at_vanishing_ratio():
    # r = 1e-200, and r = 0 where parametric/oscillation underflows: both
    # peaks tend to x = 3 pi/2, with F = 1/2.
    for c in (Couplings.from_rates(1e-200, 1.0), Couplings(5e-324, 10.0, 10.0)):
        for nbar in (0.0, 1.0, 1e200):
            assert optimal_time(c, nbar)[1] == 0.5
        assert optimal_time(c, 1.0, heterodyne=False)[1] == 0.5


@given(
    c=st.one_of(rate_pairs, st.just(_BUNDLED_COUPLINGS)),
    nbar=st.one_of(st.just(0.0), st.floats(-3.0, 20.0).map(lambda e: 10.0**e)),
)
@settings(max_examples=60, deadline=None)
def test_optima_are_closed_form(c, nbar):
    # tau* = tan(x*/2) = -1/sqrt(2r^2 + 1) for every nbar: the fidelity
    # maximum depends on r alone, so temperature independence is exact.
    r = c.parametric / c.oscillation
    k = math.sqrt(2.0 * r * r + 1.0)
    s = math.sqrt(r * r + 1.0)
    closed = 1.0 / (1.0 + (k - r) ** 2 / (r * r + 1.0))
    closed_nh = 1.0 / (1.0 + (s / (s + r)) ** 2)
    assert (peak_fidelity(c), peak_fidelity(c, heterodyne=False)) == pytest.approx(
        (closed, closed_nh), rel=1e-15
    )
    t_star, f_max = optimal_time(c, nbar)
    assert f_max == pytest.approx(closed, rel=1e-15)
    t_peak = (2.0 * math.pi - 2.0 * math.atan(1.0 / k)) / c.oscillation
    assert abs(t_star - t_peak) <= 8 * math.ulp(t_peak)
    # Without the heterodyne, tau0 = r - sqrt(r^2 + 1) and 1 + gain =
    # sqrt(r^2 + 1)/(sqrt(r^2 + 1) + r).  At large nbar the rounding of t
    # limits F, which test_optimal_time_agrees_with_brute_force covers.
    if nbar <= 1e6:
        t_star, f_max = optimal_time(c, nbar, heterodyne=False)
        assert f_max == pytest.approx(closed_nh, rel=1e-14)
        t_peak = (2.0 * math.pi - 2.0 * math.atan(1.0 / (r + s))) / c.oscillation
        assert abs(t_star - t_peak) <= 8 * math.ulp(t_peak)


def test_no_heterodyne_never_beats_heterodyne(moderate, bench_couplings):
    for c in (moderate, bench_couplings):
        ts = np.linspace(0.0, period(c), 100_001)
        with_het, without = (fidelity_curves(c, (0.0, 10.0), ts, h) for h in (True, False))
        for f, f_nh in zip(with_het, without):
            assert np.all(f_nh <= f + 1e-14)


def test_no_heterodyne_optimum(bench_couplings):
    _, f_nh = optimal_time(bench_couplings, 0.0, heterodyne=False)
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


@pytest.mark.parametrize("strength", [math.nan, math.inf, -1.0])
def test_actuation_setting_validation(strength):
    with pytest.raises(DomainError, match="strength"):
        ActuationSetting(0.0, strength)
