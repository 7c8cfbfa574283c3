import math

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

from conftest import (
    COEFF_FIELDS,
    NBAR_SET,
    heterodyne_channel,
    rate_pairs,
    standard_form_triple,
)

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
    # General Gaussian conditioning of the propagator's state gives a matrix
    # in the standard form, with equal variances in X and P, correlations
    # +c and -c and no X-P term, so the triple is the whole channel.
    for nbar in (0.0, 2.0, 25.0):
        for t in np.linspace(0.0, period(moderate), 13).tolist():
            triple = standard_form_triple(heterodyne_channel(moderate, nbar, t), 1e-14)
            chan = conditional_correlation(moderate, nbar, t)
            assert triple == pytest.approx((chan.a, chan.b, chan.c), rel=1e-13, abs=1e-14)


def test_conditioned_state_physical_everywhere(moderate, bench_couplings):
    for c in (moderate, bench_couplings):
        for nbar in (0.0, 1.0, 1000.0):
            for t in np.linspace(0.0, period(c), 37).tolist():
                assert physicality_defect(conditional_correlation(c, nbar, t)) < 1e-10


@pytest.mark.parametrize("anti_n", [-1.0, -2.0, math.nan])
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
    # anti_n + 1: at or below 0, or NaN, each raises a DomainError, not a
    # ZeroDivisionError or a value.  bob_displacement names the divisor;
    # fidelity_coherent rejects the hand-built state before it divides.
    # The channel functions take (couplings, nbar, time), so no such state
    # reaches them.
    g = GaussianCoeffs(0.0, 0.0, 0.0, 0.0, anti_n, 0.0, time=0.0, nbar=0.0)
    with pytest.raises(DomainError, match=message):
        route(g)


@pytest.mark.parametrize("route", [fidelity_coherent], ids=lambda route: route.__name__)
def test_conditioning_needs_a_closed_form_state(moderate, route):
    # Only a closed-form state carries the couplings the factored forms
    # need.  fidelity_coherent, the one function that takes a state, rejects
    # a hand-built or propagator-route state rather than condition it by the
    # coefficient formulas, which cancel ~r^4-sized terms.
    for time in (0.3, *np.linspace(0.0, period(moderate), 7).tolist()):
        hand_built = _strip_couplings(coeffs_analytic(moderate, 1.0, time))
        from_propagator = coeffs_from_propagator(moderate, 1.0, time)
        for g in (hand_built, from_propagator):
            with pytest.raises(DomainError, match=r"closed-form state \(coeffs_analytic\)"):
                route(g)


def _coefficient_formulas(g):
    """n_eff, the heterodyne-free fidelity and the conditioned channel's
    standard form (a, b, c), written from the coefficients as in the
    docstrings: the generic route."""
    e1 = g.anti_n + 1.0
    bracket = 1.0 + g.stokes_n + g.mirror_n + 2.0 * g.stokes_mirror
    d = g.stokes_anti - g.mirror_anti
    triple = (
        g.stokes_n - g.stokes_anti**2 / e1 + 0.5,
        g.mirror_n - g.mirror_anti**2 / e1 + 0.5,
        g.stokes_mirror + g.stokes_anti * g.mirror_anti / e1,
    )
    return bracket - d * (d / e1), 1.0 / (1.0 + bracket), triple


def _assert_matches_coefficient_formulas(c, nbar, time):
    n_eff, f_no_het, triple = _coefficient_formulas(coeffs_analytic(c, nbar, time))
    assert effective_occupation(c, nbar, time) == pytest.approx(n_eff, rel=1e-10, abs=1e-10)
    assert _fidelity(c, nbar, time, heterodyne=False) == pytest.approx(f_no_het, rel=1e-10)
    chan = conditional_correlation(c, nbar, time)
    got = (chan.a, chan.b, chan.c)
    assert got == pytest.approx(triple, rel=1e-9, abs=1e-9)
    generic = standard_form_triple(heterodyne_channel(c, nbar, time), 1e-12)
    assert got == pytest.approx(generic, rel=1e-9, abs=1e-9)


def test_stable_and_generic_routes_agree(moderate):
    # The factored (stable) forms are the coefficient formulas (the generic
    # route) regrouped; at moderate rates the formulas keep all but a few
    # digits, so the two agree one time at a time.
    for nbar in (0.0, 1.0, 25.0):
        for t in np.linspace(0.01, period(moderate), 19).tolist():
            _assert_matches_coefficient_formulas(moderate, nbar, t)


def test_noise_without_couplings_is_the_coefficient_formulas(moderate):
    # The same agreement on a finer grid, from t = 0, and at more nbar.
    ts = np.linspace(0.0, period(moderate), 101).tolist()
    for nbar in (0.0, 1.0, 3.0, 25.0):
        for time in (*ts, 0.7):
            _assert_matches_coefficient_formulas(moderate, nbar, time)


@pytest.mark.parametrize("c", ["moderate", "bench_couplings"])
def test_grid_rows_match_their_times_alone(request, c):
    # Every tenth row of a grid's n_eff and fidelities is, bit for bit, that
    # of grid[::10].
    c = request.getfixturevalue(c)
    grid = np.linspace(0.0, period(c), 101)
    for nbar in NBAR_SET:
        assert (
            effective_occupation(c, nbar, grid)[::10].tobytes()
            == effective_occupation(c, nbar, grid[::10]).tobytes()
        )
        for heterodyne in (True, False):
            assert (
                _fidelity(c, nbar, grid, heterodyne)[::10].tobytes()
                == _fidelity(c, nbar, grid[::10], heterodyne).tobytes()
            )


@pytest.mark.parametrize("nbar", [1e300, 1e307])
def test_overflowing_channel_raises(bench_couplings, nbar):
    # There the factored forms leave float64: entries overflow to inf at
    # 1e300, and E1 too at 1e307, where inf/inf makes them NaN, which the
    # symmetry check alone would reject under a misleading message.  The
    # channel raises DomainError naming the non-finite entry, or E1, and
    # never returns an inf or a NaN.
    t = np.linspace(0.0, period(bench_couplings), 101)[37].item()
    with pytest.raises(DomainError, match="non-finite"):
        conditional_correlation(bench_couplings, nbar, t)


@pytest.mark.parametrize("case", ["bench-1e308-peak", "r37000-1e300-quarter"])
def test_float_time_signals_an_infinite_e1(bench_couplings, case):
    # At the heterodyne peak at nbar = 1e308 E1 overflows while
    # (nbar + 1)(1 + gain)^2 stays finite, so n_eff would read 0 and F 1;
    # at r = 3.7e4, nbar = 1e300, a quarter period in, both overflow, to a
    # NaN.  numpy signals an array's overflow; a Python float overflows
    # silently, so a float time raises DomainError instead.
    if case.startswith("bench"):
        c, nbar = bench_couplings, 1e308
        t = protocol._peak(c, True)[0]
    else:
        c, nbar = Couplings(12345761.047506284, 12345761.052012486, 333.5640951981521), 1e300
        t = 0.25 * period(c)
    assert type(t) is float
    with pytest.warns(RuntimeWarning):
        effective_occupation(c, nbar, np.array([t]))
    for closed_form in (
        lambda: effective_occupation(c, nbar, t),
        lambda: fidelity_curves(c, (nbar,), t),
        lambda: conditional_correlation(c, nbar, t),
    ):
        with pytest.raises(DomainError, match="non-finite E1"):
            closed_form()


@pytest.mark.parametrize("r", [5000.0, 3.7e4])
def test_noise_guard_is_relative_to_the_state(bench_config, r):
    # The coefficient formula rounds exact propagator-route states' ~r^4-sized
    # terms to an n_eff with no digit left (F read 1.0 where the closed form
    # gives 0.49996 and 0.00099797), so conditioning them raises.  Gate 5
    # measures the formula's gap relative to the state, where it is rounding.
    laser = bench_config.params.laser_freq
    c = compute_couplings(replace(bench_config.params, mirror_freq=laser / (2 * r * r + 1)))
    times = np.linspace(0.0, period(c), 101).tolist()
    nbar_values = (0.0, 1.0, 1000.0)
    for nbar in nbar_values:
        for t in times:
            with pytest.raises(DomainError, match="closed-form state"):
                fidelity_coherent(coeffs_from_propagator(c, nbar, t))
    gates = {name: defect for name, defect, *_ in _run_gates(c, nbar_values)}
    assert gates["fidelity-identity"] <= 1e-12


def test_teleport_added_noise_equals_occupation(moderate):
    gin = CovMatrix2(0.9, 0.2, 0.7)
    for nbar in (0.0, 3.0):
        for t in np.linspace(0.0, period(moderate), 11).tolist():
            out = teleport_covariance(conditional_correlation(moderate, nbar, t), gin)
            n_eff = effective_occupation(moderate, nbar, t)
            assert out.xx - 0.9 == pytest.approx(n_eff, rel=1e-12, abs=1e-12)
            assert out.pp - 0.7 == pytest.approx(n_eff, rel=1e-12, abs=1e-12)
            assert out.xp == 0.2


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


def _optimum(c, nbar, heterodyne):
    """(t, F) at the maximum over time: ``optimal_time``'s, whose F is the
    kernel's at its t, or without the heterodyne the closed-form peak, which
    float times fall below at large nbar."""
    if not heterodyne:
        return protocol._peak(c, False)[0], peak_fidelity(c, heterodyne=False)
    t_star, f_max = optimal_time(c, nbar)
    assert _fidelity(c, nbar, t_star) == f_max
    return t_star, f_max


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
        # the float times fall below its closed-form F.
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
    # nbar (r sin x + cos x)^2 vanishes: no float time beats the closed-form
    # maximum, and its time is the scan's best.
    if isinstance(c, str):
        c = request.getfixturevalue(c)
    t0 = (2.0 * math.pi - math.atan(c.oscillation / c.parametric)) / c.oscillation
    ts = np.concatenate((
        np.linspace(0.0, period(c), 2_000_001),
        t0 + math.ulp(t0) * np.arange(-20_000, 20_001),
    ))
    f = _fidelity(c, nbar, ts, heterodyne)
    t_star, f_max = _optimum(c, nbar, heterodyne)
    assert f_max >= f.max() - 1e-12
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
    assert _optimum(c, 1000.0, heterodyne)[1] >= scan_max - 1e-12


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
    assert _optimum(c, nbar, heterodyne)[1] >= scan_max - 1e-12


def _reference_fidelity(c, nbar, times, heterodyne=True):
    """The factored forms as the fidelity functions once evaluated them, one
    nbar at a time, on an array of times: the reference, bit for bit."""
    r = c.parametric / c.oscillation
    q = c.beam_splitter / c.oscillation
    x = c.oscillation * times
    s, cos = np.sin(x), np.cos(x)
    omc = 2.0 * np.sin(0.5 * x) ** 2
    e1 = 1.0 + q**2 * (r**2 * omc**2 + nbar * s**2)
    gain = r**2 * omc + r * s
    if heterodyne:
        noise = (nbar + 1.0) * (1.0 + gain) ** 2 / e1
    else:
        noise = (1.0 + gain) ** 2 + nbar * (r * s + cos) ** 2
    return 1.0 / (1.0 + np.maximum(noise, 0.0))


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
    # The one kernel of the factored forms gives the bits of the reference
    # for every nbar, and so does each nbar alone; the fidelity_coherent
    # wrapper is the kernel at its state's float time; and the optimiser is
    # the kernel at the closed-form peak time, bit for bit, which the float
    # times within 8 ulps of it beat by no more than the kernel's rounding.
    ts = np.linspace(0.0, 1.5 * period(c), 3001)
    got = fidelity_curves(c, nbar_values, ts, heterodyne)
    for nbar, f in zip(nbar_values, got):
        ref = _reference_fidelity(c, nbar, ts, heterodyne)
        assert f.tobytes() == ref.tobytes()
        assert _fidelity(c, nbar, ts, heterodyne).tobytes() == ref.tobytes()
        if heterodyne:
            for t in ts[::300].tolist():
                assert fidelity_coherent(coeffs_analytic(c, nbar, t)) == _fidelity(c, nbar, t)
        t_peak = protocol._peak(c, True)[0]
        f_max = _fidelity(c, nbar, t_peak)
        assert optimal_time(c, nbar) == (t_peak, f_max)
        near = [t_peak + math.ulp(t_peak) * k for k in range(-8, 9)]
        assert max(_fidelity(c, nbar, t) for t in near) <= f_max * (1.0 + 1e-15)


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
    # there, which would read as F = 1, and is named instead.
    assert optimal_time(bench_couplings, 1e302)[1] == pytest.approx(0.8535533463990973, abs=1e-15)
    near_degenerate = Couplings(12345761.047506284, 12345761.052012486, 333.5640951981521)
    assert optimal_time(near_degenerate, 1e300)[1] == pytest.approx(0.85355339, abs=1e-8)
    with pytest.raises(DomainError, match="non-finite E1"):
        optimal_time(bench_couplings, 1e308)


@pytest.mark.parametrize("offset", [1, 8, 16])
def test_optimal_time_rejects_a_nan_off_the_peak(monkeypatch, bench_couplings, offset):
    # optimal_time evaluates t* alone: a NaN at the float times up to
    # offset ulps off the peak, but not at it, is never evaluated, and one
    # that reaches t* fails the same range check as an overflow.
    expected = optimal_time(bench_couplings, 1.0)
    t_peak = protocol._peak(bench_couplings, True)[0]
    nans = {t_peak + math.ulp(t_peak) * k for k in range(-offset, offset + 1)}
    nans.discard(t_peak)
    fidelity_curves = protocol.fidelity_curves
    calls = []

    def with_nans(c, nbar_values, time, heterodyne=True):
        calls.append(time)
        if time in nans:
            return [math.nan] * len(nbar_values)
        return fidelity_curves(c, nbar_values, time, heterodyne)

    monkeypatch.setattr(protocol, "fidelity_curves", with_nans)
    assert optimal_time(bench_couplings, 1.0) == expected
    nans.add(t_peak)
    with pytest.raises(DomainError, match="float64 range"):
        optimal_time(bench_couplings, 1.0)
    assert calls == [t_peak, t_peak]


def test_optimal_time_at_vanishing_ratio():
    # r = 1e-200, and r = 0 where parametric/oscillation underflows: both
    # peaks tend to x = 3 pi/2, with F = 1/2.
    for c in (Couplings.from_rates(1e-200, 1.0), Couplings(5e-324, 10.0, 10.0)):
        for nbar in (0.0, 1.0, 1e200):
            assert optimal_time(c, nbar)[1] == 0.5
        assert peak_fidelity(c, heterodyne=False) == 0.5
        assert _fidelity(c, 1.0, protocol._peak(c, False)[0], False) == 0.5


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
    # sqrt(r^2 + 1)/(sqrt(r^2 + 1) + r).  At large nbar float times fall
    # below it, which test_optimal_time_agrees_with_brute_force covers.
    t_peak = (2.0 * math.pi - 2.0 * math.atan(1.0 / (r + s))) / c.oscillation
    t_star = protocol._peak(c, False)[0]
    assert abs(t_star - t_peak) <= 8 * math.ulp(t_peak)
    if nbar <= 1e6:
        assert _fidelity(c, nbar, t_star, False) == pytest.approx(closed_nh, rel=1e-14)


def test_no_heterodyne_never_beats_heterodyne(moderate, bench_couplings):
    for c in (moderate, bench_couplings):
        ts = np.linspace(0.0, period(c), 100_001)
        with_het, without = (fidelity_curves(c, (0.0, 10.0), ts, h) for h in (True, False))
        for f, f_nh in zip(with_het, without):
            assert np.all(f_nh <= f + 1e-14)


def test_no_heterodyne_optimum(bench_couplings):
    f_nh = _fidelity(bench_couplings, 0.0, protocol._peak(bench_couplings, False)[0], False)
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
