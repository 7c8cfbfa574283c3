import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirror_teleport import (
    Couplings,
    DomainError,
    HBAR,
    K_BOLTZMANN,
    PhysicalParams,
    compute_couplings,
    sideband_frequencies,
    thermal_occupation,
    validate_regime,
)
from mirror_teleport.optomech import oscillation_consistency

# Frozen regression values for the benchmark parameter set, computed once
# with 50-digit arithmetic.  [DERIVED]
BENCH_PARAMETRIC = 471730.80838357471408
BENCH_BEAM_SPLITTER = 471730.92631629155157
BENCH_OSCILLATION = 333.56409519815204958
BENCH_RATE_GAP = 0.11793271683748512591  # beam_splitter - parametric

BENCH = PhysicalParams(
    power=10.0,
    laser_freq=2e15,
    mirror_freq=5e8,
    det_bandwidth=1e7,
    mode_bandwidth=1e3,
    mass=1e-10,
)


def test_benchmark_couplings_golden():
    c = compute_couplings(BENCH)
    assert c.parametric == pytest.approx(BENCH_PARAMETRIC, rel=1e-12)
    assert c.beam_splitter == pytest.approx(BENCH_BEAM_SPLITTER, rel=1e-12)
    assert c.oscillation == pytest.approx(BENCH_OSCILLATION, rel=1e-12)
    assert c.beam_splitter - c.parametric == pytest.approx(BENCH_RATE_GAP, rel=1e-6)


def test_oscillation_beats_naive_difference_of_squares():
    # The stable route keeps ~full precision where the naive sqrt(b^2 - p^2)
    # has already lost six digits.
    c = compute_couplings(BENCH)
    assert abs(c.oscillation / BENCH_OSCILLATION - 1.0) < 1e-14


def test_ratio_of_rates_is_sideband_ratio():
    c = compute_couplings(BENCH)
    w0, wm = BENCH.laser_freq, BENCH.mirror_freq
    expected = math.sqrt((w0 + wm) / (w0 - wm))
    assert c.beam_splitter / c.parametric == pytest.approx(expected, rel=1e-14)


@given(factor=st.floats(0.25, 16.0))
@settings(max_examples=40, deadline=None)
def test_parametric_scales_as_sqrt_power(factor):
    base = compute_couplings(BENCH)
    scaled = compute_couplings(
        PhysicalParams(
            power=BENCH.power * factor,
            laser_freq=BENCH.laser_freq,
            mirror_freq=BENCH.mirror_freq,
            det_bandwidth=BENCH.det_bandwidth,
            mode_bandwidth=BENCH.mode_bandwidth,
            mass=BENCH.mass,
        )
    )
    assert scaled.parametric == pytest.approx(
        base.parametric * math.sqrt(factor), rel=1e-12
    )
    # oscillation inherits the same scaling: the trig dynamics just dilate.
    assert scaled.oscillation == pytest.approx(
        base.oscillation * math.sqrt(factor), rel=1e-12
    )


@given(angle=st.floats(0.0, 1.5))
@settings(max_examples=40, deadline=None)
def test_oblique_incidence_scales_by_cosine(angle):
    normal = compute_couplings(BENCH)
    oblique = compute_couplings(
        PhysicalParams(
            power=BENCH.power,
            laser_freq=BENCH.laser_freq,
            mirror_freq=BENCH.mirror_freq,
            det_bandwidth=BENCH.det_bandwidth,
            mode_bandwidth=BENCH.mode_bandwidth,
            mass=BENCH.mass,
            incidence_angle=angle,
        )
    )
    assert oblique.parametric == pytest.approx(
        normal.parametric * math.cos(angle), rel=1e-12
    )


def test_sideband_frequencies():
    stokes, anti = sideband_frequencies(BENCH)
    assert stokes == 2e15 - 5e8
    assert anti == 2e15 + 5e8


def test_thermal_occupation_golden():
    # At h_bar*W = k*T the occupation is 1/(e - 1).  [DERIVED]
    wm = 1e10
    temp = HBAR * wm / K_BOLTZMANN
    assert thermal_occupation(temp, wm) == pytest.approx(
        0.58197670686932642439, rel=1e-14
    )


def test_thermal_occupation_zero_temperature():
    assert thermal_occupation(0.0, 5e8) == 0.0


def test_thermal_occupation_classical_limit():
    # k*T >> h_bar*W: occupation -> k*T/(h_bar*W) - 1/2 + O(x).
    wm = 5e8
    temp = 300.0
    x = HBAR * wm / (K_BOLTZMANN * temp)
    assert thermal_occupation(temp, wm) == pytest.approx(1.0 / x - 0.5, rel=1e-6)


def test_thermal_occupation_deep_quantum_limit():
    wm = 1e12
    temp = HBAR * wm / K_BOLTZMANN / 700.0  # x = 700 > expm1 overflow guard
    assert thermal_occupation(temp, wm) == pytest.approx(math.exp(-700.0), rel=1e-12)


@pytest.mark.parametrize("temp", [1e-300, 1e-310, 1e-320, 5e-324])
def test_thermal_occupation_below_the_underflow_of_kt(temp):
    # Below about 1.8e-301 K, k*T underflows to 0; the occupation there is
    # exp(-x) for an x past the float64 range, 0 to all digits.
    assert thermal_occupation(temp, 5e8) == 0.0


def test_thermal_occupation_where_kt_underflows_at_a_tiny_frequency():
    # Where k*T underflows but W/T does not, x = (h_bar/k)(W/T) is finite
    # and the occupation that of the same x at scaled-up T and W.
    x = HBAR * 1.0 / (K_BOLTZMANN * 1e-10)
    assert thermal_occupation(1e-310, 1e-300) == pytest.approx(1.0 / math.expm1(x), rel=1e-14)


@pytest.mark.parametrize(
    "temp, wm", [(1e-300, 1e-288), (1e-295, 1e-283), (1e-290, 1e-278), (1e-200, 1e-288)]
)
def test_thermal_occupation_where_kt_or_hbar_w_is_subnormal(temp, wm):
    # A subnormal k*T or h_bar*W keeps only a few bits: their quotient put
    # the occupation at 9.127e-4 (+89 %) at the first point, where both
    # are subnormal, and 1.6 % high at the last, where only h_bar*W is.
    # The reference is 50-digit 1/expm1(h_bar W/(k T)).
    import mpmath

    assert min(K_BOLTZMANN * temp, HBAR * wm) < sys.float_info.min
    with mpmath.workdps(50):
        x = mpmath.mpf(HBAR) * wm / (mpmath.mpf(K_BOLTZMANN) * temp)
        want = 1 / mpmath.expm1(x)
        assert abs(thermal_occupation(temp, wm) - want) / want < 1e-15


def _normal_range_occupation(temperature, mirror_freq):
    """thermal_occupation's arithmetic where k T and h_bar W are normal."""
    x = HBAR * mirror_freq / (K_BOLTZMANN * temperature)
    if x > 600.0:
        return math.exp(-x)
    return 1.0 / math.expm1(x) if x > 0 else math.inf


def test_thermal_occupation_keeps_its_arithmetic_where_both_are_normal():
    # Log-uniform temperatures and frequencies whose products with k and
    # h_bar are normal floats; x = h_bar W / k T runs from below the float
    # range to far above it, so the exp, expm1 and overflow branches occur.
    rng = np.random.default_rng(20261020)
    lo_t, lo_w = (math.log10(sys.float_info.min / k) for k in (K_BOLTZMANN, HBAR))
    temps = 10.0 ** rng.uniform(lo_t, 307.0, 20000)
    freqs = 10.0 ** rng.uniform(lo_w, 307.0, 20000)
    kinds = set()
    for temp, wm in zip(temps.tolist(), freqs.tolist()):
        if min(K_BOLTZMANN * temp, HBAR * wm) < sys.float_info.min:
            continue
        want = _normal_range_occupation(temp, wm)
        if want == math.inf:
            kinds.add("overflow")
            with pytest.raises(DomainError, match="exceeds the float64 range"):
                thermal_occupation(temp, wm)
        else:
            kinds.add("exp" if HBAR * wm / (K_BOLTZMANN * temp) > 600.0 else "expm1")
            assert thermal_occupation(temp, wm).hex() == want.hex()
    assert kinds == {"overflow", "exp", "expm1"}


@given(t1=st.floats(1e-6, 1e4), t2=st.floats(1e-6, 1e4))
@settings(max_examples=60, deadline=None)
def test_thermal_occupation_monotone_in_temperature(t1, t2):
    lo, hi = sorted((t1, t2))
    if lo == hi:
        return
    assert thermal_occupation(lo, 5e8) <= thermal_occupation(hi, 5e8)


def test_couplings_validation():
    with pytest.raises(DomainError):
        Couplings.from_rates(3.0, 2.0)  # parametric must be the smaller
    with pytest.raises(DomainError):
        Couplings.from_rates(-1.0, 2.0)
    with pytest.raises(DomainError):
        Couplings(2.0, 3.0, 1.0)  # inconsistent oscillation
    # One ulp from degeneracy the consistency floor would admit any oscillation.
    with pytest.raises(DomainError):
        Couplings(1.0, math.nextafter(1.0, 2.0), 0.0)
    with pytest.raises(DomainError):
        Couplings(1.0, math.nextafter(1.0, 2.0), -1e-8)


def test_couplings_reject_ratio_whose_square_overflows():
    # One ulp from degeneracy the consistency floor admits oscillation
    # 1e-200, but the closed forms square r = 1e200.
    with pytest.raises(DomainError, match="float64 range"):
        Couplings(1.0, math.nextafter(1.0, 2.0), 1e-200)


def test_consistency_floor_tracks_cancellation():
    rel, floor = oscillation_consistency(2.0, 3.0, math.sqrt(5.0))
    assert rel < 1e-15 and floor < 1e-14
    c = compute_couplings(BENCH)
    rel, floor = oscillation_consistency(
        c.parametric, c.beam_splitter, c.oscillation
    )
    assert rel <= floor  # stable value sits inside the resolvable band


def test_params_validation():
    with pytest.raises(DomainError):
        PhysicalParams(0.0, 2e15, 5e8, 1e7, 1e3, 1e-10)
    with pytest.raises(DomainError, match="mirror_freq"):
        PhysicalParams(10.0, 2e15, 0.0, 1e7, 1e3, 1e-10)  # degenerate sidebands
    with pytest.raises(DomainError):
        PhysicalParams(10.0, 2e15, 5e8, 1e7, 1e3, 1e-10, incidence_angle=math.pi / 2)
    with pytest.raises(DomainError):
        PhysicalParams(10.0, 2e15, 5e8, 1e7, 1e3, 1e-10, temperature=-1.0)
    with pytest.raises(DomainError):
        PhysicalParams(10.0, 2e15, 5e8, 1e7, 1e3, 1e-10, temperature=math.nan)
    with pytest.raises(DomainError):
        PhysicalParams(10.0, 2e15, 5e8, 1e7, 1e3, 1e-10, damping=math.nan)
    with pytest.raises(DomainError):
        PhysicalParams(10.0, 1e8, 5e8, 1e7, 1e3, 1e-10)  # mirror above laser


def test_regime_clean_for_benchmark():
    assert validate_regime(BENCH) == []


def test_regime_flags_slow_mirror():
    slow = PhysicalParams(
        power=10.0,
        laser_freq=2e15,
        mirror_freq=5e7,  # below 10x the detection bandwidth
        det_bandwidth=1e7,
        mode_bandwidth=1e3,
        mass=1e-10,
    )
    warnings = validate_regime(slow)
    assert any("rotating-wave" in w for w in warnings)


def test_regime_flags_strong_damping():
    damped = PhysicalParams(
        power=10.0,
        laser_freq=2e15,
        mirror_freq=5e8,
        det_bandwidth=1e7,
        mode_bandwidth=1e3,
        mass=1e-10,
        damping=1e5,  # comparable to the oscillation rate ~333 rad/s
    )
    warnings = validate_regime(damped)
    assert any("damping" in w for w in warnings)
