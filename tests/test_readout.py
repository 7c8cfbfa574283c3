import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirror_teleport import (
    Couplings,
    DomainError,
    decoherence_window,
    propagator,
    readout_quality,
    readout_times,
    readout_weights,
)

# Frozen regression value for the benchmark rates.  [DERIVED]
BENCH_QUALITY = 5656.8535423856432028


def test_weights_at_time_zero(moderate):
    w = readout_weights(moderate, 0.0)
    assert w.mirror_weight == 0.0
    assert w.stokes_weight == 1.0
    assert w.anti_weight == -1.0


def test_weights_at_optimal_times(moderate):
    p, b, osc = moderate.parametric, moderate.beam_splitter, moderate.oscillation
    for k, t in enumerate(readout_times(moderate, 4)):
        w = readout_weights(moderate, t)
        sign = 1.0 if k % 2 == 0 else -1.0
        assert w.mirror_weight == pytest.approx(sign * (p + b) / osc, rel=1e-12)
        assert w.stokes_weight == pytest.approx(b / (b + p), rel=1e-12)
        assert w.anti_weight == pytest.approx(-p / (b + p), rel=1e-12)


def test_benchmark_weights_split_evenly(bench_couplings):
    # Near-degenerate rates: both light weights tend to magnitude 1/2.
    t = readout_times(bench_couplings, 1)[0]
    w = readout_weights(bench_couplings, t)
    assert w.stokes_weight == pytest.approx(0.5, abs=1e-6)
    assert w.anti_weight == pytest.approx(-0.5, abs=1e-6)
    assert abs(w.mirror_weight) > 2000.0  # mirror dominates by >> 10x


def test_readout_times_zero_the_cosine(moderate):
    for t in readout_times(moderate, 5):
        assert math.cos(moderate.oscillation * t) == pytest.approx(0.0, abs=1e-12)


def test_light_weights_match_propagator_rows(moderate, bench_couplings):
    # The signal combination evolves by the propagator; its stokes and
    # anti-stokes weights are exactly row1 - row3 of the matrix.
    for c in (moderate, bench_couplings):
        # the row entries are assembled through intermediates of size
        # (beam_splitter/oscillation)^2, which sets the rounding scale
        tol = 1e-13 * max(1.0, (c.beam_splitter / c.oscillation) ** 2)
        for x in (0.3, 1.0, 2.5):
            t = x / c.oscillation
            m = propagator(c, t)
            w = readout_weights(c, t)
            assert w.stokes_weight == pytest.approx(m[0, 0] - m[2, 0], abs=tol)
            assert w.anti_weight == pytest.approx(m[0, 2] - m[2, 2], abs=tol)


def test_mirror_weight_amplification(moderate):
    # The mirror weight is the row-difference mirror entry amplified by
    # -(b + p)^2 / oscillation^2: the published large-signal convention.
    for x in (0.3, 1.2, 2.9):
        t = x / moderate.oscillation
        m = propagator(moderate, t)
        w = readout_weights(moderate, t)
        factor = -((moderate.beam_splitter + moderate.parametric) ** 2) / (
            moderate.oscillation**2
        )
        assert w.mirror_weight == pytest.approx(
            factor * (m[0, 1] - m[2, 1]), rel=1e-10
        )


def test_quality_golden(bench_couplings):
    assert readout_quality(bench_couplings) == pytest.approx(
        BENCH_QUALITY, rel=1e-12
    )


def test_quality_is_weight_ratio(moderate):
    # mirror weight over the larger light weight (the stokes one)
    t = readout_times(moderate, 1)[0]
    w = readout_weights(moderate, t)
    expected = abs(w.mirror_weight) / abs(w.stokes_weight)
    assert readout_quality(moderate) == pytest.approx(expected, rel=1e-12)


@given(p=st.floats(0.5, 100.0), scale=st.floats(0.1, 100.0), ratio=st.floats(1.01, 2.0))
@settings(max_examples=60, deadline=None)
def test_quality_invariant_under_rate_rescaling(p, scale, ratio):
    c1 = Couplings.from_rates(p, p * ratio)
    c2 = Couplings.from_rates(p * scale, p * ratio * scale)
    assert readout_quality(c2) == pytest.approx(readout_quality(c1), rel=1e-10)


def test_decoherence_window():
    assert decoherence_window(1.0, 1000.0) == pytest.approx(1e-3)
    assert decoherence_window(2.0, 0.0) == math.inf
    with pytest.raises(DomainError):
        decoherence_window(0.0, 1.0)
    with pytest.raises(DomainError):
        decoherence_window(1.0, -1.0)


def test_readout_times_validation(moderate):
    assert readout_times(moderate, 0) == []
    with pytest.raises(DomainError):
        readout_times(moderate, -1)
