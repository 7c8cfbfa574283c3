import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirror_teleport import (
    DomainError,
    coeffs_analytic,
    coeffs_from_propagator,
    fidelity_curves,
    period,
    propagator,
    symplectic_defect,
)
from mirror_teleport.dynamics import _moment_derivatives

from conftest import COEFF_FIELDS, rate_pairs


def _vector(g):
    return np.array([getattr(g, f) for f in COEFF_FIELDS], dtype=float)


def test_initial_condition(moderate):
    g = coeffs_analytic(moderate, nbar=3.5, time=0.0)
    assert _vector(g) == pytest.approx([0.0, 3.5, 0.0, 0.0, 0.0, 0.0], abs=0.0)


def test_period(moderate):
    assert period(moderate) == pytest.approx(2.0 * math.pi / math.sqrt(5.0), rel=1e-15)


def test_periodicity(moderate):
    t = period(moderate)
    g0 = coeffs_analytic(moderate, nbar=2.0, time=0.0)
    g1 = coeffs_analytic(moderate, nbar=2.0, time=t)
    assert _vector(g1) == pytest.approx(_vector(g0), abs=1e-12)


def test_scalar_and_array_evaluation_agree(moderate):
    ts = np.linspace(0.0, period(moderate), 17)
    ga = coeffs_analytic(moderate, 1.5, ts)
    for i, t in enumerate(ts):
        gs = coeffs_analytic(moderate, 1.5, float(t))
        assert _vector(gs) == pytest.approx(
            [float(np.asarray(getattr(ga, f))[i]) for f in COEFF_FIELDS], rel=1e-15
        )


def test_coefficients_affine_in_nbar(moderate):
    # Each coefficient is a + b*nbar at fixed time; check by interpolation.
    t = 0.73
    v0 = _vector(coeffs_analytic(moderate, 0.0, t))
    v1 = _vector(coeffs_analytic(moderate, 1.0, t))
    v7 = _vector(coeffs_analytic(moderate, 7.0, t))
    assert v7 == pytest.approx(v0 + 7.0 * (v1 - v0), rel=1e-12, abs=1e-12)


def test_propagator_identity_at_zero(moderate):
    assert propagator(moderate, 0.0) == pytest.approx(np.eye(3), abs=0.0)


@given(c=rate_pairs, x=st.floats(0.0, 12.0))
@settings(max_examples=80, deadline=None)
def test_propagator_preserves_commutator_metric(c, x):
    assert symplectic_defect(propagator(c, x / c.oscillation)) < 1e-12


@given(c=rate_pairs, x1=st.floats(0.0, 6.0), x2=st.floats(0.0, 6.0))
@settings(max_examples=60, deadline=None)
def test_propagator_group_property(c, x1, x2):
    t1, t2 = x1 / c.oscillation, x2 / c.oscillation
    m12 = propagator(c, t1 + t2)
    prod = propagator(c, t1) @ propagator(c, t2)
    scale = max(1.0, np.abs(m12).max()) ** 2
    assert np.abs(m12 - prod).max() / scale < 1e-11


@given(
    c=st.one_of(st.none(), rate_pairs),
    xs=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
    nbar=st.floats(0.0, 1e6),
)
@settings(max_examples=60, deadline=None)
def test_stacked_propagator_route_is_per_time_route(bench_couplings, c, xs, seed, nbar):
    # One array code path: a stack of times gives, bit for bit, what each
    # time gives alone, and a single time gives float scalars.  The random
    # phases add enough distinct values for a rare rounding difference,
    # such as that of a numpy scalar's x**2, to show.
    c = bench_couplings if c is None else c
    xs = np.concatenate([xs, np.random.default_rng(seed).uniform(0.0, 20.0, 200)])
    ts = xs / c.oscillation
    stack = propagator(c, ts)
    coeffs = coeffs_from_propagator(c, nbar, ts)
    closed = coeffs_analytic(c, nbar, ts)
    defects = symplectic_defect(stack)
    assert stack.shape == (len(ts), 3, 3) and defects.shape == (len(ts),)
    for i, t in enumerate(ts):
        one = propagator(c, t)
        assert one.tobytes() == stack[i].tobytes()
        for single, stacked in [
            (coeffs_from_propagator(c, nbar, t), coeffs),
            (coeffs_analytic(c, nbar, t), closed),
        ]:
            assert isinstance(single.time, float) and single.time == t
            for f in COEFF_FIELDS:
                value = getattr(single, f)
                assert isinstance(value, float), f
                assert np.float64(value).tobytes() == getattr(stacked, f)[i].tobytes(), f
        defect = symplectic_defect(one)
        assert isinstance(defect, float)
        assert np.float64(defect).tobytes() == defects[i].tobytes()


def _two_step_moments(c, nbar, t):
    """The moment route in two steps, the propagator at one time ``t`` and
    then the second moments of its rows: the reference that one call on a
    stack of times must match bit for bit."""
    m = propagator(c, t)
    n1 = nbar + 1.0
    return (
        np.square(m[0, 1]) * n1 + np.square(m[0, 2]),
        np.square(m[1, 0]) + nbar * np.square(m[1, 1]),
        m[0, 1] * m[1, 1] * n1 + m[0, 2] * m[1, 2],
        -(m[1, 0] * m[2, 0] + nbar * m[1, 1] * m[2, 1]),
        np.square(m[2, 0]) + nbar * np.square(m[2, 1]),
        m[0, 1] * m[2, 1] * n1 + m[0, 2] * m[2, 2],
    )


@given(
    c=st.one_of(st.none(), rate_pairs),
    xs=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=40),
    nbar=st.floats(0.0, 1e6),
)
@settings(max_examples=60, deadline=None)
def test_moment_route_on_a_stack_is_the_two_step_route(bench_couplings, c, xs, nbar):
    c = bench_couplings if c is None else c
    ts = np.asarray(xs) / c.oscillation
    g = coeffs_from_propagator(c, nbar, ts)
    assert g.time.tobytes() == ts.tobytes() and g.nbar == nbar and g.couplings is None
    for i, t in enumerate(ts):
        for f, want in zip(COEFF_FIELDS, _two_step_moments(c, nbar, t)):
            assert getattr(g, f)[i].tobytes() == np.float64(want).tobytes(), f


def test_propagator_inverse_is_negative_time(moderate):
    m = propagator(moderate, 0.4)
    minv = propagator(moderate, -0.4)
    assert m @ minv == pytest.approx(np.eye(3), abs=1e-13)


@given(c=rate_pairs, x=st.floats(0.0, 6.2), nbar=st.floats(0.0, 50.0))
@settings(max_examples=80, deadline=None)
def test_moment_route_matches_closed_form(c, x, nbar):
    t = x / c.oscillation
    va = _vector(coeffs_analytic(c, nbar, t))
    vm = _vector(coeffs_from_propagator(c, nbar, t))
    assert np.abs(va - vm).max() / max(1.0, np.abs(va).max()) < 1e-12


def test_sign_map_fixed_by_first_derivatives(moderate):
    # d/dt at t=0: stokes_mirror' = parametric*(1 + nbar),
    # mirror_anti' = -beam_splitter*nbar, everything else zero to O(t).
    nbar = 4.0
    h = 1e-8
    g = coeffs_analytic(moderate, nbar, h)
    assert g.stokes_mirror / h == pytest.approx(
        moderate.parametric * (1.0 + nbar), rel=1e-6
    )
    assert g.mirror_anti / h == pytest.approx(
        -moderate.beam_splitter * nbar, rel=1e-6
    )
    assert abs(g.stokes_anti) < 1e-13


def test_closed_form_satisfies_moment_odes(moderate):
    # Central finite differences of the closed form vs the ODE right-hand
    # side, across one full period.
    nbar = 2.0
    h = 1e-7
    for t in np.linspace(0.05, period(moderate), 23):
        lhs = (
            _vector(coeffs_analytic(moderate, nbar, t + h))
            - _vector(coeffs_analytic(moderate, nbar, t - h))
        ) / (2.0 * h)
        rhs = _moment_derivatives(
            _vector(coeffs_analytic(moderate, nbar, t)),
            moderate.parametric,
            moderate.beam_splitter,
        )
        assert np.abs(lhs - rhs).max() < 1e-6


# Coefficients and fidelity at the fidelity peak t* of the bundled config,
# frozen once with 80-digit mpmath: M = expm(K t*) for
# K = [[0, p, 0], [p, 0, -b], [0, b, 0]] with p the float parametric rate and
# b = sqrt(p^2 + o^2) for the float oscillation rate o (so M oscillates at
# exactly the float o), the moments assembled from the rows of M as in
# coeffs_from_propagator, and F = 1/(2 + stokes_n + mirror_n + 2 stokes_mirror
# - (stokes_anti - mirror_anti)^2/(anti_n + 1)).  No trigonometric form of
# coeffs_analytic enters.  t* is optimal_time's float at the time of freezing.
# [DERIVED]
PEAK_GOLDEN = [
    (0.0, 0.018833517748816937, (
        "2.9999978436928635662585805191178557875356540712078",
        "1.9999984218467005580156062248225053619167313279643",
        "-2.8284252464535689665520391724585116799511658019803",
        "1.4142125955951385847093231633121134346640519490079",
        "0.99999942184616300824297429429535042561892274324355",
        "1.9999988827693785180533906588380953864145548331968",
    ), "0.85355334639909710841993718961647847913090320282674"),
    (1.0, 0.018833517748803638, (
        "4.9999963187699040321276951577929542986960706677371",
        "2.9999974395906746466704468893453020271726011412146",
        "-4.2426375751250759552444501761627723276430361017655",
        "2.8284252715465131601367546558732586566227161193453",
        "2.9999988791792293854572482684476522715234695265225",
        "3.9999978489743716575595399541186683189964241836813",
    ), "0.85355334639909710707284570171284287069871900737681"),
    (10.0, 0.018833517748803638, (
        "22.99998227508120400661719344140920148883184770547",
        "11.999988439595446492214970609836773081590234374413",
        "-16.970548307331441729174763475729817148046249552874",
        "15.556339185730959732967781849300818468823079289381",
        "20.999993835485757514402222831572428407241613331057",
        "21.999988305282723209575016715329703367000641174505",
    ), "0.85355334639909708374548877294782001810659379120194"),
    (1000.0, 0.018833517748803638, (
        "2002.9984374693242012004620046391963924037673218561",
        "1001.9989984401203495021125798638985890675298900263",
        "-1417.0407288500316768615092264281047473923997291749",
        "1415.6268697460200827443807731263323978108630279933",
        "2000.9994390292038516983494247752978033362374318298",
        "2001.9989384992013939312774604485435586474645101651",
    ), "0.85355334639909707861859714025220960381120517817042"),
]


@pytest.mark.parametrize("nbar, t_star, coeffs, fidelity", PEAK_GOLDEN)
def test_closed_form_at_fidelity_peak_golden(bench_couplings, nbar, t_star, coeffs, fidelity):
    # Rounding x = oscillation * t* to float64 moves 2 pi - x (~1e-3 here)
    # by ~4e-13 relative; 1e-11 leaves room for that and nothing more.
    g = coeffs_analytic(bench_couplings, nbar, t_star)
    gold = np.array([float(v) for v in coeffs])
    assert np.max(np.abs(_vector(g) - gold) / np.maximum(1.0, np.abs(gold))) < 1e-11
    (f,) = fidelity_curves(bench_couplings, (nbar,), t_star)
    assert f == pytest.approx(float(fidelity), rel=1e-14)


def test_invalid_inputs(moderate):
    with pytest.raises(DomainError):
        coeffs_analytic(moderate, -0.5, 1.0)
    with pytest.raises(DomainError):
        coeffs_analytic(moderate, 1.0, -1.0)
    # The closed forms reject a time they cannot evaluate; the propagator
    # takes negative times (M(-t) inverts M(t)), but no NaN or infinity.
    for bad_time in (math.nan, math.inf, -math.inf):
        for call in (
            lambda: coeffs_analytic(moderate, 0.0, bad_time),
            lambda: coeffs_analytic(moderate, 1.0, [0.5, bad_time]),
            lambda: propagator(moderate, bad_time),
            lambda: propagator(moderate, np.array([-0.5, bad_time])),
            lambda: fidelity_curves(moderate, (0.0,), [bad_time]),
        ):
            with pytest.raises(DomainError):
                call()
    # A finite time whose phase oscillation*t overflows is named, not turned
    # into NaN behind an overflow warning.
    for call in (
        lambda: coeffs_analytic(moderate, 0.0, 1e308),
        lambda: coeffs_analytic(moderate, 1.0, [0.5, 1e308]),
        lambda: propagator(moderate, 1e308),
        lambda: propagator(moderate, np.array([-1e308, 0.5])),
        lambda: fidelity_curves(moderate, (0.0,), [0.5, 1e308]),
    ):
        with pytest.raises(DomainError, match=r"float64 range, got -?1e\+308"):
            call()
