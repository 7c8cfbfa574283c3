"""The self-verification gates that ``verify`` runs, and their tolerances.

Only ``verify`` loads this module, so no other command compiles or imports
it.  It never imports ``mirror_teleport.cli``: under ``python -m
mirror_teleport.cli`` that module runs as ``__main__``, and importing it by
name would load a second copy.  Every function of the package is reached
through its module's attribute, so a function patched or wrapped there
after this module loads is the one a gate calls.

The gates loop over their times in plain Python and call the package's
closed forms at each (nbar, time) with Python floats, which is all they
take: the fidelity kernel, which ``curve`` also evaluates on numpy arrays,
takes its sines and cosines from ``math`` for a float time.  So neither
this module nor any that it loads imports numpy.  A Python float overflows to inf
without raising, a division by an infinite term hides it, and ``max()``
skips a NaN, so each gate checks that every value it computes is finite,
the divisors included, and raises DomainError at the first that is not.
"""

from __future__ import annotations

import math
from operator import attrgetter

from . import dynamics, gaussian_core, optomech, protocol
from .errors import DomainError
from .gaussian_core import CovMatrix2
from .optomech import Couplings

#: Self-verification tolerances, by gate name.  A defect relative to the
#: state is divided at each time by the state's size, max(1, max_j |y_j|)
#: over its six coefficients; the teleportation noise is relative to
#: max(1, n_eff).
TOLERANCES = {
    "couplings-consistency": 1e-12,
    "ode-vs-analytic": 1e-8,
    "propagator-metric": 1e-10,
    "propagator-group": 1e-10,
    "conditional-physicality": 1e-10,
    "fidelity-identity": 1e-12,
    "moment-route": 1e-10,
    "teleport-noise": 1e-12,
}

#: The six coefficients of a ``GaussianCoeffs``, as a tuple.
_coefficients = attrgetter(*dynamics.COEFF_FIELDS)

#: (sqrt(5) - 1)/2: its multiples modulo 1 fill [0, 1) evenly.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _verdict(name: str, defect, floor: float = 0.0):
    tolerance = TOLERANCES[name] + floor
    return name, float(defect), tolerance, bool(defect <= tolerance)


def _finite(name: str, *values) -> None:
    """DomainError unless every one of ``values`` is finite."""
    if not all(map(math.isfinite, values)):
        raise DomainError(f"the {name} gate leaves the float64 range")


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``np.linspace(start, stop, num)`` as a list of floats, bit for bit:
    numpy's own arithmetic on each row index, as ``cli._time_rows`` does it.
    The gates' steps do not underflow (a period is at least 2 pi / 1.8e308,
    and r < q < 1.4e154 bounds 5/r below), so numpy's branch for a step of
    0 does not arise."""
    step = (stop - start) / (num - 1)
    rows = [i * step + start for i in range(num)]
    rows[-1] = stop
    return rows


def _size(values) -> float:
    """max(1, max_j |v_j|): a state's or a matrix's size, by which a check
    relative to it divides; per entry, one passing through zero would
    divide by ~0.  At least 1 even where a NaN among ``values``, which the
    caller checks, is skipped."""
    return max(1.0, *map(abs, values))


def run(couplings: Couplings, nbar_values):
    """Yield (gate_name, measured_defect, tolerance, passed) for each gate.

    The gates test ``couplings`` at ``nbar_values`` against ``TOLERANCES``.
    ``Couplings.__post_init__`` already enforces the bound of the first gate,
    so that gate reports its margin.  This is the one implementation of the
    verification invariants.  Gate 2 certifies the closed forms without
    integrating the moment ODE: it is linear, so forms that start at its
    initial state and whose slopes match its right-hand side at every time
    are its solution, and the gate checks both for every nbar, the fidelity
    peaks included.  Gates 3-7 reach the peaks too: gate 3 adds both peak
    times to its own, and gates 4-7 take gate 2's times.  Gate 4 calls
    ``physicality_defect`` on ``protocol.conditional_correlation``'s channel
    at every time and nbar, in closed form from its three entries, so no
    gate solves an eigenproblem; it is the only check that the channel is
    physical, and gate 7 teleports through the same channels.  Gate 5
    compares the coefficient formula for n_eff on the propagator's moments
    with the factored n_eff, relative to gate 2's closed forms.  A value
    that leaves float64 raises DomainError from the gate that meets it.
    """
    osc, p, b = couplings.oscillation, couplings.parametric, couplings.beam_splitter

    # 1. couplings internal consistency
    rel, floor = optomech.oscillation_consistency(p, b, osc)
    yield _verdict("couplings-consistency", rel, floor)

    # 2. the closed forms start at the initial state, exactly, and their
    #    slopes oscillation dy/dx match the ODE's f(y), relative to the
    #    fastest rate and the state, over one period, at both peak times and
    #    at 40 more times within 5/r in x of the heterodyne peak (pi at most,
    #    so no time is negative): 41 evenly spaced offsets without the
    #    centre, which is the peak itself
    name = "ode-vs-analytic"
    t_period = optomech.period(couplings)
    grid = _linspace(0.0, t_period, 101)
    t_het, t_no_het = (protocol._peak(couplings, h)[0] for h in (True, False))
    half_width = min(5.0 * osc / p, math.pi)
    offsets = _linspace(-half_width, half_width, 41)
    del offsets[20]
    ode_times = [*grid, t_het, t_no_het, *(t_het + offset / osc for offset in offsets)]
    rate = max(p, b)
    analytic, sizes = [], []  # per nbar, per time: the six coefficients, their size
    worst = 0.0
    for nbar in nbar_values:
        states, state_sizes = [], []
        for t in ode_times:
            y = _coefficients(dynamics.coeffs_analytic(couplings, nbar, t))
            slopes = dynamics._moment_slopes(couplings, nbar, t)
            rhs = dynamics._moment_derivatives(y, p, b)
            size = _size(y)
            residual = max([abs(osc * s - f) for s, f in zip(slopes, rhs)])
            divisor = rate * size
            _finite(name, *y, *slopes, *rhs, residual, divisor)
            worst = max(worst, residual / divisor)
            states.append(y)
            state_sizes.append(size)
        if states[0] != (0.0, nbar, 0.0, 0.0, 0.0, 0.0):
            worst = math.inf
        analytic.append(states)
        sizes.append(state_sizes)
    yield _verdict(name, worst)

    # 3. propagator structure: the metric of each, the group law on 51 pairs,
    #    at 100 times of a golden-ratio sequence, which fills [0, T) evenly,
    #    and both peak times
    name = "propagator-metric"
    times = [t_period * ((k * _GOLDEN) % 1.0) for k in range(1, 101)] + [t_het, t_no_het]
    props, prop_sizes = [], []
    worst = 0.0
    for t in times:
        m = dynamics.propagator(couplings, t)
        entries = [*m[0], *m[1], *m[2]]
        size = _size(entries)
        defect = gaussian_core.symplectic_defect(m)
        _finite(name, *entries, size * size, defect)
        worst = max(worst, defect)
        props.append(m)
        prop_sizes.append(size)
    yield _verdict(name, worst)
    # The residual is a product, so its float64 floor scales with the sizes of
    # the factors; M(t1 + t2) ~ I near a revival even where they are ~r^2.
    name = "propagator-group"
    half = len(times) // 2
    worst = 0.0
    for t1, t2, m1, m2, size1, size2 in zip(
        times[:half], times[half:], props[:half], props[half:], prop_sizes, prop_sizes[half:]
    ):
        m12 = dynamics.propagator(couplings, t1 + t2)
        residual = max(
            abs(m12[i][j] - (m1[i][0] * m2[0][j] + m1[i][1] * m2[1][j] + m1[i][2] * m2[2][j]))
            for i in range(3)
            for j in range(3)
        )
        divisor = size1 * size2
        _finite(name, *m12[0], *m12[1], *m12[2], residual, divisor)
        worst = max(worst, residual / divisor)
    yield _verdict(name, worst)

    # 4. conditioned-state physicality at gate 2's times, relative to
    #    max(1, |G|max), so physical states at large nbar pass; the only
    #    check of the channel's physicality.  A channel is finite by its
    #    type, and gate 2 has checked its divisor E1 = anti_n + 1.  Gate 7
    #    teleports through these channels
    name = "conditional-physicality"
    channels = []  # per nbar, per time
    worst = 0.0
    for nbar in nbar_values:
        row = [protocol.conditional_correlation(couplings, nbar, t) for t in ode_times]
        for chan in row:
            defect = gaussian_core.physicality_defect(chan)
            _finite(name, defect)
            worst = max(worst, defect / _size((chan.a, chan.b, chan.c)))
        channels.append(row)
    yield _verdict(name, worst)

    # 5. n_eff by the coefficient formula, from the propagator's moments,
    #    against the factored n_eff, relative to the state; d (d / E1), as
    #    d^2 overflows first.  Unclipped: a negative n_eff is part of the gap
    name = "fidelity-identity"
    moments, n_effs = [], []  # per nbar, per time
    worst = 0.0
    for nbar, state_sizes in zip(nbar_values, sizes):
        moment_row, n_row = [], []
        for t, size in zip(ode_times, state_sizes):
            m = _coefficients(dynamics.coeffs_from_propagator(couplings, nbar, t))
            n_eff = protocol.effective_occupation(couplings, nbar, t)
            stokes_n, mirror_n, stokes_mirror, mirror_anti, anti_n, stokes_anti = m
            d = stokes_anti - mirror_anti
            bracket = 1.0 + stokes_n + mirror_n + 2.0 * stokes_mirror
            e1 = anti_n + 1.0
            gap = abs(bracket - d * (d / e1) - n_eff)
            _finite(name, *m, n_eff, e1, gap)
            worst = max(worst, gap / size)
            moment_row.append(m)
            n_row.append(n_eff)
        moments.append(moment_row)
        n_effs.append(n_row)
    yield _verdict(name, worst)

    # 6. moment route vs closed form, relative to the state, for the first
    #    two nbar
    name = "moment-route"
    worst = 0.0
    for states, moment_row, state_sizes in zip(analytic[:2], moments, sizes):
        for y, m, size in zip(states, moment_row, state_sizes):
            gap = max(abs(u - v) for u, v in zip(y, m))
            _finite(name, gap)
            worst = max(worst, gap / size)
    yield _verdict(name, worst)

    # 7. teleporting the vacuum adds n_eff, in X and in P, at every tenth
    #    time of the grid, both peak times and every time near the
    #    heterodyne peak, through gate 4's channels
    name = "teleport-noise"
    teleported = [*range(0, len(grid), 10), *range(len(grid), len(ode_times))]
    gin = CovMatrix2.vacuum()
    worst = 0.0
    for row, n_row in zip(channels, n_effs):
        for i in teleported:
            out = protocol.teleport_covariance(row[i], gin)
            n = n_row[i]
            for added in (out.xx - gin.xx, out.pp - gin.pp):
                gap = abs(added - n)
                _finite(name, added, gap)
                worst = max(worst, gap / max(1.0, n))
    yield _verdict(name, worst)
