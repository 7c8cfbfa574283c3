"""The self-verification gates that ``verify`` runs, and their tolerances.

Only ``verify`` loads this module, so no other command compiles or imports
it.  It never imports ``mirror_teleport.cli``: under ``python -m
mirror_teleport.cli`` that module runs as ``__main__``, and importing it by
name would load a second copy.  Every function of the package is reached
through its module's attribute, so a function patched or wrapped there
after this module loads is the one a gate calls.

The gates loop over their times in plain Python, on Python floats.  Gates
2 and 4-7 share gate 2's times and run as one pass over them: each time
is checked once and gets its ratios and trig (``protocol._checked_trig``),
its factored parts and its propagator rows once; the kernels that the
public functions wrap (``dynamics._analytic``, ``_slopes``, ``_rows`` and
``_moments``, ``protocol._FactoredParts`` and
``gaussian_core._physicality``) then evaluate them at each nbar, every
gate at once.  So each formula has one source, the gates' work per nbar
value is the arithmetic that depends on nbar, and the gates keep nothing
across times but each gate's worst defect: their memory does not grow
with the nbar values.  The fidelity kernel, which ``curve`` also
evaluates on numpy arrays, takes its sines and cosines from ``math`` for
a float time, so neither this module nor any that it loads imports numpy.
A Python float overflows to inf without raising, a division by an
infinite term hides it, and ``max()`` skips a NaN, so each gate checks
that every value it computes is finite, the divisors included, and raises
DomainError at the first that is not.
"""

from __future__ import annotations

import math

from . import dynamics, gaussian_core, optomech, protocol
from .errors import DomainError
from .gaussian_core import CorrelationMatrix4, CovMatrix2
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

#: (sqrt(5) - 1)/2: its multiples modulo 1 fill [0, 1) evenly.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _verdict(name: str, defect, floor: float = 0.0):
    tolerance = TOLERANCES[name] + floor
    return name, float(defect), tolerance, bool(defect <= tolerance)


def _finite(name: str, *groups) -> None:
    """DomainError unless every value of each tuple in ``groups`` is finite.

    A sum with an inf or a NaN term is not finite, so a finite sum of the
    tuples' sums clears every value at once; only a sum that is not finite,
    which finite values give where it overflows, needs each value checked."""
    if not math.isfinite(sum(map(sum, groups))):
        for values in groups:
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
    times to its own, and gates 4-7 take gate 2's times.  Gate 4 evaluates
    ``physicality_defect``'s closed form on the channel of
    ``protocol.conditional_correlation`` at every time and nbar, from its
    three entries, so no gate solves an eigenproblem; it is the only check
    that the channel is physical, and gate 7 teleports through the same
    channels.  Gate 5 compares the coefficient formula for n_eff on the
    propagator's moments with the factored n_eff, relative to gate 2's
    closed forms.

    Gates 2 and 4-7 run as one pass over gate 2's times, at each time's
    nbar values in turn, and gate 3 takes one pair of propagators at a
    time, so a gate keeps only its worst defect.  At each (time, nbar) gate
    2 checks the state first, and with it E1 = anti_n + 1, which the later
    gates divide by.  A value that leaves float64 raises DomainError from
    the gate that meets it first in that order.
    """
    osc, p, b = couplings.oscillation, couplings.parametric, couplings.beam_splitter

    # 1. couplings internal consistency
    rel, floor = optomech.oscillation_consistency(p, b, osc)
    yield _verdict("couplings-consistency", rel, floor)

    # 2. the closed forms start at the initial state, exactly, and their
    #    slopes oscillation dy/dx match the ODE's f(y), relative to the
    #    fastest rate, b > p, and the state, over one period, at both peak
    #    times and at 40 more times within 5/r in x of the heterodyne peak
    #    (pi at most, so no time is negative): 41 evenly spaced offsets
    #    without the centre, which is the peak itself
    t_period = optomech.period(couplings)
    grid = _linspace(0.0, t_period, 101)
    t_het, t_no_het = (protocol._peak(couplings, h)[0] for h in (True, False))
    half_width = min(5.0 * osc / p, math.pi)
    offsets = _linspace(-half_width, half_width, 41)
    del offsets[20]
    ode_times = [*grid, t_het, t_no_het, *(t_het + offset / osc for offset in offsets)]
    for nbar in nbar_values:
        optomech._check_nbar(nbar)
    gin = CovMatrix2.vacuum()
    ode = physical = identity = route = noise = 0.0
    for i, t in enumerate(ode_times):
        # Each time's ratios and trig, checked once for every nbar and gate.
        trig = protocol._checked_trig(couplings, (), t)
        parts, rows = protocol._FactoredParts(trig), dynamics._rows(trig)
        teleported = i >= len(grid) or i % 10 == 0
        for k, nbar in enumerate(nbar_values):
            y = dynamics._analytic(trig, nbar)
            slopes = dynamics._slopes(trig, nbar)
            rhs = dynamics._moment_derivatives(y, p, b)
            size = _size(y)
            residual = max([abs(osc * s - f) for s, f in zip(slopes, rhs)])
            divisor = b * size
            # As _finite checks, but without its call where all is finite.
            if not math.isfinite(sum(y) + sum(slopes) + sum(rhs) + residual + divisor):
                _finite("ode-vs-analytic", y, slopes, rhs, (residual, divisor))
            ode = max(ode, residual / divisor)
            if i == 0 and y != (0.0, nbar, 0.0, 0.0, 0.0, 0.0):
                ode = math.inf

            # 4. conditioned-state physicality, relative to max(1, |G|max),
            #    so physical states at large nbar pass; and 5. n_eff by the
            #    coefficient formula, from the propagator's moments, against
            #    the factored n_eff, relative to the state; d (d / E1), as
            #    d^2 overflows first.  Unclipped: a negative n_eff is part of
            #    the gap
            chan = parts.channel(nbar)
            defect = gaussian_core._physicality(*chan)
            m = dynamics._moments(rows, nbar)
            n_eff = parts.noise(nbar)
            stokes_n, mirror_n, stokes_mirror, mirror_anti, anti_n, stokes_anti = m
            d = stokes_anti - mirror_anti
            bracket = 1.0 + stokes_n + mirror_n + 2.0 * stokes_mirror
            e1 = anti_n + 1.0
            gap = abs(bracket - d * (d / e1) - n_eff)
            if not math.isfinite(sum(chan) + defect + sum(m) + n_eff + e1 + gap):
                _finite("conditional-physicality", chan, (defect,))
                _finite("fidelity-identity", m, (n_eff, e1, gap))
            physical = max(physical, defect / _size(chan))
            identity = max(identity, gap / size)

            # 6. moment route vs closed form, relative to the state, for the
            #    first two nbar
            if k < 2:
                gap = max([abs(u - v) for u, v in zip(y, m)])
                _finite("moment-route", (gap,))
                route = max(route, gap / size)

            # 7. teleporting the vacuum adds n_eff, in X and in P, at every
            #    tenth time of the grid, both peak times and every time near
            #    the heterodyne peak, through gate 4's channel
            if teleported:
                out = protocol.teleport_covariance(CorrelationMatrix4(*chan), gin)
                added = (out.xx - gin.xx, out.pp - gin.pp)
                gaps = [abs(a - n_eff) for a in added]
                _finite("teleport-noise", added, gaps)
                noise = max(noise, max(gaps) / max(1.0, n_eff))
    yield _verdict("ode-vs-analytic", ode)

    # 3. propagator structure: the metric of each, the group law on 51 pairs,
    #    at 100 times of a golden-ratio sequence, which fills [0, T) evenly,
    #    and both peak times.  The group law's residual is a product, so its
    #    float64 floor scales with the sizes of the factors; M(t1 + t2) ~ I
    #    near a revival even where they are ~r^2.
    times = [t_period * ((k * _GOLDEN) % 1.0) for k in range(1, 101)] + [t_het, t_no_het]
    half = len(times) // 2
    metric = group = 0.0
    for t1, t2 in zip(times[:half], times[half:]):
        m1, m2 = dynamics.propagator(couplings, t1), dynamics.propagator(couplings, t2)
        sizes = []
        for m in (m1, m2):
            entries = (*m[0], *m[1], *m[2])
            size = _size(entries)
            defect = gaussian_core.symplectic_defect(m)
            _finite("propagator-metric", entries, (size * size, defect))
            metric = max(metric, defect)
            sizes.append(size)
        m12 = dynamics.propagator(couplings, t1 + t2)
        residual = max(
            abs(m12[i][j] - (m1[i][0] * m2[0][j] + m1[i][1] * m2[1][j] + m1[i][2] * m2[2][j]))
            for i in range(3)
            for j in range(3)
        )
        divisor = sizes[0] * sizes[1]
        _finite("propagator-group", *m12, (residual, divisor))
        group = max(group, residual / divisor)
    yield _verdict("propagator-metric", metric)
    yield _verdict("propagator-group", group)

    yield _verdict("conditional-physicality", physical)
    yield _verdict("fidelity-identity", identity)
    yield _verdict("moment-route", route)
    yield _verdict("teleport-noise", noise)
