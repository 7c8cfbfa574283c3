"""The self-verification gates that ``verify`` runs, and their tolerances.

Only ``verify`` loads this module, so no other command compiles or imports
it.  It never imports ``mirror_teleport.cli``: under ``python -m
mirror_teleport.cli`` that module runs as ``__main__``, and importing it by
name would load a second copy.  Every function of the package is reached
through its module's attribute, so a function patched or wrapped there
after this module loads is the one a gate calls.
"""

from __future__ import annotations

import math

import numpy as np

from . import dynamics, gaussian_core, optomech, protocol
from .gaussian_core import CorrelationMatrix4, CovMatrix2
from .optomech import Couplings

#: Self-verification tolerances, by gate name.  A defect relative to the
#: state is divided at each time by ``dynamics.state_scale``; the
#: teleportation noise is relative to max(1, n_eff).
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


def _verdict(name: str, defect, floor: float = 0.0):
    tolerance = TOLERANCES[name] + floor
    return name, float(defect), tolerance, bool(defect <= tolerance)


def _scaled_gap(ref, other):
    """Largest |ref - other| over the six coefficients, relative to the
    state of ``ref`` at each time."""
    a = dynamics.coeff_rows(ref)
    return (abs(a - dynamics.coeff_rows(other)) / dynamics.state_scale(a)).max()


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
    times to its own, and gates 4-7 take gate 2's times.  Gates 4 and 7
    call ``physicality_defect`` and ``teleport_covariance`` on one stack of
    ``protocol.conditional_correlation``'s matrices over every time and
    nbar: gate 4 is the only check that they are physical, in closed form
    from the standard form's three entries, so no gate solves an
    eigenproblem; a channel that leaves float64 raises DomainError there.
    Gate 5 compares the coefficient formula for n_eff on the propagator's
    moments with the factored n_eff, relative to gate 2's closed forms.
    """
    coeff_rows, state_scale = dynamics.coeff_rows, dynamics.state_scale
    t_period = optomech.period(couplings)

    # 1. couplings internal consistency
    rel, floor = optomech.oscillation_consistency(
        couplings.parametric, couplings.beam_splitter, couplings.oscillation
    )
    yield _verdict("couplings-consistency", rel, floor)

    # 2. the closed forms start at the initial state, exactly, and their
    #    slopes oscillation dy/dx match the ODE's f(y), relative to the
    #    fastest rate and the state, over one period, at both peak times and
    #    at 40 more times within 5/r in x of the heterodyne peak (pi at most,
    #    so no time is negative): 41 evenly spaced offsets without the
    #    centre, which is the peak itself
    grid = np.linspace(0.0, t_period, 101)
    t_het, t_no_het = (protocol._peak(couplings, h)[0] for h in (True, False))
    half_width = min(5.0 * couplings.oscillation / couplings.parametric, math.pi)
    offsets = np.delete(np.linspace(-half_width, half_width, 41), 20)
    near_peak = t_het + offsets / couplings.oscillation
    ode_times = np.concatenate([grid, [t_het, t_no_het], near_peak])
    analytic = [dynamics.coeffs_analytic(couplings, nbar, ode_times) for nbar in nbar_values]
    p, b = couplings.parametric, couplings.beam_splitter
    worst = 0.0
    for nbar, g in zip(nbar_values, analytic):
        y = coeff_rows(g)
        if not np.array_equal(y[0], [0.0, nbar, 0.0, 0.0, 0.0, 0.0]):
            worst = math.inf
        slopes = couplings.oscillation * dynamics._moment_slopes(couplings, nbar, ode_times)
        residual = np.abs(slopes - dynamics._moment_derivatives(y.T, p, b).T)
        worst = max(worst, np.max(residual / (max(p, b) * state_scale(y))))
    yield _verdict("ode-vs-analytic", worst)

    # 3. propagator structure: the metric of each, the group law on 51 pairs,
    #    at 100 times of a golden-ratio sequence, which fills [0, T) evenly,
    #    and both peak times
    golden = t_period * ((np.arange(1, 101) * ((math.sqrt(5.0) - 1.0) / 2.0)) % 1.0)
    times = np.append(golden, [t_het, t_no_het])
    props = dynamics.propagator(couplings, times)
    yield _verdict("propagator-metric", gaussian_core.symplectic_defect(props).max())
    # The residual is a product, so its float64 floor scales with the sizes of
    # the factors; M(t1 + t2) ~ I near a revival even where they are ~r^2.
    half = len(times) // 2
    m1, m2 = props[:half], props[half:]
    m12 = dynamics.propagator(couplings, times[:half] + times[half:])
    size = np.maximum(1.0, np.abs(props).max(axis=(-2, -1)))
    group = np.abs(m12 - m1 @ m2).max(axis=(-2, -1)) / (size[:half] * size[half:])
    yield _verdict("propagator-group", group.max())

    # 4. conditioned-state physicality at gate 2's times, relative to
    #    max(1, |G|max), so physical states at large nbar pass; the only
    #    check of the channel's physicality.  Gate 7 reuses these channel
    #    matrices and gate 5's n_eff
    channel, occupation = protocol.conditional_correlation, protocol.effective_occupation
    mats = np.stack([channel(couplings, nbar, ode_times).matrix for nbar in nbar_values])
    defects = gaussian_core.physicality_defect(CorrelationMatrix4(mats))
    scale = np.maximum(1.0, np.abs(mats).max(axis=(-2, -1)))
    yield _verdict("conditional-physicality", np.max(defects / scale))

    # 5. n_eff by the coefficient formula, from the propagator's moments,
    #    against the factored n_eff, relative to the state; d (d / E1), as
    #    d^2 overflows first.  Unclipped: a negative n_eff is part of the gap
    moments = [dynamics.coeffs_from_propagator(couplings, nbar, ode_times) for nbar in nbar_values]
    n_effs = np.stack([occupation(couplings, nbar, ode_times) for nbar in nbar_values])
    worst_fid = 0.0
    for g, m, n_eff in zip(analytic, moments, n_effs):
        d = m.stokes_anti - m.mirror_anti
        bracket = 1.0 + m.stokes_n + m.mirror_n + 2.0 * m.stokes_mirror
        gap = np.abs(bracket - d * (d / (m.anti_n + 1.0)) - n_eff)
        worst_fid = max(worst_fid, np.max(gap / state_scale(coeff_rows(g))[:, 0]))
    yield _verdict("fidelity-identity", worst_fid)

    # 6. moment route vs closed form
    worst_mom = max(_scaled_gap(g, mom) for g, mom in zip(analytic[:2], moments))
    yield _verdict("moment-route", worst_mom)

    # 7. teleporting the vacuum adds n_eff, in X and in P, at every tenth
    #    time of the grid, both peak times and every time near the
    #    heterodyne peak; each row is bit for bit that of its time alone,
    #    and gate 4 checks those channels' physicality
    teleported = np.r_[0 : len(grid) : 10, len(grid) : len(ode_times)]
    gin = CovMatrix2.vacuum()
    out = protocol.teleport_covariance(CorrelationMatrix4(mats[:, teleported]), gin).matrix
    added = out.diagonal(0, -2, -1) - gin.matrix.diagonal()
    n = n_effs[:, teleported, None]
    yield _verdict("teleport-noise", np.max(np.abs(added - n) / np.maximum(1.0, n)))
