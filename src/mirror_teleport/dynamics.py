"""Exact time evolution of the three-mode Gaussian state.

The normally ordered characteristic function of the Stokes/mirror/anti-Stokes
system stays Gaussian and is fully described by six real coefficients.  In
terms of second moments (all taken at time t, initial state = vacuum for the
optical modes and a thermal state with ``nbar`` phonons for the mirror):

    stokes_n     = <s^ s>          mirror_n   = <m^ m>     anti_n = <a^ a>
    stokes_mirror = <s^ m^>        mirror_anti = -<m^ a>   stokes_anti = <s^ a^>

where s, m, a destroy the Stokes, mirror and anti-Stokes excitations.  The
sign map between cross moments and coefficients was frozen once by matching
first derivatives of the closed form near t = 0 and is asserted by the
moment-route oracle in the test suite.

Three independent routes to the coefficients are provided:

* ``coeffs_analytic`` -- the closed trigonometric forms, regrouped so that
  no subtractive cancellation occurs (every 1 - cos x is 2 sin^2(x/2));
* ``coeffs_ode``      -- fixed-step RK4 integration of the moment ODE system;
* ``coeffs_from_propagator`` -- second moments assembled from the Heisenberg
  propagator rows.

A caution for stiff parameter sets: the moment ODE system is strongly
non-normal (transient amplification ~ (parametric/oscillation)^4), so for
parametric/oscillation >> 1 the RK4 route can only be certified over times
of order a few hundred parametric periods; the built-in step-doubling check
raises if certification fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationError
from .gaussian_core import PropagatorMatrix
from .optomech import Couplings


@dataclass(frozen=True)
class GaussianCoeffs:
    """The six coefficients of the three-mode Gaussian characteristic function.

    Fields may be scalars or (for vectorized evaluation) equal-length numpy
    arrays over a time grid.  ``couplings`` records the rates that generated
    the state; downstream code uses them for cancellation-safe evaluation
    and they are None only for hand-built coefficient sets.
    """

    stokes_n: float | np.ndarray
    mirror_n: float | np.ndarray
    stokes_mirror: float | np.ndarray
    mirror_anti: float | np.ndarray
    anti_n: float | np.ndarray
    stokes_anti: float | np.ndarray
    time: float | np.ndarray
    nbar: float
    couplings: Couplings | None = None


def period(couplings: Couplings) -> float:
    """Revival period of the closed dynamics, 2*pi/oscillation."""
    return 2.0 * math.pi / couplings.oscillation


def coeffs_analytic(
    couplings: Couplings, nbar: float, time
) -> GaussianCoeffs:
    """Closed-form coefficients at time(s) ``time``.

    Cancellation-safe regrouping (r = parametric/oscillation,
    q = beam_splitter/oscillation, x = oscillation*t, omc = 1 - cos x
    computed as 2 sin^2(x/2)):

        stokes_n      = r^2 (2 omc + r^2 omc^2 + nbar sin^2 x)
        mirror_n      = r^2 sin^2 x + nbar cos^2 x
        stokes_mirror = r sin x (1 + r^2 omc + nbar cos x)
        mirror_anti   = -q sin x (r^2 omc + nbar cos x)
        anti_n        = q^2 (r^2 omc^2 + nbar sin^2 x)
        stokes_anti   = r q (omc (1 + r^2 omc) + nbar sin^2 x)

    These are algebraically identical to the raw closed forms but contain
    no subtraction of like-sized terms, which matters because r^4 can
    exceed 1e12 for near-degenerate rates.
    """
    if nbar < 0:
        raise DomainError(f"nbar must be >= 0, got {nbar!r}")
    t = np.asarray(time, dtype=float)
    if np.any(t < 0):
        raise DomainError("time must be >= 0")
    r = couplings.parametric / couplings.oscillation
    q = couplings.beam_splitter / couplings.oscillation
    x = couplings.oscillation * t
    s = np.sin(x)
    c = np.cos(x)
    omc = 2.0 * np.sin(0.5 * x) ** 2
    coeffs = GaussianCoeffs(
        stokes_n=r**2 * (2.0 * omc + r**2 * omc**2 + nbar * s**2),
        mirror_n=r**2 * s**2 + nbar * c**2,
        stokes_mirror=r * s * (1.0 + r**2 * omc + nbar * c),
        mirror_anti=-q * s * (r**2 * omc + nbar * c),
        anti_n=q**2 * (r**2 * omc**2 + nbar * s**2),
        stokes_anti=r * q * (omc * (1.0 + r**2 * omc) + nbar * s**2),
        time=t if t.ndim else float(t),
        nbar=nbar,
        couplings=couplings,
    )
    if t.ndim:
        return coeffs
    return GaussianCoeffs(
        *(float(getattr(coeffs, f)) for f in (
            "stokes_n", "mirror_n", "stokes_mirror",
            "mirror_anti", "anti_n", "stokes_anti")),
        time=float(t), nbar=nbar, couplings=couplings,
    )


def propagator(couplings: Couplings, time: float) -> PropagatorMatrix:
    """Heisenberg propagator M(t) on (stokes, mirror^dag, anti_stokes^dag).

    M(t) = exp(K t) with K = [[0, p, 0], [p, 0, -b], [0, b, 0]]
    (p = parametric, b = beam_splitter), which evaluates to

        [[1 + p^2 omc / O^2,  p sin(Ot)/O,  -p b omc / O^2],
         [p sin(Ot)/O,        cos(Ot),      -b sin(Ot)/O ],
         [p b omc / O^2,      b sin(Ot)/O,  1 - b^2 omc / O^2]]

    with O = oscillation and omc = 1 - cos(Ot).  K anti-commutes with the
    commutator metric diag(+1,-1,-1), so M preserves it exactly and forms a
    one-parameter group.
    """
    p = couplings.parametric
    b = couplings.beam_splitter
    osc = couplings.oscillation
    x = osc * time
    s = math.sin(x)
    c = math.cos(x)
    omc = 2.0 * math.sin(0.5 * x) ** 2
    m = np.array(
        [
            [1.0 + p * p * omc / osc**2, p * s / osc, -p * b * omc / osc**2],
            [p * s / osc, c, -b * s / osc],
            [p * b * omc / osc**2, b * s / osc, 1.0 - b * b * omc / osc**2],
        ]
    )
    return PropagatorMatrix(m, float(time))


def _moment_derivatives(y, parametric: float, beam_splitter: float):
    """Right-hand side of the moment ODE system.

    Obtained by substituting the Gaussian ansatz into the characteristic
    function's equation of motion and matching monomials; cross-checked at
    t -> 0, where d(stokes_mirror)/dt = parametric * (1 + nbar) must match
    the closed form's first derivative.
    """
    sn, mn, sm, ma, an, sa = y
    p, b = parametric, beam_splitter
    return np.array(
        [
            2.0 * p * sm,
            2.0 * p * sm + 2.0 * b * ma,
            p * (1.0 + sn + mn) - b * sa,
            -p * sa + b * (an - mn),
            -2.0 * b * ma,
            b * sm - p * ma,
        ]
    )


def _rk4_integrate(couplings: Couplings, nbar: float, times: np.ndarray, dt_max: float):
    """Classic fixed-step RK4 from t = 0 through each requested time."""
    y = np.zeros(6)
    y[1] = nbar
    p, b = couplings.parametric, couplings.beam_splitter
    out = np.empty((len(times), 6))
    t = 0.0
    for i, target in enumerate(times):
        while target - t > 1e-15 * target:
            h = min(dt_max, target - t)
            k1 = _moment_derivatives(y, p, b)
            k2 = _moment_derivatives(y + 0.5 * h * k1, p, b)
            k3 = _moment_derivatives(y + 0.5 * h * k2, p, b)
            k4 = _moment_derivatives(y + h * k3, p, b)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        out[i] = y
    return out


def coeffs_ode(
    couplings: Couplings,
    nbar: float,
    time,
    dt_max: float,
    doubling_tol: float = 1e-10,
) -> GaussianCoeffs:
    """RK4 oracle for :func:`coeffs_analytic`.

    Integrates the moment ODE system with fixed step ``dt_max``, then again
    with half the step; if the two disagree by more than ``doubling_tol``
    (relative to max(1, |value|) per entry) an :class:`IntegrationError` is
    raised with diagnostics.  ``time`` may be a scalar or an ascending array.
    """
    if nbar < 0:
        raise DomainError(f"nbar must be >= 0, got {nbar!r}")
    if not dt_max > 0:
        raise DomainError(f"dt_max must be > 0, got {dt_max!r}")
    t = np.atleast_1d(np.asarray(time, dtype=float))
    if np.any(np.diff(t) < 0):
        raise DomainError("time array must be ascending")
    full = _rk4_integrate(couplings, nbar, t, dt_max)
    half = _rk4_integrate(couplings, nbar, t, dt_max / 2.0)
    err = np.abs(full - half) / np.maximum(1.0, np.abs(half))
    if err.max() > doubling_tol:
        raise IntegrationError(
            "step-doubling check failed: scaled step-halving change "
            f"{err.max():.3e} > {doubling_tol:.1e} at t = "
            f"{t[err.max(axis=1).argmax()]:.6e}; reduce dt_max or shorten the "
            "integration window (the system amplifies rounding for "
            "parametric/oscillation >> 1)"
        )
    scalar = np.ndim(time) == 0
    cols = half.T
    fields = [float(cc[0]) if scalar else cc for cc in cols]
    return GaussianCoeffs(
        *fields,
        time=float(t[0]) if scalar else t,
        nbar=nbar,
        couplings=couplings,
    )


def coeffs_from_propagator(prop: PropagatorMatrix, nbar: float) -> GaussianCoeffs:
    """Second oracle: coefficients as second moments built from propagator rows.

    The initial moments are <m^ m> = nbar with everything else vacuum.  The
    cross-moment sign map (frozen by derivative matching at a reference time
    of 1e-3 oscillation radians, see tests) is

        stokes_mirror = +<s^(t) m^(t)>,  mirror_anti = -<m^(t) a(t)>,
        stokes_anti   = +<s^(t) a^(t)>.
    """
    if nbar < 0:
        raise DomainError(f"nbar must be >= 0, got {nbar!r}")
    m = prop.matrix
    n1 = nbar + 1.0
    stokes_n = m[0, 1] ** 2 * n1 + m[0, 2] ** 2
    mirror_n = m[1, 0] ** 2 + nbar * m[1, 1] ** 2
    anti_n = m[2, 0] ** 2 + nbar * m[2, 1] ** 2
    stokes_mirror = m[0, 1] * m[1, 1] * n1 + m[0, 2] * m[1, 2]
    mirror_anti = -(m[1, 0] * m[2, 0] + nbar * m[1, 1] * m[2, 1])
    stokes_anti = m[0, 1] * m[2, 1] * n1 + m[0, 2] * m[2, 2]
    return GaussianCoeffs(
        stokes_n=float(stokes_n),
        mirror_n=float(mirror_n),
        stokes_mirror=float(stokes_mirror),
        mirror_anti=float(mirror_anti),
        anti_n=float(anti_n),
        stokes_anti=float(stokes_anti),
        time=prop.time,
        nbar=nbar,
    )
