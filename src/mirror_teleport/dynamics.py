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
* ``coeffs_ode``      -- fixed-step RK4 integration of the moment ODE system,
  which is affine in the moments: with z = (moments, 1), one RK4 step is
  z + D(h) z for a 7x7 increment matrix D(h), so the steps between two
  requested times compose into one interval increment E and z advances
  by z + E z once per requested time;
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


#: The six coefficient fields of :class:`GaussianCoeffs`, in field order.
COEFF_FIELDS = (
    "stokes_n",
    "mirror_n",
    "stokes_mirror",
    "mirror_anti",
    "anti_n",
    "stokes_anti",
)


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
        *(float(getattr(coeffs, f)) for f in COEFF_FIELDS),
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


def _generator(parametric: float, beam_splitter: float) -> np.ndarray:
    """7x7 augmented generator A with d/dt (y, 1) = A (y, 1).

    Probed from :func:`_moment_derivatives` at zero (the constant column) and
    at the six unit vectors, so the ODE stays written in one place.
    """
    a = np.zeros((7, 7))
    a[:6, 6] = _moment_derivatives(np.zeros(6), parametric, beam_splitter)
    for j, e in enumerate(np.eye(6)):
        a[:6, j] = _moment_derivatives(e, parametric, beam_splitter) - a[:6, 6]
    return a


def _rk4_increment(a: np.ndarray, h: float) -> np.ndarray:
    """D(h) = hA(I + hA/2(I + hA/3(I + hA/4))): one RK4 step is z + D(h) z."""
    eye = np.eye(7)
    ha = h * a
    return ha @ (eye + ha / 2.0 @ (eye + ha / 3.0 @ (eye + ha / 4.0)))


def _compose(e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Increment of applying increment e1, then e2: (I + e2)(I + e1) - I."""
    return e1 + e2 + e2 @ e1


def _rk4_power(squares: list, k: int) -> np.ndarray:
    """(I + D)^k - I by binary powering in increment form.

    ``squares[j]`` holds (I + D)^(2^j) - I; missing squares are appended, so
    one list serves every k of an integration.
    """
    e = np.zeros((7, 7))
    j = 0
    while k:
        if j == len(squares):
            squares.append(_compose(squares[-1], squares[-1]))
        if k & 1:
            e = _compose(e, squares[j])
        k >>= 1
        j += 1
    return e


def _rk4_integrate(couplings: Couplings, nbar: float, times: np.ndarray, dt_max: float):
    """Classic fixed-step RK4 from t = 0 through each requested time.

    Each interval between requested times is k steps of ``dt_max`` and at
    most one short step h, so z advances over the whole interval at once,
    z + E z with E = (I + D(h))(I + D(dt_max))^k - I.  E is built once per
    distinct (k, h), of which uniform times give a few.
    """
    a = _generator(couplings.parametric, couplings.beam_splitter)
    squares = [_rk4_increment(a, dt_max)]
    increments = {}
    z = np.zeros(7)
    z[1] = nbar
    z[6] = 1.0
    out = np.empty((len(times), 6))
    t = 0.0
    for i, target in enumerate(times):
        k, h = divmod(target - t, dt_max)
        k, h = int(k), (h if h > 1e-15 * target else 0.0)
        if (k, h) not in increments:
            e = _rk4_power(squares, k)
            increments[k, h] = _compose(e, _rk4_increment(a, h)) if h else e
        z += increments[k, h].dot(z)
        out[i] = z[:6]
        t = target
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
    (relative to the state, max(1, max_j |y_j|) at each time) an
    :class:`IntegrationError` is raised with diagnostics.  ``time`` may be a
    scalar or an ascending array.

    Each step is the classic four-stage RK4 step written as one matrix
    product: the right-hand side is A (y, 1) for the 7x7 generator A, so the
    step is z + D(h) z with D(h) = hA(I + hA/2(I + hA/3(I + hA/4))).  The
    step schedule is fixed: each interval between requested times is k steps
    of ``dt_max`` and at most one short step h.  Its k steps compose into
    E = (I + D)^k - I, built by binary powering from the squares
    (I + D)^(2^j) - I, and the short step joins it the same way; z then
    advances by z + E z, so the cost is one matrix-vector product per
    requested time plus about 2 log2(k) 7x7 products per distinct (k, h).
    Everything stays in increment form, composing e1 then e2 as
    e1 + e2 + e2 e1: forming I + D first rounds away the low bits of D.  On
    the near-degenerate bundled rates, powering I + D and subtracting I
    raises the step-doubling change from ~2e-11 to ~7e-8; applying E as
    (I + E) z instead of z + E z raises the gap to the closed form from
    ~9e-11 to ~4e-10.
    """
    if nbar < 0:
        raise DomainError(f"nbar must be >= 0, got {nbar!r}")
    if not dt_max > 0:
        raise DomainError(f"dt_max must be > 0, got {dt_max!r}")
    t = np.atleast_1d(np.asarray(time, dtype=float))
    if not np.all(np.isfinite(t) & (t >= 0)):
        raise DomainError("time must be finite and >= 0")
    if np.any(np.diff(t) < 0):
        raise DomainError("time array must be ascending")
    full = _rk4_integrate(couplings, nbar, t, dt_max)
    half = _rk4_integrate(couplings, nbar, t, dt_max / 2.0)
    # Scaled per entry, a moment passing through zero (mirror_anti ~ sin x)
    # would divide an error of the state's size, ~nbar, by ~0.
    err = np.abs(full - half) / np.maximum(1.0, np.abs(half).max(axis=1, keepdims=True))
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
