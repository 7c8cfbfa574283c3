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

The closed forms and the propagator take the rate ratios and the trig of
x = oscillation*t from one helper, which also rejects a NaN or infinite
time and a finite one whose phase x overflows; ``protocol``'s factored
forms use it too.

A caution for stiff parameter sets: the moment ODE system is strongly
non-normal (transient amplification ~ (parametric/oscillation)^4), so for
parametric/oscillation >> 1 the RK4 route can only be certified over times
of order a few hundred parametric periods; the built-in step-doubling check
raises if certification fails.
"""

from __future__ import annotations

import numpy as np

from ._record import record
from .errors import DomainError, IntegrationError
from .gaussian_core import PropagatorMatrix
from .optomech import Couplings, period  # noqa: F401  (period re-exported)


#: The six coefficient fields of :class:`GaussianCoeffs`, in field order.
COEFF_FIELDS = (
    "stokes_n",
    "mirror_n",
    "stokes_mirror",
    "mirror_anti",
    "anti_n",
    "stokes_anti",
)


@record
class GaussianCoeffs:
    """The six coefficients of the three-mode Gaussian characteristic function.

    Fields may be scalars or (for vectorized evaluation) equal-length numpy
    arrays over a time grid; for a single time the routes give numpy float64,
    a float subclass.  ``couplings`` records the rates of a closed-form state,
    which downstream code then evaluates through cancellation-safe factored
    forms.  It is None for the oracles' outputs and hand-built
    sets, which are conditioned from their own values.
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


def _ratios_and_trig(couplings: Couplings, time):
    """(r, q, t, sin x, cos x, omc) of the closed forms at time(s) ``time``.

    r = parametric/oscillation and q = beam_splitter/oscillation, t is
    ``time`` as a float array and x = oscillation*t; omc = 1 - cos x is
    computed as 2 sin^2(x/2), which keeps its full relative precision near
    the revivals.  A NaN or infinite time, or a finite one whose phase x
    overflows, raises DomainError naming it; the sign of the time is left
    to the caller.
    """
    t = np.asarray(time, dtype=float)
    # The oscillation rate is finite and > 0, so x is finite exactly when t
    # is and its product does not overflow.
    with np.errstate(over="ignore"):
        x = couplings.oscillation * t
    if not np.all(np.isfinite(x)):
        bad = float(t[~np.isfinite(x)][0])
        raise DomainError(
            f"time must be finite, with oscillation*t in the float64 range, got {bad!r}"
        )
    # np.square, not **: a numpy scalar's ** 2 calls pow(), which can round
    # differently from an array's x * x, and a single time must match a grid.
    omc = 2.0 * np.square(np.sin(0.5 * x))
    r = couplings.parametric / couplings.oscillation
    q = couplings.beam_splitter / couplings.oscillation
    return r, q, t, np.sin(x), np.cos(x), omc


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
    r, q, t, s, c, omc = _ratios_and_trig(couplings, time)
    if np.any(t < 0):
        raise DomainError("time must be >= 0")
    stokes_n = r**2 * (2.0 * omc + r**2 * np.square(omc) + nbar * np.square(s))
    mirror_n = r**2 * np.square(s) + nbar * np.square(c)
    stokes_mirror = r * s * (1.0 + r**2 * omc + nbar * c)
    mirror_anti = -q * s * (r**2 * omc + nbar * c)
    anti_n = q**2 * (r**2 * np.square(omc) + nbar * np.square(s))
    stokes_anti = r * q * (omc * (1.0 + r**2 * omc) + nbar * np.square(s))
    # By position: a record binds keywords more slowly.
    return GaussianCoeffs(
        stokes_n, mirror_n, stokes_mirror, mirror_anti, anti_n, stokes_anti, t[()], nbar, couplings
    )


def propagator(couplings: Couplings, time) -> PropagatorMatrix:
    """Heisenberg propagator M(t) on (stokes, mirror^dag, anti_stokes^dag).

    M(t) = exp(K t) with K = [[0, p, 0], [p, 0, -b], [0, b, 0]]
    (p = parametric, b = beam_splitter), which evaluates to

        [[1 + r^2 omc,  r sin x,  -r q omc  ],
         [r sin x,      cos x,    -q sin x  ],
         [r q omc,      q sin x,  1 - q^2 omc]]

    in the ratios r = p/O, q = b/O (O = oscillation), x = O t and
    omc = 1 - cos x, as in :func:`coeffs_analytic`; p^2/O^2 formed from the
    rates would underflow for tiny ones.  K anti-commutes with the
    commutator metric diag(+1,-1,-1), so M preserves it exactly and forms a
    one-parameter group.  An array of n times gives a stack of shape
    (n, 3, 3); each matrix is bit for bit that of its time alone.
    """
    r, q, t, s, c, omc = _ratios_and_trig(couplings, time)
    entries = (
        1.0 + r**2 * omc, r * s, -r * q * omc,
        r * s, c, -q * s,
        r * q * omc, q * s, 1.0 - q**2 * omc,
    )
    m = np.stack(entries, axis=-1).reshape(t.shape + (3, 3))
    return PropagatorMatrix(m, t[()])


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


def _rk4_step(a: np.ndarray, h: float, halved: bool) -> np.ndarray:
    """Increment of one step h of the schedule: D(h), or two steps of h/2."""
    if not halved:
        return _rk4_increment(a, h)
    d = _rk4_increment(a, h / 2.0)
    return _compose(d, d)


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


def _rk4_integrate(
    couplings: Couplings, nbar: float, times: np.ndarray, dt_max: float, halved: bool = False
):
    """Classic fixed-step RK4 from t = 0 through each requested time.

    Each interval between requested times is k steps of ``dt_max`` and at
    most one short step h, so z advances over the whole interval at once,
    z + E z with E = (I + D(h))(I + D(dt_max))^k - I.  E is built once per
    distinct (k, h), of which uniform times give a few.  ``halved`` takes
    every step of that schedule, the short one included, as two of half
    its length.
    """
    a = _generator(couplings.parametric, couplings.beam_splitter)
    squares = [_rk4_step(a, dt_max, halved)]
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
            increments[k, h] = _compose(e, _rk4_step(a, h, halved)) if h else e
        z += increments[k, h].dot(z)
        out[i] = z[:6]
        t = target
    return out


def coeff_rows(g: GaussianCoeffs) -> np.ndarray:
    """The six coefficients of ``g`` along a last axis: (n, 6) over n times."""
    return np.stack([getattr(g, f) for f in COEFF_FIELDS], axis=-1)


def state_scale(states: np.ndarray) -> np.ndarray:
    """max(1, max_j |y_j|) of coefficient rows (..., 6), shape (..., 1): the
    state's size at each time, by which every check "relative to the state"
    divides; per entry, a coefficient passing through zero would divide by ~0."""
    return np.maximum(1.0, np.abs(states).max(axis=-1, keepdims=True))


def carried_scale(states: np.ndarray) -> np.ndarray:
    """Running maximum of :func:`state_scale` over rows of states (n, 6) at
    ascending times, shape (n, 1): the scale of the rounding that the RK4
    route, which propagates one state, still carries after the ~r^4
    mid-period excursion, when the state has shrunk again."""
    return np.maximum.accumulate(state_scale(states))


def coeffs_ode(
    couplings: Couplings,
    nbar: float,
    time,
    dt_max: float,
    doubling_tol: float = 1e-10,
) -> GaussianCoeffs:
    """RK4 oracle for :func:`coeffs_analytic`.

    Integrates the moment ODE system with fixed step ``dt_max``, then again
    with every step of that schedule halved, the short step before a
    requested time included, so the check tests the step however the times
    are spaced; if the two disagree by more than ``doubling_tol``
    (relative to :func:`carried_scale`, the largest state carried so far)
    an :class:`IntegrationError` is raised with diagnostics.  ``time`` may
    be a scalar or an ascending array.

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
    half = _rk4_integrate(couplings, nbar, t, dt_max, halved=True)
    err = np.abs(full - half) / carried_scale(half)
    if err.max() > doubling_tol:
        raise IntegrationError(
            "step-doubling check failed: scaled step-halving change "
            f"{err.max():.3e} > {doubling_tol:.1e} at t = "
            f"{t[err.max(axis=1).argmax()]:.6e}; reduce dt_max or shorten the "
            "integration window (the system amplifies rounding for "
            "parametric/oscillation >> 1)"
        )
    cols = half.T if np.ndim(time) else half[0]
    # Without couplings, conditioning reads these values, not the closed forms.
    return GaussianCoeffs(*cols, time=t if np.ndim(time) else t[0], nbar=nbar)


def coeffs_from_propagator(prop: PropagatorMatrix, nbar: float) -> GaussianCoeffs:
    """Second oracle: coefficients as second moments built from propagator rows.

    The initial moments are <m^ m> = nbar with everything else vacuum.  The
    cross-moment sign map (frozen by derivative matching at a reference time
    of 1e-3 oscillation radians, see tests) is

        stokes_mirror = +<s^(t) m^(t)>,  mirror_anti = -<m^(t) a(t)>,
        stokes_anti   = +<s^(t) a^(t)>.

    A stack gives arrays over its times, each entry bit for bit that of its
    propagator alone (np.square as in :func:`coeffs_analytic`).
    """
    if nbar < 0:
        raise DomainError(f"nbar must be >= 0, got {nbar!r}")
    m = np.moveaxis(prop.matrix, (-2, -1), (0, 1))
    n1 = nbar + 1.0
    return GaussianCoeffs(
        stokes_n=np.square(m[0, 1]) * n1 + np.square(m[0, 2]),
        mirror_n=np.square(m[1, 0]) + nbar * np.square(m[1, 1]),
        stokes_mirror=m[0, 1] * m[1, 1] * n1 + m[0, 2] * m[1, 2],
        mirror_anti=-(m[1, 0] * m[2, 0] + nbar * m[1, 1] * m[2, 1]),
        anti_n=np.square(m[2, 0]) + nbar * np.square(m[2, 1]),
        stokes_anti=m[0, 1] * m[2, 1] * n1 + m[0, 2] * m[2, 2],
        time=prop.time,
        nbar=nbar,
    )
