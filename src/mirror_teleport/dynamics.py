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

Two independent routes to the coefficients are provided, both taking
(couplings, nbar, time) like every function of ``protocol``:

* ``coeffs_analytic`` -- the closed trigonometric forms, regrouped so that
  no subtractive cancellation occurs (every 1 - cos x is 2 sin^2(x/2));
* ``coeffs_from_propagator`` -- second moments assembled from the rows of
  the Heisenberg propagator, which ``propagator`` returns as a plain
  (..., 3, 3) array.

The closed forms are certified against the moment ODE system
(``_moment_derivatives``) without integrating it: the system is linear, so
forms that start at y(0) = (0, nbar, 0, 0, 0, 0) and whose slopes
(``_moment_slopes``, closed forms too) equal its right-hand side at every
time are its solution.  ``cli``'s ``ode-vs-analytic`` gate checks both.

The closed forms, their slopes and the propagator take the rate ratios and
the trig of x = oscillation*t, and ``coeffs_analytic`` its input checks,
from ``protocol``.  No output reaches ``coeffs_analytic``, since ``protocol``
conditions on (couplings, nbar, time): it stays as the subject gate 2
certifies and the input of the benchmark's ``fidelity_coherent`` check.
"""

from __future__ import annotations

import numpy as np

from . import protocol
from ._record import record
from .optomech import Couplings, _check_nbar


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
    a float subclass.  ``couplings`` records the rates of a closed-form state
    and is None for the propagator route's outputs and hand-built sets.  Only
    ``protocol.fidelity_coherent`` reads it, and both go together.
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


def coeffs_analytic(
    couplings: Couplings, nbar: float, time
) -> GaussianCoeffs:
    """Closed-form coefficients at time(s) ``time``.

    Cancellation-safe regrouping (r, q, x and omc as in ``protocol``):

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
    r, q, t, s, c, omc = protocol._checked_trig(couplings, (nbar,), time)
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


def _moment_slopes(couplings: Couplings, nbar: float, time) -> np.ndarray:
    """d/dx of :func:`coeffs_analytic`'s six forms, along a last axis: (n, 6)
    over n times.

    With R = 1 + r^2 omc + nbar cos x (r, q, x and omc as there):

        d stokes_n/dx      = 2 r^2 sin x R
        d mirror_n/dx      = 2 sin x cos x (r^2 - nbar)
        d stokes_mirror/dx = r cos x R + r sin^2 x (r^2 - nbar)
        d mirror_anti/dx   = -q (cos x (r^2 omc + nbar cos x)
                                 + sin^2 x (r^2 - nbar))
        d anti_n/dx        = 2 q^2 sin x (r^2 omc + nbar cos x)
        d stokes_anti/dx   = r q sin x (1 + 2 r^2 omc + 2 nbar cos x)

    d/dt is oscillation * d/dx.
    """
    r, q, _, s, c, omc = protocol._ratios_and_trig(couplings, time)
    big_r = 1.0 + r**2 * omc + nbar * c
    gap = r**2 - nbar
    lift = r**2 * omc + nbar * c
    return np.stack(
        [
            2.0 * r**2 * s * big_r,
            2.0 * s * c * gap,
            r * c * big_r + r * np.square(s) * gap,
            -q * (c * lift + np.square(s) * gap),
            2.0 * q**2 * s * lift,
            r * q * s * (1.0 + 2.0 * r**2 * omc + 2.0 * nbar * c),
        ],
        axis=-1,
    )


def propagator(couplings: Couplings, time) -> np.ndarray:
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
    r, q, t, s, c, omc = protocol._ratios_and_trig(couplings, time)
    entries = (
        1.0 + r**2 * omc, r * s, -r * q * omc,
        r * s, c, -q * s,
        r * q * omc, q * s, 1.0 - q**2 * omc,
    )
    return np.stack(entries, axis=-1).reshape(t.shape + (3, 3))


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


def coeff_rows(g: GaussianCoeffs) -> np.ndarray:
    """The six coefficients of ``g`` along a last axis: (n, 6) over n times."""
    return np.stack([getattr(g, f) for f in COEFF_FIELDS], axis=-1)


def state_scale(states: np.ndarray) -> np.ndarray:
    """max(1, max_j |y_j|) of coefficient rows (..., 6), shape (..., 1): the
    state's size at each time, by which every check "relative to the state"
    divides; per entry, a coefficient passing through zero would divide by ~0."""
    return np.maximum(1.0, np.abs(states).max(axis=-1, keepdims=True))


def coeffs_from_propagator(couplings: Couplings, nbar: float, time) -> GaussianCoeffs:
    """Second oracle: coefficients at time(s) ``time`` as second moments built
    from the rows of :func:`propagator`.

    The initial moments are <m^ m> = nbar with everything else vacuum.  The
    cross-moment sign map (frozen by derivative matching at a reference time
    of 1e-3 oscillation radians, see tests) is

        stokes_mirror = +<s^(t) m^(t)>,  mirror_anti = -<m^(t) a(t)>,
        stokes_anti   = +<s^(t) a^(t)>.

    An array of times gives arrays over them, each entry bit for bit that of
    its time alone (np.square as in :func:`coeffs_analytic`).
    """
    _check_nbar(nbar)
    m = np.moveaxis(propagator(couplings, time), (-2, -1), (0, 1))
    n1 = nbar + 1.0
    return GaussianCoeffs(
        stokes_n=np.square(m[0, 1]) * n1 + np.square(m[0, 2]),
        mirror_n=np.square(m[1, 0]) + nbar * np.square(m[1, 1]),
        stokes_mirror=m[0, 1] * m[1, 1] * n1 + m[0, 2] * m[1, 2],
        mirror_anti=-(m[1, 0] * m[2, 0] + nbar * m[1, 1] * m[2, 1]),
        anti_n=np.square(m[2, 0]) + nbar * np.square(m[2, 1]),
        stokes_anti=m[0, 1] * m[2, 1] * n1 + m[0, 2] * m[2, 2],
        time=np.asarray(time, dtype=float)[()],
        nbar=nbar,
    )
