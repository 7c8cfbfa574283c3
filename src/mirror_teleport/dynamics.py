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
  the Heisenberg propagator, which ``propagator`` returns as three tuples
  of floats.

The closed forms are certified against the moment ODE system
(``_moment_derivatives``) without integrating it: the system is linear, so
forms that start at y(0) = (0, nbar, 0, 0, 0, 0) and whose slopes
(``_moment_slopes``, closed forms too) equal its right-hand side at every
time are its solution.  ``verify``'s ``ode-vs-analytic`` gate checks both.

Each formula is written once, as a kernel of one time's trig tuple
(r, q, t, sin x, cos x, omc), which ``protocol._checked_trig`` returns:
``_analytic(trig, nbar)``, ``_slopes(trig, nbar)``, ``_rows(trig)`` and
``_moments(rows, nbar)``.  The public functions wrap them: each takes one
time, an int or a float, as a Python float (``protocol._float_time``
raises DomainError naming any other type), makes its trig, with the sines
from ``math``, and returns floats.  ``verify``'s gates make each time's
trig once and call the kernels at every nbar.  This module imports no
numpy.  A float's overflow is not signalled: a coefficient past float64
comes back inf or NaN, which the gates check.  No output reaches
``coeffs_analytic``, since ``protocol`` conditions on (couplings, nbar,
time): it stays as the public form of the closed forms gate 2 certifies
and the input of the benchmark's ``fidelity_coherent`` check.
"""

from __future__ import annotations

from . import protocol
from ._record import record
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


@record
class GaussianCoeffs:
    """The six coefficients of the three-mode Gaussian characteristic function.

    Every field but ``couplings`` is a float, at one time.  ``couplings``
    records the rates of a closed-form state and is None for the propagator
    route's outputs and hand-built sets.  Only ``protocol.fidelity_coherent``
    reads it, and both go together.
    """

    stokes_n: float
    mirror_n: float
    stokes_mirror: float
    mirror_anti: float
    anti_n: float
    stokes_anti: float
    time: float
    nbar: float
    couplings: Couplings | None = None


def _analytic(trig, nbar) -> tuple[float, ...]:
    """The six closed forms of :func:`coeffs_analytic` at one trig tuple
    (r, q, t, sin x, cos x, omc) of ``protocol._checked_trig``."""
    r, q, _, s, c, omc = trig
    r2, s2, omc2 = r**2, s * s, omc * omc
    return (
        r2 * (2.0 * omc + r2 * omc2 + nbar * s2),
        r2 * s2 + nbar * (c * c),
        r * s * (1.0 + r2 * omc + nbar * c),
        -q * s * (r2 * omc + nbar * c),
        q**2 * (r2 * omc2 + nbar * s2),
        r * q * (omc * (1.0 + r2 * omc) + nbar * s2),
    )


def coeffs_analytic(couplings: Couplings, nbar: float, time: float) -> GaussianCoeffs:
    """Closed-form coefficients at time ``time``.

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
    trig = protocol._checked_trig(couplings, (nbar,), protocol._float_time(time))
    # By position: a record binds keywords more slowly.
    return GaussianCoeffs(*_analytic(trig, nbar), trig[2], nbar, couplings)


def _slopes(trig, nbar) -> tuple[float, ...]:
    """:func:`_moment_slopes` at one trig tuple, as :func:`_analytic` takes it."""
    r, q, _, s, c, omc = trig
    r2, s2 = r**2, s * s
    big_r = 1.0 + r2 * omc + nbar * c
    gap = r2 - nbar
    lift = r2 * omc + nbar * c
    return (
        2.0 * r2 * s * big_r,
        2.0 * s * c * gap,
        r * c * big_r + r * s2 * gap,
        -q * (c * lift + s2 * gap),
        2.0 * q**2 * s * lift,
        r * q * s * (1.0 + 2.0 * r2 * omc + 2.0 * nbar * c),
    )


def _moment_slopes(couplings: Couplings, nbar: float, time: float) -> tuple[float, ...]:
    """d/dx of :func:`coeffs_analytic`'s six forms, a tuple of six floats.

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
    return _slopes(protocol._checked_trig(couplings, (nbar,), protocol._float_time(time)), nbar)


def _rows(trig) -> tuple[tuple[float, float, float], ...]:
    """:func:`propagator`'s three rows at one trig tuple, as :func:`_analytic` takes it."""
    r, q, _, s, c, omc = trig
    return (
        (1.0 + r**2 * omc, r * s, -r * q * omc),
        (r * s, c, -q * s),
        (r * q * omc, q * s, 1.0 - q**2 * omc),
    )


def propagator(couplings: Couplings, time: float) -> tuple[tuple[float, float, float], ...]:
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
    one-parameter group.  Returns the three rows, as tuples of floats.
    """
    return _rows(protocol._ratios_and_trig(couplings, protocol._float_time(time)))


def _moment_derivatives(y, parametric: float, beam_splitter: float) -> tuple[float, ...]:
    """Right-hand side of the moment ODE system at the six floats ``y``.

    Obtained by substituting the Gaussian ansatz into the characteristic
    function's equation of motion and matching monomials; cross-checked at
    t -> 0, where d(stokes_mirror)/dt = parametric * (1 + nbar) must match
    the closed form's first derivative.
    """
    sn, mn, sm, ma, an, sa = y
    p, b = parametric, beam_splitter
    return (
        2.0 * p * sm,
        2.0 * p * sm + 2.0 * b * ma,
        p * (1.0 + sn + mn) - b * sa,
        -p * sa + b * (an - mn),
        -2.0 * b * ma,
        b * sm - p * ma,
    )


def _moments(rows, nbar) -> tuple[float, ...]:
    """:func:`coeffs_from_propagator`'s six second moments from the three
    rows of :func:`propagator`, whose check of nbar it leaves to its caller."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = rows
    n1 = nbar + 1.0
    return (
        m01 * m01 * n1 + m02 * m02,  # stokes_n
        m10 * m10 + nbar * (m11 * m11),  # mirror_n
        m01 * m11 * n1 + m02 * m12,  # stokes_mirror
        -(m10 * m20 + nbar * m11 * m21),  # mirror_anti
        m20 * m20 + nbar * (m21 * m21),  # anti_n
        m01 * m21 * n1 + m02 * m22,  # stokes_anti
    )


def coeffs_from_propagator(couplings: Couplings, nbar: float, time: float) -> GaussianCoeffs:
    """Second oracle: coefficients at time ``time`` as second moments built
    from the rows of :func:`propagator`.

    The initial moments are <m^ m> = nbar with everything else vacuum.  The
    cross-moment sign map (frozen by derivative matching at a reference time
    of 1e-3 oscillation radians, see tests) is

        stokes_mirror = +<s^(t) m^(t)>,  mirror_anti = -<m^(t) a(t)>,
        stokes_anti   = +<s^(t) a^(t)>.
    """
    trig = protocol._checked_trig(couplings, (nbar,), protocol._float_time(time))
    return GaussianCoeffs(*_moments(_rows(trig), nbar), trig[2], nbar, None)
