import math

# The CLI module loads before numpy, as in every CLI process, so that the
# suite's numpy runs OpenBLAS on one thread too.
from mirror_teleport.cli import bundled_config_path, load_config  # isort: skip

import numpy as np
import pytest
from hypothesis import strategies as st

from mirror_teleport import Couplings, compute_couplings, dynamics, period, protocol
from mirror_teleport.dynamics import COEFF_FIELDS  # noqa: F401  (re-exported)

#: The bundled config's thermal occupations.
NBAR_SET = (0.0, 1.0, 10.0, 1000.0)

#: Well-separated rates: beam_splitter/parametric in [1.01, 3], so the ratio
#: r = parametric/oscillation runs from 0.35 to 7.
rate_pairs = st.tuples(
    st.floats(0.1, 50.0), st.floats(1.01, 3.0)
).map(lambda pb: Couplings.from_rates(pb[0], pb[0] * pb[1]))


@pytest.fixture(scope="session")
def moderate():
    """Well-separated rates: every route is benign in float64."""
    return Couplings.from_rates(2.0, 3.0)


@pytest.fixture(scope="session")
def bench_config():
    return load_config(bundled_config_path())


@pytest.fixture(scope="session")
def bench_couplings(bench_config):
    """Near-degenerate rates (ratio ~1414) from the bundled benchmark config."""
    return compute_couplings(bench_config.params)


def peak_times(c):
    """The closed-form heterodyne and heterodyne-free peak times, and the
    half-width min(5/r, pi) in x of the times the gates take around the
    first."""
    t_het, t_no_het = protocol._peak(c, True)[0], protocol._peak(c, False)[0]
    return t_het, t_no_het, min(5.0 * c.oscillation / c.parametric, math.pi)


def assert_reaches_the_peaks(c, times):
    """``times`` holds t = 0, both peak times and at least 41 times that
    span the half-width either side of the heterodyne peak."""
    t_het, t_no_het, half_width = peak_times(c)
    assert times[0] == 0.0
    assert t_het in times and t_no_het in times
    offsets = np.unique(c.oscillation * (times - t_het))
    near = offsets[np.abs(offsets) <= half_width * (1.0 + 1e-9)]
    assert len(near) >= 41
    assert near.min() == pytest.approx(-half_width)
    assert near.max() == pytest.approx(half_width)


def gate_times(c):
    """Gate 2's times, which gates 4-7 share, built with numpy: one period's
    101-point grid, both peak times and 40 more times near the heterodyne
    peak."""
    t_het, t_no_het, half_width = peak_times(c)
    near = t_het + np.delete(np.linspace(-half_width, half_width, 41), 20) / c.oscillation
    return np.concatenate([np.linspace(0.0, period(c), 101), [t_het, t_no_het], near])


def propagator_gate_times(c):
    """Gate 3's 102 times, built with numpy: 100 of the golden-ratio
    sequence over one period, then both peak times."""
    golden = period(c) * ((np.arange(1, 101) * ((math.sqrt(5.0) - 1.0) / 2.0)) % 1.0)
    return np.append(golden, peak_times(c)[:2])


def standard_form(a, b, c):
    """The 4x4 matrix of the standard form (a, b, c) over (X_1, P_1, X_2, P_2)."""
    m = np.zeros((4, 4))
    m[0, 0] = m[1, 1] = a
    m[2, 2] = m[3, 3] = b
    m[0, 2] = m[2, 0] = c
    m[1, 3] = m[3, 1] = -c
    return m


def standard_form_triple(m, rel=0.0):
    """(a, b, c) = (G11, G33, G13) of the 4x4 matrix ``m``, as floats.

    ValueError for a NaN or infinite entry, checked first (a NaN, unequal to
    itself, would fail the form check under a misleading message), and for
    a matrix off the standard form by more than ``rel`` times its largest
    entry, an asymmetric one included: a matrix compared with a
    ``CorrelationMatrix4`` must be the triple's form, not agree with it on
    three entries only."""
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise ValueError("non-finite entry")
    a, b, c = float(m[0, 0]), float(m[2, 2]), float(m[0, 2])
    if np.abs(m - standard_form(a, b, c)).max() > rel * np.abs(m).max():
        raise ValueError("not symmetric and in standard form")
    return a, b, c


def heterodyne_channel(c, nbar, t):
    """The conditioned Stokes-mirror correlation matrix by general Gaussian
    conditioning, from the propagator alone: the generic reference for
    ``protocol.conditional_correlation``.

    The rows of M map (s, m^dag, a^dag), so the destruction operators
    evolve as o(t) = sum_k A_ok b_k + B_ok b_k^dag over (s, m, a), with real
    A and B; then X_o(t) = (A + B) X and P_o(t) = (A - B) P.  From the
    vacuum optical modes and the thermal mirror, the six-mode quadrature
    covariance over (X_s, P_s, X_m, P_m, X_a, P_a) is S G0 S^T, and Alice's
    heterodyne of the anti-Stokes mode leaves its Schur complement with the
    vacuum added to the measured block.  Only the propagator's being real
    keeps X and P apart; the equal variances of X and P and the -c in
    (P, P) come out of the arithmetic, not from the standard form."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = dynamics.propagator(c, t)
    a = np.array([[m00, 0.0, 0.0], [0.0, m11, m12], [0.0, m21, m22]])
    b = np.array([[0.0, m01, m02], [m10, 0.0, 0.0], [m20, 0.0, 0.0]])
    s = np.zeros((6, 6))
    s[0::2, 0::2] = a + b
    s[1::2, 1::2] = a - b
    g0 = np.diag([0.5, 0.5, nbar + 0.5, nbar + 0.5, 0.5, 0.5])
    g = s @ g0 @ s.T
    keep, measured = g[:4, :4], g[4:, 4:] + 0.5 * np.eye(2)
    return keep - g[:4, 4:] @ np.linalg.solve(measured, g[4:, :4])


def closed_forms_on_symbols(r, x, nbar):
    """``protocol``'s factored parts, ``dynamics``' coefficients and their
    slopes on the sympy symbols r, x and nbar, in units of the oscillation
    rate: parametric = r and beam_splitter = q = sqrt(1 + r^2).

    Each is the kernel that the public functions and ``verify``'s gates
    evaluate, given the trig tuple of ``protocol._ratios_and_trig`` as
    symbols: r, q, no time, sin x, cos x and 1 - cos x."""
    import sympy as sp

    trig = (r, sp.sqrt(1 + r**2), None, sp.sin(x), sp.cos(x), 1 - sp.cos(x))
    coeffs = dynamics.GaussianCoeffs(*dynamics._analytic(trig, nbar), None, nbar)
    return protocol._FactoredParts(trig), coeffs, dynamics._slopes(trig, nbar)
