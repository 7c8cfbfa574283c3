"""The factored forms of ``protocol`` as the coefficient formulas, and the
peak as their stationary point for every nbar.

With the ratios and trig of both ``dynamics`` and ``protocol`` made sympy
symbols, sympy proves that the library's own factored n_eff, bracket and
E1, and the conditioned channel's three entries, equal the coefficient
formulas they stand for, which cancel r^4-sized terms in float64, and
that ``_peak``'s closed-form times are roots of the nbar-free factors of
the noise's derivative, where F does not depend on nbar.  Which
stationary point is the maximum stays a numeric check (``test_protocol``).
"""

import types

import numpy as np
import pytest
import sympy as sp

from mirror_teleport import dynamics, protocol

# In units of the oscillation rate, as in test_ode_certificate: x =
# oscillation*t, parametric = r and beam_splitter = q = sqrt(1 + r^2).
r, x, nbar = sp.symbols("r x nbar", positive=True)
q = sp.sqrt(1 + r**2)
tau = sp.Symbol("tau", real=True)


def _ratios_and_trig(couplings, time):
    return r, q, np.array(x, dtype=object), sp.sin(x), sp.cos(x), 1 - sp.cos(x)


@pytest.fixture
def parts(monkeypatch):
    """The library's factored forms on symbols, and its coefficients there.

    ``protocol`` imports ``_ratios_and_trig`` by name, so both modules'
    are patched."""
    monkeypatch.setattr(dynamics, "_ratios_and_trig", _ratios_and_trig)
    monkeypatch.setattr(protocol, "_ratios_and_trig", _ratios_and_trig)
    return protocol._FactoredParts(None, None), dynamics.coeffs_analytic(None, nbar, None)


def _bracket(g):
    """1 + stokes_n + mirror_n + 2 stokes_mirror: F = 1/(1 + bracket)
    without the heterodyne."""
    return 1 + g.stokes_n + g.mirror_n + 2 * g.stokes_mirror


def _is_zero(expr) -> bool:
    # The library's float constants (1.0, 2.0) are exact integers.
    return sp.simplify(sp.nsimplify(expr, rational=True)) == 0


def test_e1_is_anti_n_plus_one(parts):
    p, g = parts
    assert _is_zero(p.e1(nbar) - (g.anti_n + 1))


def test_bracket_is_the_coefficient_formula(parts):
    p, g = parts
    assert _is_zero(p.noise(nbar, heterodyne=False) - _bracket(g))


def test_n_eff_is_the_coefficient_formula(parts):
    p, g = parts
    d = g.stokes_anti - g.mirror_anti
    assert _is_zero(p.noise(nbar) - (_bracket(g) - d**2 / (g.anti_n + 1)))


def _channel_formulas(g):
    """The conditioned channel's Stokes variance, mirror variance and X-X
    correlation, written from the coefficients as ``test_protocol``'s
    coefficient formulas write them."""
    e1, half = g.anti_n + 1, sp.Rational(1, 2)
    return (
        g.stokes_n - g.stokes_anti**2 / e1 + half,
        g.mirror_n - g.mirror_anti**2 / e1 + half,
        g.stokes_mirror + g.stokes_anti * g.mirror_anti / e1,
    )


@pytest.mark.parametrize("entry", [0, 1, 2], ids=["stokes_var", "mirror_var", "corr"])
def test_channel_is_the_coefficient_formulas(parts, entry):
    p, g = parts
    assert _is_zero(p.channel(nbar)[entry] - _channel_formulas(g)[entry])


def _in_tau(expr):
    """``expr`` in tau = tan(x/2)."""
    return expr.subs({sp.sin(x): 2 * tau / (1 + tau**2), sp.cos(x): (1 - tau**2) / (1 + tau**2)})


def _peak(monkeypatch, heterodyne):
    """``_peak``'s (tau, F) on symbols, for oscillation 1 and parametric r."""
    symbolic_math = types.SimpleNamespace(sqrt=sp.sqrt, atan=sp.atan, pi=sp.pi)
    monkeypatch.setattr(protocol, "math", symbolic_math)
    t_peak, f = protocol._peak(types.SimpleNamespace(parametric=r, oscillation=1), heterodyne)
    t_star, f = (sp.nsimplify(v, rational=True) for v in (sp.tan(t_peak / 2), f))
    return sp.simplify(t_star), f


@pytest.mark.parametrize("heterodyne", [True, False])
def test_peak_is_stationary_and_the_same_for_every_nbar(parts, monkeypatch, heterodyne):
    # The numerator of d noise/d tau factors into a part free of nbar and a
    # part with it; the peak's tau is a root of the first, so the noise is
    # stationary there for every nbar, and its value there, with F, does
    # not depend on nbar.
    p, _ = parts
    noise = sp.nsimplify(_in_tau(p.noise(nbar, heterodyne)), rational=True)
    numerator = sp.numer(sp.together(sp.diff(noise, tau)))
    factors = sp.factor_list(numerator)[1]
    free = sp.Mul(*(f**k for f, k in factors if nbar not in f.free_symbols))
    assert sp.degree(free, tau) >= 2
    t_star, f_peak = _peak(monkeypatch, heterodyne)
    assert t_star.free_symbols == {r}
    assert _is_zero(free.subs(tau, t_star))
    at_peak = noise.subs(tau, t_star)
    assert _is_zero(sp.diff(at_peak, nbar))
    assert _is_zero(1 / (1 + at_peak) - f_peak)
