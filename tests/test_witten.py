"""Oscillatory pairing, boundary-value distributions, decay checks."""

import cmath
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import pytest
from scipy.integrate import quad

from equiloc import builtin
from equiloc.localization import character
from equiloc.model import QuotientData
from equiloc.ring import RingSpec
from equiloc.witten import (CancellationError, TestFunction, complex_quad,
                            decay_check, dist_pair, eps_limit_pair,
                            expansion_rhs, pair_u_laurent, witten_pair)

warnings.filterwarnings("ignore", message=".*roundoff.*")

PHI = TestFunction()


# -- the bump -----------------------------------------------------------------

def test_bump_shape():
    assert PHI(0.0) == 1.0
    assert PHI(0.09) == 1.0
    assert PHI(0.26) == 0.0
    assert 0.0 < PHI(0.17) < 1.0
    assert PHI(0.17) == PHI(-0.17)


def test_bump_derivative_consistency():
    # finite-difference consistency of the supplied derivative evaluators
    h = 1e-5
    for j in range(0, 3):
        dj = PHI.derivative(j)
        dj1 = PHI.derivative(j + 1)
        for x in (0.13, 0.17, 0.21, -0.15):
            fd = (dj(x + h) - dj(x - h)) / (2 * h)
            exact = dj1(x)
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact)), (j, x)


def test_bump_flat_regions_have_zero_derivatives():
    for j in (1, 2, 5):
        dj = PHI.derivative(j)
        assert dj(0.0) == 0.0
        assert dj(0.05) == 0.0
        assert dj(0.3) == 0.0


# -- distributions -------------------------------------------------------------

def test_dist_pair_trivial_cases():
    assert abs(dist_pair(1, "plus", PHI) - (-1j * math.pi)) < 1e-12
    assert abs(dist_pair(1, "minus", PHI) - (1j * math.pi)) < 1e-12
    assert abs(dist_pair(1, "avg", PHI)) < 1e-12


def test_jump_relation():
    for k in (1, 2, 3):
        jump = dist_pair(k, "plus", PHI) - dist_pair(k, "minus", PHI)
        psi0 = PHI.derivative(k - 1)(0.0)
        want = -2j * math.pi * (-1) ** (k - 1) * psi0 / math.factorial(k - 1)
        assert abs(jump - want) < 1e-8, k


def test_dist_pair_against_eps_limit():
    for k in (1, 2):
        for side in ("plus", "minus"):
            a = dist_pair(k, side, PHI)
            b = eps_limit_pair(k, side, PHI)
            assert abs(a - b) < 1e-6, (k, side)


def test_dist_pair_k2_is_real_and_negative():
    # <x^{-2}, phi> = <x^{-1}, phi'>: phi' is odd with negative right lobe
    v = dist_pair(2, "plus", PHI)
    assert abs(v.imag) < 1e-12
    assert v.real < -1


# -- the pairing ---------------------------------------------------------------

def test_witten_pair_takes_only_the_todd_class():
    with pytest.raises(ValueError, match="todd"):
        witten_pair(builtin("cp1"), None, PHI, 4)


def test_witten_pair_detects_inconsistent_data():
    p = builtin("cp1")
    F = p.components[0]
    p.components[0] = replace(
        F, blocks=[replace(F.blocks[0], weight=2)] + F.blocks[1:])
    with pytest.raises(CancellationError):
        witten_pair(p, "todd", PHI, 3)


def test_bump_dependence_is_captured_by_the_expansion():
    # Shrinking delta1 changes the pairing itself at order one (the
    # analytic parts integrate against the bump's mass), but the expansion
    # tracks it: the remainder difference dies off faster than m^-4.
    p = builtin("cp1")
    narrow = TestFunction(0.05, 0.25)

    def remainder(phi, m):
        return witten_pair(p, "todd", phi, m) - expansion_rhs(p, phi, m)

    diffs = {m: abs(remainder(PHI, m) - remainder(narrow, m))
             for m in (16, 64)}
    assert diffs[64] < 1e-6
    assert diffs[64] < diffs[16] / 4 ** 4


def test_expansion_rhs_regval_is_polynomial_term_only():
    # no moment-zero components: the expansion is the supplied quotient
    # integral alone, constant against phi
    p = builtin("regval")
    for m in (3, 17):
        assert expansion_rhs(p, PHI, m) == 1


def test_decay_cp1():
    rep = decay_check(builtin("cp1"), PHI, [8, 16, 32, 64])
    assert rep.exponent <= -3 or rep.max_diff() <= 1e-8
    assert rep.diffs[-1] < 1e-5


def test_decay_cp1_negative_control():
    # a one-point quotient adds a regular term 1 the pairing does not have
    pt = RingSpec.point()
    p = replace(builtin("cp1"), quotient=QuotientData(pt, pt.zero(), pt.one()))
    rep = decay_check(p, PHI, [8, 16, 32, 64])
    assert rep.exponent >= -1
    assert rep.max_diff() > 1e-3


def test_decay_prod11_with_diagnostic_regular():
    rep = decay_check(builtin("prod11"), PHI, [8, 16, 32, 64])
    assert rep.exponent <= -2


def test_pair_u_laurent_constant():
    # a bare constant pairs to c * integral of phi
    c = Fraction(3, 2)
    got = pair_u_laurent({0: c}, "plus", PHI)
    mass = complex_quad(lambda x: complex(PHI(x)), -PHI.delta2, PHI.delta2,
                        points=[-PHI.delta1, PHI.delta1])
    assert abs(got - float(c) * mass) < 1e-10


# -- quadrature ---------------------------------------------------------------

def test_complex_quad_evaluates_each_node_once():
    nodes = []

    def f(x):
        nodes.append(x)
        return cmath.exp(7j * x) / (1 + x * x)

    got = complex_quad(f, -1.0, 2.0, points=[0.5, 3.0])
    assert len(nodes) == len(set(nodes))
    # the same two passes without the shared memo
    kwargs = dict(epsabs=1e-11, epsrel=1e-11, limit=400, points=[0.5])
    re = quad(lambda x: f(x).real, -1.0, 2.0, **kwargs)[0]
    im = quad(lambda x: f(x).imag, -1.0, 2.0, **kwargs)[0]
    assert got == re + 1j * im


# -- the Fourier form of the pairing ------------------------------------------

def bump_transform(n, phi):
    """phi_hat(n) = int phi(x) e^{2 pi i n x} dx, real since phi is even."""
    w = 2 * math.pi * abs(n)
    flat = math.sin(w * phi.delta1) / w if n else phi.delta1
    glued = quad(phi, phi.delta1, phi.delta2, weight="cos", wvar=w,
                 epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    return 2 * (flat + glued)


@pytest.mark.parametrize("name,m", [("cp1", 8), ("cp012", 8),
                                    ("prod11", 8), ("regval", 64)])
def test_witten_pair_matches_fourier_form(name, m):
    # Kirillov: for rho = todd the integrand is chi_m(e^{2 pi i x}) on the
    # support of phi, so the pairing is sum_n c_n phi_hat(n)
    p = builtin(name)
    terms = [float(c) * bump_transform(n, PHI)
             for n, c in character(p, m).coeffs.items()]
    want = math.fsum(terms)
    got = witten_pair(p, "todd", PHI, m)
    assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), (got, want)
