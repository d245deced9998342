"""Oscillatory pairing, boundary-value distributions, decay checks."""

import cmath
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from equiloc import builtin, witten
from equiloc.builders import cpn_linear, product, trivial_cp1
from equiloc.builtins import builtin_names
from equiloc.cli import main
from equiloc.localization import character
from equiloc.model import QuotientData, replace
from equiloc.ring import RingSpec
from equiloc.useries import (PreparedInner, component_u_laurent,
                             default_series_order)
from equiloc.witten import (CancellationError, TestFunction, complex_quad,
                            decay_check, dist_pair, expansion_rhs,
                            pair_u_laurent, witten_pair)
from quad_oracles import eps_limit_pair, scipy_complex_quad


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


def _step_derivative_oracle(phi, j, x):
    """phi^{(j)}(x) from mpmath's 40-digit numerical diff of the step
    f/(f + g), independent of the Taylor-mode recurrences."""
    with mpmath.workdps(40):
        d2 = mpmath.mpf(phi.delta2)
        width = mpmath.mpf(phi.delta2 - phi.delta1)

        def step(y):
            t = (d2 - y) / width
            f, g = mpmath.exp(-1 / t), mpmath.exp(-1 / (1 - t))
            return f / (f + g)

        value = float(mpmath.diff(step, mpmath.mpf(abs(x)), j))
    return value if x >= 0 else (-1) ** j * value


def test_bump_derivatives_match_mpmath():
    # order 0 is the closed form; orders 1..8 against the oracle across the
    # glue, on both sides of both guard edges and at mirrored points,
    # relative to the order's largest |value|
    assert PHI.derivative(0) == PHI.__call__
    width = PHI.delta2 - PHI.delta1
    xs = [PHI.delta1 + width * (i + 0.5) / 40 for i in range(40)]
    for t in (PHI._GUARD, 1 - PHI._GUARD):
        xs += [PHI.delta2 - width * t * (1 + e) for e in (-1e-9, 1e-9)]
    xs += [-x for x in xs[::3]]
    for j in range(1, 9):
        dj = PHI.derivative(j)
        want = [_step_derivative_oracle(PHI, j, x) for x in xs]
        scale = max(abs(v) for v in want)
        err = max(abs(dj(x) - v) for x, v in zip(xs, want))
        assert err <= (1e-13 if j <= 4 else 1e-10) * scale, (j, err / scale)


@pytest.mark.parametrize("deltas", [(0.1, math.inf), (0.1, math.nan),
                                    (0.25, 0.1)])
def test_bump_rejects_a_bad_support(deltas):
    with pytest.raises(ValueError, match="delta1 < delta2"):
        TestFunction(*deltas)


@pytest.mark.parametrize("j", [-1, 1.5, 2.0, "3"])
def test_bump_derivative_rejects_a_bad_order(j):
    with pytest.raises(ValueError, match="derivative order"):
        PHI.derivative(j)


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


def test_moments_match_adaptive_quad():
    # the fixed 64-panel table against scipy's adaptive quad, relative
    # bound only, so that it holds where x^j is tiny (j near 110)
    for j in range(-8, 111, 2):
        glued = quad(lambda x: x ** j * PHI(x), PHI.delta1, PHI.delta2,
                     epsabs=0, epsrel=1e-13)[0]
        want = 2 * (PHI.delta1 ** (j + 1) / (j + 1) + glued)
        assert abs(PHI.moment(j) - want) <= 1e-14 * abs(want), j
    assert PHI.moment(3) == PHI.moment(-5) == 0


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


@pytest.mark.parametrize("side", ["plus", "minus", "avg"])
def test_dist_pair_high_orders_integrate_cleanly(side):
    # a component of normal rank k pairs with x^{-k}: one finite-part moment
    # of phi for every k, so high orders raise no quadrature warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [dist_pair(k, side, PHI) for k in range(1, 9)]
    assert all(math.isfinite(abs(v)) for v in values)
    assert all(v == 0 for v in values[2::2])


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
    F, *rest = p.components
    G = replace(F, blocks=(replace(F.blocks[0], weight=2), *F.blocks[1:]))
    p = replace(p, components=(G, *rest))
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
    assert rep.exponent <= -3 or max(rep.diffs) <= 1e-8
    assert rep.diffs[-1] < 1e-5


def test_decay_cp1_negative_control():
    # a one-point quotient adds a regular term 1 the pairing does not have
    pt = RingSpec.point()
    p = replace(builtin("cp1"), quotient=QuotientData(pt, pt.zero(), pt.one()))
    rep = decay_check(p, PHI, [8, 16, 32, 64])
    assert rep.exponent >= -1
    assert max(rep.diffs) > 1e-3


def test_decay_prod11_with_diagnostic_regular():
    rep = decay_check(builtin("prod11"), PHI, [8, 16, 32, 64])
    assert rep.exponent <= -2


def test_pair_u_laurent_constant():
    # a bare constant pairs to c * integral of phi
    c = Fraction(3, 2)
    got = pair_u_laurent({0: c}, "plus", PHI)
    mass = scipy_complex_quad(lambda x: complex(PHI(x)), -PHI.delta2,
                              PHI.delta2, points=[-PHI.delta1, PHI.delta1],
                              limit=400)
    assert abs(got - float(c) * mass) < 1e-10


def quadrature_pair(laurent, side, phi):
    """The expansion's pairing without phi's moments: each negative power by
    the derivative relation <x^{-k}_pm, phi> = <x^{-1}_pm, phi^{(k-1)}>/(k-1)!,
    the analytic part by quadrature of the truncated polynomial."""
    value = 0j
    for j, c in laurent.items():
        if j < 0:
            psi = phi.derivative(-j - 1)
            pv = quad(lambda x: (psi(x) - psi(-x)) / x, 0.0, phi.delta2,
                      points=[phi.delta1], epsabs=1e-12, epsrel=1e-12,
                      limit=300)[0]
            delta = {"plus": -1j, "minus": 1j, "avg": 0}[side] * math.pi
            value += (complex(c) * (2j * math.pi) ** j
                      * (pv + delta * psi(0.0)) / math.factorial(-j - 1))
    top = max(laurent, default=-1)

    def f(x):
        acc = 0j
        for j in range(top, -1, -1):
            acc = acc * 2j * math.pi * x + complex(laurent.get(j, 0))
        return acc * phi(x)

    if top >= 0:
        value += scipy_complex_quad(f, -phi.delta2, phi.delta2,
                                    points=[-phi.delta1, phi.delta1],
                                    limit=400)
    return value


@pytest.mark.parametrize("m", [8, 32])
@pytest.mark.parametrize("name", builtin_names())
def test_pair_u_laurent_matches_quadrature(name, m):
    p = builtin(name)
    order = default_series_order(p, PHI.delta2)
    for F in p.f_zero():
        laurent = component_u_laurent(F, m, order)
        side = F.classification.side
        got = pair_u_laurent(laurent, side, PHI)
        want = quadrature_pair(laurent, side, PHI)
        assert abs(got - want) <= 1e-12 * abs(want), (F.name, got, want)


@pytest.mark.parametrize("m", [8, 32])
def test_pair_u_laurent_does_not_depend_on_dict_order(m):
    # the float sum runs over ascending powers whatever order the exact
    # dict was built in
    for name in builtin_names():
        p = builtin(name)
        order = default_series_order(p, PHI.delta2)
        for F in p.f_zero():
            laurent = component_u_laurent(F, m, order)
            side = F.classification.side
            ascending = dict(sorted(laurent.items()))
            descending = dict(sorted(laurent.items(), reverse=True))
            assert (pair_u_laurent(descending, side, PHI)
                    == pair_u_laurent(ascending, side, PHI)), (name, F.name)


@pytest.mark.parametrize("name", builtin_names())
def test_witten_pair_does_not_depend_on_dict_order(name, monkeypatch):
    # the inner-disc sum, with the exact Laurent sum handed over descending
    p = builtin(name)
    want = [witten_pair(p, "todd", PHI, m) for m in (1, 4, 8)]
    laurent_sum = PreparedInner.laurent_sum
    monkeypatch.setattr(
        PreparedInner, "laurent_sum",
        lambda *args, **kwargs: dict(sorted(
            laurent_sum(*args, **kwargs).items(), reverse=True)))
    assert [witten_pair(p, "todd", PHI, m) for m in (1, 4, 8)] == want


@pytest.mark.parametrize("p", [builtin(name) for name in builtin_names()] + [
    cpn_linear([-1, 0, 1, 2], 1, shift=-1),
    product(trivial_cp1(), builtin("dim6"))], ids=lambda p: p.name)
def test_inner_sum_from_annulus_rows_is_exact(p, monkeypatch):
    # witten_pair keeps its rows to the annulus order N_a, whatever m is;
    # the inner-disc sum built from them equals, coefficient by coefficient
    # up to u^N_a, the one built from rows kept to the inner order
    calls = []
    laurent_sum = PreparedInner.laurent_sum

    def spy(self, taylor, order):
        calls.append((self, taylor, order))
        return laurent_sum(self, taylor, order)

    monkeypatch.setattr(PreparedInner, "laurent_sum", spy)
    for m in (0, 3, 8, 64):
        try:
            witten_pair(p, "todd", PHI, m)
        except CancellationError:
            pass
    annulus = default_series_order(p, PHI.delta2)
    assert [prepared.m for prepared, _, _ in calls] == [0, 3, 8, 64]
    assert len({len(row) for prepared, _, _ in calls
                for _, row in prepared.levels}) == 1
    # the inner order passes the annulus order by m = 64, except where a
    # weight of 3 (dgmw, X1) puts the annulus order at 106
    assert any(order > annulus for _, _, order in calls) or annulus > 100
    for prepared, K, order in calls:
        assert prepared.order == annulus
        want = laurent_sum(PreparedInner(p, prepared.m, order), K, order)
        got = laurent_sum(prepared, K, order)
        assert {j: c for j, c in got.items() if j <= annulus} \
            == {j: c for j, c in want.items() if j <= annulus}, \
            (p.name, prepared.m)


# -- quadrature ---------------------------------------------------------------

def test_complex_quad_matches_a_closed_form():
    # int_{-1}^{2} e^{i w x} dx = (e^{2 i w} - e^{-i w}) / (i w), with
    # about a hundred oscillations over the interval
    for w in (7.0, 200.0):
        got = complex_quad(lambda x: np.exp(1j * w * x), -1.0, 2.0, 1)
        want = (cmath.exp(2j * w) - cmath.exp(-1j * w)) / (1j * w)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), w


def test_complex_quad_calls_f_once_per_level():
    sizes = []

    def f(x):
        sizes.append(x.shape)
        return np.exp(7j * x) / (1 + x * x)

    complex_quad(f, -1.0, 2.0, 2)
    # one call per level on the whole node array, the panel count doubled
    assert len(sizes) >= 2
    assert sizes == [(16 * 2 ** (i + 1),) for i in range(len(sizes))]


def test_complex_quad_raises_at_the_panel_cap():
    # 1/sqrt(x) at the end point converges like the root of the panel
    # width: no two levels up to 4096 panels agree within 1e-11
    with pytest.raises(CancellationError, match="4096 panels"):
        complex_quad(lambda x: 1 / np.sqrt(x), 0.0, 1.0, 1)


def test_witten_check_reports_the_panel_cap_as_a_numeric_failure(
        monkeypatch, capsys):
    # the integrand perturbed by 1/sqrt(x - a), which no level settles
    settled = witten.complex_quad

    def perturbed(f, a, b, panels):
        return settled(lambda x: f(x) + 1 / np.sqrt(x - a), a, b, panels)

    monkeypatch.setattr(witten, "complex_quad", perturbed)
    code = main(["witten-check", "--builtin", "cp1", "--m", "8,12,16,24"])
    _, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("numeric failure: quadrature on ")
    assert "4096 panels" in err and err.count("\n") == 1


# -- the Fourier form of the pairing ------------------------------------------

def bump_transform(n, phi):
    """phi_hat(n) = int phi(x) e^{2 pi i n x} dx, real since phi is even."""
    w = 2 * math.pi * abs(n)
    flat = math.sin(w * phi.delta1) / w if n else phi.delta1
    glued = quad(phi, phi.delta1, phi.delta2, weight="cos", wvar=w,
                 epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    return 2 * (flat + glued)


@pytest.mark.parametrize("name,m", [("cp1", 8), ("cp012", 8),
                                    ("prod11", 8), ("regval", 64),
                                    ("dim6", 8), ("dim6b", 8),
                                    ("cp001", 16), ("dgmw", 8)])
def test_witten_pair_matches_fourier_form(name, m):
    # Kirillov: for rho = todd the integrand is chi_m(e^{2 pi i x}) on the
    # support of phi, so the pairing is sum_n c_n phi_hat(n)
    p = builtin(name)
    terms = [float(c) * bump_transform(n, PHI)
             for n, c in character(p, m).coeffs.items()]
    want = math.fsum(terms)
    got = witten_pair(p, "todd", PHI, m)
    assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), (got, want)
