"""Main-formula assembly: classification, residues, exceptional terms,
regular term, balance and polynomiality."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equiloc import builtin, builtin_names
from equiloc.builders import cpn_linear, trivial_cp1
from equiloc.model import (FixedComponent, NormalBlock, parse, replace,
                           serialize)
from equiloc.quantize import (Classification, Unsupported,
                              exceptional_from_series, exceptional_term,
                              main_formula_report, polynomiality_check,
                              regular_term, residue_term, rr_invariant)
from equiloc.useries import equivariant_todd_at_F
from equiloc.quantize import exact_polynomial_fit
from equiloc.ring import RingSpec
from equiloc.zrational import NotAPolynomial
import families
from families import point_component


def test_classify():
    assert point_component("a", 0, [1, 2]).classification \
        is Classification.POSITIVE_DEFINITE
    assert point_component("b", 0, [-3]).classification \
        is Classification.NEGATIVE_DEFINITE
    assert point_component("c", 0, [1, -1]).classification \
        is Classification.INDEFINITE


def test_rr_invariant_examples():
    for m in range(0, 9):
        assert rr_invariant(builtin("cp1"), m) == 1
        assert rr_invariant(builtin("cp001"), m) == m + 1
        assert rr_invariant(builtin("prod11"), m) == m + 1


def test_rr_invariant_rejects_non_integer_multiplicity():
    # the sphere's integral halved: the z^0 coefficient at m = 2 is 3/2
    text = serialize(trivial_cp1()).replace('"h^1": "1"', '"h^1": "1/2"')
    p = parse(text)
    with pytest.raises(NotAPolynomial, match="3/2, not an integer"):
        rr_invariant(p, 2)
    with pytest.raises(NotAPolynomial):
        main_formula_report(p, 2)


def test_residue_term_requires_moment_zero():
    with pytest.raises(ValueError):
        residue_term(point_component("f", 1, [1]), 2)


def test_residue_term_maximum_point():
    # chi_tilde = -z/(1-z); the infinity prescription returns 1, which is
    # what the fixed-locus reduction identity requires
    F = point_component("f", 0, [-1])
    assert residue_term(F, 3) == 1


def test_residue_term_indefinite_average():
    # chi_tilde = -z/(1-z)^2: both residues vanish, so does the average
    F = point_component("f", 0, [1, -1])
    assert residue_term(F, 2) == 0


@settings(max_examples=100, deadline=None)
@given(families.cases().map(lambda case: case.presentation))
@example(cpn_linear([-1, 0, 0, 1, 1], 1))
@example(builtin("dgmw"))
def test_residue_terms_are_volumes_or_zero(p):
    # each component as the level-zero one of p shifted by minus its
    # moment: on an indefinite one both side residues of every piece
    # vanish (a k < 0 factor kills z = 0, a k > 0 one infinity); on a
    # definite one the residue term is int_F Td e^{m omega}
    for F in p.components:
        F = replace(F, moment=0)
        if F.classification is Classification.INDEFINITE:
            for P in F.chi_pieces:
                assert P.shifted(-1).residue_at_zero() == 0, F.name
                assert P.residue_at_infinity() == 0, F.name
            assert residue_term(F, 5) == 0, F.name
        else:
            for m in range(6):
                assert residue_term(F, m) == sum(
                    m ** j * v for j, v in enumerate(F.volume_pieces)), \
                    (F.name, m)


def test_exceptional_vanishing_cases():
    F = point_component("f", 0, [1, -1])
    assert exceptional_term(F) == 0        # l+ = l- = 1: below dim six
    G = point_component("g", 0, [1, 1, -1])
    assert exceptional_term(G) == 0        # td identity at unit weights
    H = point_component("h", 0, [1, -1, -1])
    assert exceptional_term(H) == 0


def test_exceptional_constant_rho_gives_zero():
    F = point_component("f", 0, [1, 1, -1])
    assert exceptional_from_series(F, {0: Fraction(3)}) == 0
    # affine parts drop out identically too
    assert exceptional_from_series(F, {0: Fraction(3), 1: Fraction(2)}) == 0


def test_exceptional_errors():
    with pytest.raises(ValueError, match="moment zero"):
        exceptional_term(point_component("f", 1, [1, -1]))
    with pytest.raises(ValueError, match="component f is positive-definite"):
        exceptional_term(point_component("f", 0, [1, 2]))
    ring = RingSpec((("h", 2),), 2, {(1,): Fraction(1)})
    F = FixedComponent("s", 0, ring, ring.one() + ring.generator("h"),
                       ring.generator("h"),
                       [NormalBlock(1, (ring.zero(),)),
                        NormalBlock(-1, (ring.zero(),))])
    with pytest.raises(Unsupported):
        exceptional_term(F)


def _sympy_exceptional(weights):
    """Independent symbolic evaluation of the exceptional kernel: rho from
    the reciprocal of the series (1 - e^{-y})/y = sum_k (-y)^k/(k+1)!,
    and the kernel's quotient by (u - v) from sympy."""
    import sympy as sp
    pos = [w for w in weights if w > 0]
    neg = [-w for w in weights if w < 0]
    n = len(pos) + len(neg) - 1
    t = sp.symbols("t")
    inv = [sp.Rational((-1) ** k, math.factorial(k + 1)) for k in range(n + 1)]
    td = [sp.Integer(1)]
    for k in range(1, n + 1):
        td.append(-sum(inv[i] * td[k - i] for i in range(1, k + 1)))
    rho_series = sp.expand(sp.prod(
        [sum(c * (-w * t) ** j for j, c in enumerate(td)) for w in weights]))
    rho = {j: Fraction(str(rho_series.coeff(t, j))) for j in range(n + 1)}
    u, v = sp.symbols("u v")
    rho_poly = lambda arg: sum(sp.Rational(str(c)) * arg ** j
                               for j, c in rho.items())
    N = sp.Rational(1, 2) * (rho_poly(u) + rho_poly(v)) \
        - rho_poly((u + v) / 2)
    quotient = sp.cancel(N / (u - v))
    coeff = sp.Poly(sp.expand(quotient), u, v).coeff_monomial(
        u ** (len(pos) - 1) * v ** (len(neg) - 1))
    # the orientation: 1/prod(-w), not 1/prod |w| (see the reversal tests)
    return Fraction(str(coeff)) / math.prod(-w for w in weights), rho


def test_exceptional_against_symbolic_oracle():
    # units-only shapes: nonzero rho_n pieces cancel exactly (td identity);
    # mixed magnitudes exercise genuinely nonzero kernel values
    zero = ([1, 1, 1, 1, -1], [1, 1, -1, -1])
    nonzero = ([2, 1, -1], [3, 1, -2], [1, 1, 1, -2], [2, -1, -1, -3],
               [4, 2, 1, 1, -3], [4, 3, 1, 1, -2, -1],
               [1, 2, -1, -3, -4, -2])
    # rho_4 and rho_5 enter for the last three
    known = {(4, 2, 1, 1, -3): Fraction(-1463, 55296),
             (4, 3, 1, 1, -2, -1): Fraction(25, 2048),
             (1, 2, -1, -3, -4, -2): Fraction(2695, 221184)}
    for weights in zero + nonzero:
        F = point_component("f", 0, weights)
        want, rho = _sympy_exceptional(weights)
        got = exceptional_from_series(F, rho)
        assert got == want == exceptional_term(F), weights
        assert (got != 0) == (weights in nonzero), (weights, got)
        assert known.get(tuple(weights), got) == got, (weights, got)


# the isolated indefinite moment-zero points of the builtins, of X1 and of
# cpn_linear([-3, -1, 0, 2, 4], 1, shift=-2), with their exceptional terms,
# read through the normal Todd product and through the equivariant Todd
# series `equivariant_todd_at_F` alike
ISOLATED_INDEFINITE = [
    ("dim6", "w0*w0*w1", 0), ("dim6", "w0*w1*w0", 0),
    ("dim6", "w1*w0*w0", 0), ("dim6b", "w0*w1*w1", 0),
    ("dim6b", "w1*w0*w1", 0), ("dim6b", "w1*w1*w0", 0),
    ("prod11", "w0*w1", 0), ("prod11", "w1*w0", 0),
    ("X1", "w0", Fraction(1, 32)), ("cpn5", "w-1", Fraction(7, 384))]


def test_exceptional_terms_of_the_isolated_indefinite_points():
    presentations = {n: builtin(n) for n in builtin_names()}
    presentations["X1"] = cpn_linear([-1, 0, 1, 2], 1, shift=-1)
    presentations["cpn5"] = cpn_linear([-3, -1, 0, 2, 4], 1, shift=-2)
    found = {(n, F.name) for n, p in presentations.items()
             for F in p.f_zero()
             if F.dim_F == 0 and F.classification is Classification.INDEFINITE}
    assert found == {(n, c) for n, c, _ in ISOLATED_INDEFINITE}
    for name, comp, want in ISOLATED_INDEFINITE:
        F = presentations[name].component(comp)
        lo, den, row = equivariant_todd_at_F(
            F, len(F.normal) - 1).integrate_over_F()
        series = {lo + n: Fraction(c, den) for n, c in enumerate(row)}
        assert exceptional_term(F) == want, (name, comp)
        assert exceptional_from_series(F, series) == want, (name, comp)


def reverse(p):
    """p with the circle action reversed (t -> 1/t): every moment and every
    normal weight negated; Chern roots and quotient data kept."""
    return replace(p, name=f"{p.name}-reversed", components=[
        replace(F, moment=-F.moment,
                blocks=[replace(b, weight=-b.weight) for b in F.blocks])
        for F in p.components])


# moment-zero points of weights [-1, 1, 2] and [-2, 1, 3]: orbifold
# reductions, each with a nonzero exceptional term
X1 = cpn_linear([-1, 0, 1, 2], 1, shift=-1)
X2 = cpn_linear([-2, 0, 1, 3], 1, shift=-2)


def test_exceptional_swap_symmetry_on_builtins():
    # negating every weight swaps l+ and l- and sends rho(u) to rho(-u);
    # the term keeps its value, zero on the builtins' unit weights and
    # nonzero on the orbifold shapes, whether n is odd or even
    for weights in ([1, 1, -1], [1, -1, -1], [2, 1, -1], [3, 1, -2],
                    [1, 1, 1, -2], [2, -1, -1, -3], [4, 2, 1, 1, -3]):
        a = exceptional_term(point_component("f", 0, weights))
        b = exceptional_term(point_component("g", 0, [-w for w in weights]))
        assert a == b, weights
        assert (a == 0) == (max(map(abs, weights)) == 1), weights
    assert X1.component("w0").exceptional == Fraction(1, 32)
    assert X2.component("w0").exceptional == Fraction(-1, 288)


@pytest.mark.parametrize("p", [builtin(name) for name in builtin_names()]
                         + [X1, X2], ids=lambda p: p.name)
def test_reversal_keeps_every_term(p):
    q = reverse(p)
    for m in range(4):
        a, b = main_formula_report(p, m), main_formula_report(q, m)
        assert (b.rr, b.residue_sum(), b.exceptional_sum(), b.regular) \
            == (a.rr, a.residue_sum(), a.exceptional_sum(), a.regular), m


def test_regular_term_is_the_supplied_integral():
    for name in builtin_names():
        p = builtin(name)
        if p.quotient is None:
            continue
        q = p.quotient
        for m in range(9):
            want = ((q.omega0 * m).exp_nilpotent() * q.kappa_todd).integrate()
            assert regular_term(p, m) == (want, "supplied"), (name, m)


def test_polynomiality_contracts():
    fit = polynomiality_check(builtin("cp1"), 1, 8)
    assert fit.coefficients == [1, 0] and not any(fit.residuals.values())
    fit = polynomiality_check(builtin("prod11"), 1, 8)
    assert fit.coefficients == [1, 1, 0] and not any(fit.residuals.values())
    fit = polynomiality_check(builtin("cp012"), 1, 8)
    assert fit.coefficients[2] == 0 and not any(fit.residuals.values())
    with pytest.raises(ValueError):
        polynomiality_check(builtin("cp1"), 1, 2)


def test_exact_polynomial_fit_helper():
    coeffs = exact_polynomial_fit([(0, Fraction(1)), (1, Fraction(2)),
                                   (2, Fraction(5))])
    assert coeffs == [Fraction(1), Fraction(0), Fraction(1)]   # 1 + m^2


def test_bundle_power_coherence():
    from equiloc.localization import character
    d1 = cpn_linear([0, 1], 1)
    d2 = cpn_linear([0, 1], 2)
    for m in range(0, 5):
        assert character(d2, m) == character(d1, 2 * m)
        assert rr_invariant(d2, m) == rr_invariant(d1, 2 * m)


def _fraction_horner(coeffs, m):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * m + c
    return acc


def _fraction_residues(F):
    """The residue prescription of F's side on each chi_tilde piece, as
    Fractions."""
    plus = [P.shifted(-1).residue_at_zero() for P in F.chi_pieces]
    minus = [P.residue_at_infinity() for P in F.chi_pieces]
    side = F.classification.side
    if side == "plus":
        return plus
    if side == "minus":
        return minus
    return [(a + b) / 2 for a, b in zip(plus, minus)]


def _check_integer_report(p, ms):
    """The int numerators over one denominator against a Fraction Horner
    sum of the Fraction pieces, term by term and through the whole report
    at each m of ms."""
    regular = None
    if p.quotient is not None:
        q = p.quotient
        regular = [(q.kappa_todd * w).integrate()
                   for w in q.omega0.divided_powers()]
    for m in ms:
        rep = main_formula_report(p, m)
        rest = Fraction(0)
        for F in p.f_zero():
            want = _fraction_horner(_fraction_residues(F), m)
            assert residue_term(F, m) == want
            assert rep.residue_terms[F.name] == (F.classification.value, want)
            rest += want
            if F.classification is Classification.INDEFINITE:
                rest += exceptional_term(F)
        assert rep.residue_sum() + rep.exceptional_sum() == rest
        if regular is None:
            assert (rep.regular, rep.regular_tag) == (rep.rr - rest,
                                                      "diagnostic")
            assert rep.balance is None
        else:
            assert regular_term(p, m) == (_fraction_horner(regular, m),
                                          "supplied")
            assert rep.regular == _fraction_horner(regular, m)
            assert rep.balance is (rep.regular + rest == rep.rr) is True


@pytest.mark.parametrize("p", [builtin(name) for name in builtin_names()]
                         + [cpn_linear([-1, 0, 1, 2], 1, shift=-1),
                            cpn_linear([-2, 0, 1, 3], 1, shift=-2)],
                         ids=lambda p: p.name)
def test_integer_report_terms_match_fraction_pieces(p):
    # every builtin and two documents with nonzero exceptional terms
    _check_integer_report(p, range(41))
    with pytest.raises(ValueError, match="m must be nonnegative"):
        main_formula_report(p, -1)


def _flat(p):
    """No positive-dimensional indefinite component at moment zero, whose
    exceptional term a flat presentation cannot give."""
    return all(F.dim_F == 0 or F.classification is not
               Classification.INDEFINITE for F in p.f_zero())


@settings(max_examples=60, deadline=None)
@given(families.cases().map(lambda case: case.presentation).filter(_flat),
       st.integers(0, 30))
@example(cpn_linear([-1, 0, 2, 3, -2], 1), 5)
def test_integer_report_terms_match_fraction_pieces_on_drawn_cases(p, start):
    # the composed cases of `families`: products, shifts, powers and
    # unions, whose moment-zero components meet over other denominators
    _check_integer_report(p, range(start, start + 4))


def test_report_balance_fails_on_a_wrong_regular_term():
    # dim6's supplied kappa plus h^2, whose integral is 1: the regular
    # term moves by 1 at every m and the balance reads False
    p = builtin("dim6")
    h = p.quotient.ring.generator("h")
    q = replace(p.quotient, kappa_todd=p.quotient.kappa_todd + h * h)
    for m in range(5):
        rep = main_formula_report(replace(p, quotient=q), m)
        assert rep.balance is False
        assert rep.regular == main_formula_report(p, m).regular + 1


# Evidence that verify's retired checks could not fail.  For m >= 1 the sum
# over F of Res_0 z^{mJ_F - 1} chi_tilde_F, rr(m) when the data is
# consistent, is per class of m mod lcm|w| a polynomial of degree at most
# dim_M/2 from m = 1 on, whatever the Todd class, omega and moments: each
# piece z^s N/D has 0 <= s and top exponent <= deg D, so a component
# contributes 0 (J > 0), a polynomial (J = 0) or the quasi-polynomial of
# the series of N/D (J < 0).  So a polynomiality check fails only where
# the period exceeds 1, and the character's support, which the division
# confines to the pieces' exponents, cannot leave m [min J, max J].
SCALES = (Fraction(1, 2), Fraction(-1), Fraction(2), Fraction(1, 3))


@st.composite
def perturbed_compositions(draw):
    """A composed presentation with the Todd class, omega or moment of
    some components perturbed: most of these are inconsistent.  Its period
    is at most 12, since the property samples every class of m."""
    p = draw(families.cases().map(lambda case: case.presentation)
             .filter(lambda p: period(p) <= 12))
    comps = []
    for F in p.components:
        c = draw(st.sampled_from(SCALES))
        classes = [F.ring.generator(n) for n, _ in F.ring.generators]
        kind = draw(st.sampled_from(("none", "todd", "omega", "moment")))
        if kind == "todd":
            F = replace(F, todd=F.todd + draw(
                st.sampled_from(classes + [F.ring.one()])) * c)
        elif kind == "omega" and classes:
            F = replace(F, omega=F.omega + draw(st.sampled_from(classes)) * c)
        elif kind == "moment":
            F = replace(F, moment=F.moment + draw(st.sampled_from((-1, 1, 2))))
        comps.append(F)
    return replace(p, components=tuple(comps))


def period(p):
    return math.lcm(*(abs(b.weight) for F in p.components for b in F.blocks))


def residue_sum(p, m):
    return sum((m ** j * P.shifted(m * F.moment - 1).residue_at_zero()
                for F in p.components for j, P in enumerate(F.chi_pieces)),
               Fraction(0))


@settings(max_examples=100, deadline=None)
@given(perturbed_compositions())
@example(cpn_linear([-1, 0, 1, 2], 1, shift=-1))
@example(cpn_linear([-2, 0, 1, 3], 1, shift=-2))
def test_residue_sum_is_a_quasi_polynomial_on_any_data(p):
    for F in p.components:
        for P in F.chi_pieces:
            assert not P.row or 0 <= P.shift and P.shift + len(P.row) - 1 \
                <= sum(k * mult for k, mult in P.den.items())
    d, n = p.dim_M // 2, period(p)
    for r in range(1, n + 1):
        # d + 3 samples of class r: its (d + 1)-th differences vanish
        values = [residue_sum(p, r + i * n) for i in range(d + 3)]
        for _ in range(d + 1):
            values = [b - a for a, b in zip(values, values[1:])]
        assert values == [0, 0], (p.name, r)
