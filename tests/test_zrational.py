"""ZRational arithmetic, Laurent expansion, division and residues."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiloc import oracle
from equiloc.localization import character
from equiloc.builders import cpn_linear, product, shift_moment, trivial_cp1
from equiloc.model import parse, serialize
from equiloc.zrational import (LaurentPolynomial, NotAPolynomial, ZRational,
                               over_one_denominator, scalar_sum)


def test_scalar_sum_example():
    inv = ZRational(0, {0: 1}, {1: 1})
    s = scalar_sum([inv, ZRational(1, {0: 1}, {1: 1})])
    assert s == ZRational(0, {0: 1, 1: 1}, {1: 1})
    with pytest.raises(TypeError):
        hash(s)


def test_to_laurent_polynomial():
    f = ZRational(0, {0: 1, 2: -1}, {1: 1})    # (1-z^2)/(1-z)
    assert f.to_laurent_polynomial() == LaurentPolynomial({0: 1, 1: 1})
    with pytest.raises(NotAPolynomial):
        ZRational(0, {0: 1}, {1: 1}).to_laurent_polynomial()


def test_denominator_factors_are_checked():
    with pytest.raises(ValueError, match="k > 0"):
        ZRational(0, {0: 1}, {0: 1})
    with pytest.raises(ValueError, match=">= 0"):
        ZRational(0, {0: 1}, {1: -1})


def test_integer_numerators_stay_ints():
    f = ZRational(0, {0: 1, 2: -1}, {1: 1})
    assert scalar_sum([f, f]).num == {0: 2, 2: -2}
    quotient = f.to_laurent_polynomial().coeffs
    assert quotient == {0: 1, 1: 1}
    assert all(type(c) is int for c in quotient.values())
    half = ZRational(0, {0: Fraction(1, 2)}, {})
    assert scalar_sum([half, half]).num == {0: 1}


def _times_den(num, den):
    """num * prod_k (1 - z^k)^mult, multiplied out one factor at a time."""
    for k, mult in den.items():
        for _ in range(mult):
            out = dict(num)
            for j, c in num.items():
                out[j + k] = out.get(j + k, 0) - c
            num = out
    return {j: c for j, c in num.items() if c}


coefficients = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-3, max_value=3, max_denominator=6))


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.integers(min_value=-5, max_value=5), coefficients,
                       min_size=1, max_size=6),
       st.dictionaries(st.integers(min_value=1, max_value=6),
                       st.integers(min_value=0, max_value=3), max_size=4),
       st.integers(min_value=-4, max_value=4), st.data())
def test_division_round_trip(num, den, shift, data):
    num = {j: Fraction(c) for j, c in num.items() if c}
    if not num:
        return
    product = _times_den(num, den)
    fractional = sorted(j for j, c in num.items() if c.denominator != 1)
    if fractional:
        # the lowest non-integral quotient coefficient is named
        j = fractional[0]
        with pytest.raises(NotAPolynomial, match=re.escape(
                f"coefficient of z^{shift + j} is {num[j]}, not an integer")):
            ZRational(shift, product, den).to_laurent_polynomial()
    else:
        got = ZRational(shift, product, den).to_laurent_polynomial()
        assert got.coeffs == {shift + j: c for j, c in num.items()}
        assert all(type(c) is int for c in got.coeffs.values())
    if not any(den.values()):
        return
    # z^e * delta is never divisible by a nonconstant prod (1 - z^k)^mult
    e = data.draw(st.integers(min_value=min(product), max_value=max(product)))
    delta = data.draw(coefficients.filter(lambda c: c != 0))
    product[e] = product.get(e, 0) + delta
    with pytest.raises(NotAPolynomial):
        ZRational(shift, product, den).to_laurent_polynomial()


def _exact_value(q, z):
    """q at the rational point z, away from the roots of unity."""
    value = sum(c * z ** (q.shift + j) for j, c in q.num.items())
    for k, mult in q.den.items():
        value /= (1 - z ** k) ** mult
    return Fraction(value)


scalar_parts = st.builds(
    ZRational, st.integers(min_value=-3, max_value=3),
    st.dictionaries(st.integers(min_value=-3, max_value=3), coefficients,
                    max_size=4),
    st.dictionaries(st.integers(min_value=1, max_value=4),
                    st.integers(min_value=0, max_value=2), max_size=3))


@settings(max_examples=80, deadline=None)
@given(st.lists(scalar_parts, max_size=5))
def test_scalar_sum_matches_exact_values(parts):
    total = scalar_sum(parts)
    for z in (Fraction(2, 3), Fraction(-3, 2), Fraction(5, 7)):
        assert _exact_value(total, z) == sum(_exact_value(q, z)
                                             for q in parts)
    if all(type(c) is int for q in parts for c in q.num.values()):
        assert all(type(c) is int for c in total.num.values())


def test_residue_at_zero_examples():
    assert ZRational(-1, {0: 1}, {1: 1}).residue_at_zero() == 1
    assert ZRational(0, {0: 1}, {1: 1}).residue_at_zero() == 0
    assert ZRational(-1, {0: 1}, {1: 1, 2: 1}).residue_at_zero() == 1


def test_residue_at_infinity_examples():
    # chi(1/z)/z = 1/(z-1) is regular at 0: the prescription for a function
    # with its only finite pole at 1 and no z^{-1} tail gives 0 (the value
    # that makes the fixed-locus reduction identities balance; a maximum
    # component never carries a plain 1/(1-z) anyway).
    chi = ZRational(0, {0: 1}, {1: 1})         # 1/(1-z)
    assert chi.residue_at_infinity() == 0
    chi2 = ZRational(1, {0: -1}, {1: 1})       # -z/(1-z) = 1/(1-z^{-1})
    assert chi2.residue_at_infinity() == 1
    const = ZRational(0, {0: Fraction(5, 2)}, {})
    assert const.residue_at_infinity() == Fraction(5, 2)


def test_residue_prescriptions_on_max_components():
    # the two-sphere with its moment interval shifted to [-1, 0]: the
    # maximum sits at 0 with chi_tilde = -z^{m+1}... summed identity:
    # Res_infty of -z/(1-z) picks exactly the invariant count 1.
    chi = ZRational(1, {0: -1}, {1: 1})
    assert chi.residue_at_infinity() == 1
    # weight -3 maximum: chi_tilde = -z^3/(1-z^3)
    chi3 = ZRational(3, {0: -1}, {3: 1})
    assert chi3.residue_at_infinity() == 1


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(min_value=-3, max_value=4),
                       st.fractions(min_value=-4, max_value=4,
                                    max_denominator=5), max_size=5))
def test_polynomial_prescriptions_coincide(coeffs):
    p = ZRational(0, coeffs, {})
    const = coeffs.get(0, 0)
    assert p.shifted(-1).residue_at_zero() == const
    assert p.residue_at_infinity() == const


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-3, max_value=3),
       st.dictionaries(st.integers(min_value=-3, max_value=4),
                       st.fractions(min_value=-4, max_value=4,
                                    max_denominator=5), max_size=5),
       st.dictionaries(st.integers(min_value=1, max_value=4),
                       st.integers(min_value=1, max_value=3), max_size=3),
       st.integers(min_value=-8, max_value=12))
def test_series_times_denominator_is_numerator(shift, num, den, upto):
    series = ZRational(shift, num, den).series_coefficients(upto)
    assert all(e <= upto for e in series)
    # multiply back by prod (1 - z^k)^{m_k}: exact at every exponent <= upto
    for k, mult in den.items():
        for _ in range(mult):
            series = {e: series.get(e, 0) - series.get(e - k, 0)
                      for e in set(series) | {e + k for e in series}}
    back = {e: c for e, c in series.items() if c and e <= upto}
    want = {shift + j: c for j, c in num.items() if c and shift + j <= upto}
    assert back == want


def test_series_matches_direct_expansion():
    # z^-1 (2 + 3z) / ((1-z)^2 (1-z^2)): 1/(1-z)^2 has the coefficients
    # n + 1 and 1/(1-z^2) has 1 at every even n, so z^(n-1) has the
    # coefficient sum over num_j z^j and even 2i <= n - j of n - j - 2i + 1
    f = ZRational(-1, {0: 2, 1: 3}, {1: 2, 2: 1})
    want = {n - 1: sum(c * (n - j - 2 * i + 1)
                       for j, c in ((0, 2), (1, 3))
                       for i in range((n - j) // 2 + 1))
            for n in range(10)}
    assert f.series_coefficients(8) == want


def exact_value(f, z):
    """f at a rational z away from the poles, in exact arithmetic."""
    value = sum(c * z ** j for j, c in f.num.items()) * z ** f.shift
    for k, mult in f.den.items():
        value /= (1 - z ** k) ** mult
    return value


def test_substitute_inverse_is_involutive_on_values():
    f = ZRational(2, {0: 1, 1: -2}, {1: 1, 3: 1})
    g = f.substitute_inverse()
    for z in (Fraction(37, 100), Fraction(-5, 3), Fraction(7, 2)):
        assert exact_value(g, z) == exact_value(f, 1 / z)
    assert g.substitute_inverse() == f


def test_laurent_polynomial_printing():
    p = LaurentPolynomial({-1: 1, 0: 2, 1: 1})
    assert str(p) == "z^-1 + 2 + z"
    assert p.evaluate_at_one() == 4
    assert p.as_integer_coeffs() == {-1: 1, 0: 2, 1: 1}


def _check_row(chi):
    """The dense row against the dict view it stands for."""
    coeffs = chi.coeffs
    assert 0 not in coeffs.values()
    assert all(type(c) is int for c in coeffs.values())
    assert LaurentPolynomial(coeffs) == chi
    assert chi.as_integer_coeffs() == coeffs
    assert list(coeffs) == sorted(coeffs)
    assert chi.evaluate_at_one() == sum(coeffs.values())
    lo, hi = chi.support()
    if coeffs:
        assert (lo, hi) == (min(coeffs), max(coeffs))
        assert chi.row[0] and chi.row[-1]
        assert len(chi.row) == hi - lo + 1
    else:
        assert (lo, hi) == (0, 0) and chi.row == ()
    for e in range(lo - 3, hi + 4):
        assert chi.coefficient(e) == coeffs.get(e, 0)
    assert chi.coefficient(0) == coeffs.get(0, 0)


def test_dense_row_edge_cases():
    # an interior zero: CP^1 with weights 0, 2 at m = 1 is 1 + z^2
    chi = character(cpn_linear([0, 2], 1), 1)
    assert (chi.lo, chi.row) == (0, (1, 0, 1))
    assert chi.coeffs == {0: 1, 2: 1} and chi.coefficient(1) == 0
    # negative exponents
    chi = character(shift_moment(cpn_linear([0, 1], 1), -2), 1)
    assert chi == LaurentPolynomial({-2: 1, -1: 1})
    # zero, as a division and as a mapping
    f = ZRational(0, {0: 1, 2: -1}, {1: 1})
    zero = scalar_sum([f, ZRational(0, {0: -1, 2: 1}, {1: 1})]).to_laurent_polynomial()
    assert zero == LaurentPolynomial({}) == LaurentPolynomial({3: 0})
    assert str(zero) == "0" and zero.coeffs == {}
    for chi in (character(cpn_linear([0, 2], 1), 1), zero,
                LaurentPolynomial({-4: 2, 0: 0, 3: -1})):
        _check_row(chi)
    assert LaurentPolynomial.from_row(-1, [1, 0, 2]) == LaurentPolynomial(
        {-1: 1, 1: 2})
    assert LaurentPolynomial({0: 1}) != LaurentPolynomial({1: 1})


cpn_args = st.tuples(
    st.lists(st.integers(min_value=-2, max_value=3), min_size=2,
             max_size=3),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=-3, max_value=3))


@settings(max_examples=40, deadline=None)
@given(cpn_args, st.one_of(st.none(), cpn_args),
       st.integers(min_value=-3, max_value=3),
       st.integers(min_value=0, max_value=3))
def test_dense_row_matches_enumeration(first, second, s, m):
    # cpn_linear, product and shift_moment against monomial enumeration
    p = cpn_linear(*first)
    want = oracle.cpn_weights(*first[:2], m, first[2])
    if second is not None:
        p = product(p, cpn_linear(*second))
        want = oracle.convolve(want, oracle.cpn_weights(*second[:2], m,
                                                       second[2]))
    chi = character(shift_moment(p, s), m)
    assert chi == oracle.WeightMultiset(
        {e + m * s: c for e, c in want.counts.items()})
    _check_row(chi)


def test_fused_passes_reject_an_uncancelled_double_factor():
    # cpn11's summed character over one more (1 - z)^2: the chained passes
    # of the doubled factor leave a remainder
    chi = character(cpn_linear(list(range(11)), 1), 3)
    num = chi.coeffs
    for _ in range(3):
        num = {e: num.get(e, 0) - num.get(e - 1, 0)
               for e in set(num) | {e + 1 for e in num}}
    assert ZRational(0, num, {1: 3}).to_laurent_polynomial() == chi
    with pytest.raises(NotAPolynomial, match="^poles at roots of unity fail "
                       "to cancel; fixed-point data is inconsistent$"):
        ZRational(0, num, {1: 5}).to_laurent_polynomial()


def test_fused_passes_reject_a_non_integral_document():
    # the sphere's integral halved (z^0 coefficient 3/2 at m = 2), times
    # cpn11, whose denominators carry factors of multiplicity 2
    half = parse(serialize(trivial_cp1()).replace('"h^1": "1"',
                                                  '"h^1": "1/2"'))
    p = product(half, cpn_linear(list(range(11)), 1))
    assert any(mult > 1 for G in p.moment_groups
               for P in G.chi_pieces for mult in P.den.values())
    with pytest.raises(NotAPolynomial,
                       match="^coefficient of z\\^0 is 3/2, not an integer$"):
        character(p, 2)


def test_rows_over_one_denominator_are_immutable():
    # 1/(1-z) over (1-z)^2 (1-z^3) and the scale 2 of a half: its row is
    # multiplied by 2 (1-z)(1-z^3); a part already over D and L is kept
    half = ZRational(0, {0: Fraction(1, 2)}, {1: 2, 3: 1})
    one = ZRational(0, {0: 1}, {1: 1})
    zero = ZRational(0, {}, {})
    kept, moved, still = over_one_denominator([half, one, zero])
    assert kept is half and still is zero
    assert (moved.shift, moved.row, moved.scale) == (0, (2, -2, 0, -2, 2), 2)
    assert moved.den == {1: 2, 3: 1} and moved == one
    with pytest.raises(TypeError):
        moved.row[0] = 3


def test_sums_trim_cancelled_ends():
    # rows that cancel at either end leave a row with nonzero ends, so the
    # quotient of the division is a canonical LaurentPolynomial
    f = ZRational(0, {0: 1, 1: 1, 2: 1}, {})
    low = scalar_sum([f, ZRational(0, {0: -1}, {})])
    assert (low.shift, low.row) == (1, (1, 1))
    high = scalar_sum([f, ZRational(2, {0: -1}, {})])
    assert (high.shift, high.row) == (0, (1, 1))
    both = scalar_sum([f, ZRational(0, {0: -1, 2: -1}, {})])
    assert (both.shift, both.row, both.num) == (1, (1,), {0: 1})
    g = ZRational(0, {0: 1, 1: -1, 2: 1}, {1: 1})
    chi = scalar_sum([g, ZRational(0, {0: -1}, {1: 1})])
    assert chi.to_laurent_polynomial() == LaurentPolynomial({1: -1})
    zero = scalar_sum([f, ZRational(0, {0: -1, 1: -1, 2: -1}, {})])
    assert (zero.shift, zero.row, zero.scale, zero.den) == (0, (), 1, {})
