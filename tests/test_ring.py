"""Exact ring arithmetic: worked examples and algebraic properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiloc.ring import (GradedElement, RingError, RingSpec, bernoulli,
                          todd_coefficient, todd_from_roots)


def cp1_ring():
    return RingSpec((("h", 2),), 2, {(1,): Fraction(1)})


def cp2_ring():
    return RingSpec((("h", 2),), 4, {(2,): Fraction(1)})


def surface_ring():
    # two degree-2 generators, truncation 4
    return RingSpec((("a", 2), ("b", 2)), 4,
                    {(2, 0): Fraction(0), (1, 1): Fraction(1),
                     (0, 2): Fraction(0)})


def test_bernoulli_values():
    assert [bernoulli(n) for n in range(7)] == [
        Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
        Fraction(-1, 30), Fraction(0), Fraction(1, 42)]


def test_todd_coefficients():
    assert todd_coefficient(0) == 1
    assert todd_coefficient(1) == Fraction(1, 2)
    assert todd_coefficient(2) == Fraction(1, 12)
    assert todd_coefficient(3) == 0
    assert todd_coefficient(4) == Fraction(-1, 720)


def test_ring_spec_rejects_bad_data():
    with pytest.raises(RingError):
        RingSpec((("h", 3),), 2, {})
    with pytest.raises(RingError):
        RingSpec((("h", 2),), 3, {})
    with pytest.raises(RingError):
        RingSpec((("h", 2),), 4, {(1,): Fraction(1)})  # not top degree


def test_mixed_rings_raise():
    h = cp1_ring().generator("h")
    x = RingSpec((("x", 2),), 2, {(1,): Fraction(1)}).generator("x")
    with pytest.raises(RingError):
        h * x
    with pytest.raises(RingError):
        h + x


def test_add_identity_and_cancellation():
    ring = cp1_ring()
    h = ring.generator("h")
    assert ring.zero() + h == h
    assert (ring.one() + h) + (ring.one() - h) == ring.scalar(2)
    assert h + h == h * 2


def test_mul_unit_truncation_binomial():
    cp1 = cp1_ring()
    h1 = cp1.generator("h")
    assert cp1.one() * h1 == h1
    assert h1 * h1 == cp1.zero()          # truncation at degree 2
    cp2 = cp2_ring()
    h = cp2.generator("h")
    sq = (cp2.one() + h) * (cp2.one() + h)
    assert sq == cp2.one() + h * 2 + h * h


def test_exp_nilpotent_examples():
    cp1 = cp1_ring()
    assert cp1.zero().exp_nilpotent() == cp1.one()
    h1 = cp1.generator("h")
    m = Fraction(5)
    assert (h1 * m).exp_nilpotent() == cp1.one() + h1 * m
    cp2 = cp2_ring()
    h = cp2.generator("h")
    assert (h * m).exp_nilpotent() == \
        cp2.one() + h * m + h * h * (m * m / 2)
    with pytest.raises(RingError):
        cp1.one().exp_nilpotent()


def test_powers_walk_to_the_last_nonzero_power():
    cp2 = cp2_ring()
    h = cp2.generator("h")
    x = h * 3
    assert x.powers() == [cp2.one(), x, x * x]
    assert cp2.zero().powers() == [cp2.one()]
    assert x.divided_powers() == [cp2.one(), x, x * x * Fraction(1, 2)]


def test_powers_reject_a_nonzero_scalar_part():
    # the powers of 1 + h never vanish: the walk must refuse, not loop
    cp1 = cp1_ring()
    for x in (cp1.one(), cp1.one() + cp1.generator("h"), cp1.scalar(-2)):
        with pytest.raises(RingError):
            x.powers()


def test_integrate_examples():
    point = RingSpec.point()
    assert point.one().integrate() == 1
    cp1 = cp1_ring()
    h = cp1.generator("h")
    m = Fraction(7)
    val = ((h * m).exp_nilpotent() * (cp1.one() + h)).integrate()
    assert val == m + 1
    cp2 = cp2_ring()
    assert cp2.generator("h").integrate() == 0   # below top degree


def test_todd_from_roots_examples():
    cp1 = cp1_ring()
    h1 = cp1.generator("h")
    assert todd_from_roots(cp1, []) == cp1.one()
    assert todd_from_roots(cp1, [h1]) == cp1.one() + h1 * Fraction(1, 2)
    cp2 = cp2_ring()
    h = cp2.generator("h")
    td = todd_from_roots(cp2, [h, h, h])
    # series product expanded to degree 4: the classical projective plane value
    assert td == cp2.one() + h * Fraction(3, 2) + h * h


# -- property tests ----------------------------------------------------------

def elements(ring):
    monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    coeff = st.fractions(min_value=-4, max_value=4,
                         max_denominator=6)
    return st.lists(st.tuples(st.sampled_from(monos), coeff),
                    max_size=5).map(
        lambda pairs: GradedElement(ring, _accumulate(pairs)))


def _accumulate(pairs):
    terms = {}
    for mono, c in pairs:
        terms[mono] = terms.get(mono, Fraction(0)) + c
    return terms


RING = surface_ring()


def assert_canonical(x):
    # what arithmetic builds is what the canonicalizing constructor keeps:
    # no truncated monomial, and nonzero Fraction values
    assert x.terms == GradedElement(x.ring, x.terms).terms
    assert all(type(c) is Fraction and c for c in x.terms.values())


@settings(max_examples=60, deadline=None)
@given(elements(RING), elements(RING), elements(RING))
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    for x in (a + b, a - b, a - a, -a, a * b, (a + b) * c, a * b * c,
              (a + 1) * (a - 1), a + 1, a * 2):
        assert_canonical(x)


@settings(max_examples=40, deadline=None)
@given(elements(RING), elements(RING))
def test_exp_is_additive_on_nilpotents(a, b):
    a, b = a - a.scalar_part(), b - b.scalar_part()
    assert (a + b).exp_nilpotent() == a.exp_nilpotent() * b.exp_nilpotent()
    for x in a.powers() + a.divided_powers() + (a + b).divided_powers():
        assert_canonical(x)


@settings(max_examples=40, deadline=None)
@given(elements(RING), elements(RING),
       st.fractions(min_value=-5, max_value=5, max_denominator=4))
def test_integration_is_linear(a, b, q):
    assert (a * q + b).integrate() == q * a.integrate() + b.integrate()
    assert a.pair(b) == b.pair(a) == (a * b).integrate()
    for x in (a * q, q * a, a * q + b, a * int(q), RING.scalar(q),
              RING.scalar(int(q)), RING.one(), RING.zero()):
        assert_canonical(x)
    assert RING.scalar(0).terms == RING.zero().terms == {}


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(["a", "b"]), max_size=2),
       st.lists(st.sampled_from(["a", "b"]), max_size=2))
def test_todd_multiplicativity(names1, names2):
    roots1 = [RING.generator(n) for n in names1]
    roots2 = [RING.generator(n) for n in names2]
    assert todd_from_roots(RING, roots1 + roots2) == \
        todd_from_roots(RING, roots1) * todd_from_roots(RING, roots2)
