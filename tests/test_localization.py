"""Fixed-point engine: exact characters, numeric localization, calibration."""

import cmath
import random
from dataclasses import replace
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiloc import builtin, builtin_names, builtin_oracle
from equiloc.localization import (PreparedInner, character, chi_tilde,
                                  component_u_laurent, default_series_order,
                                  dh_inner, equivariant_todd_at_F,
                                  kirillov_check)
from equiloc.model import (FixedComponent, NormalBlock, bundle_power,
                           cpn_linear, disjoint_union, product, shift_moment,
                           trivial_cp1)
from equiloc.quantize import classify, residue_term
from equiloc.oracle import add, convolve, cpn_weights
from equiloc.ring import RingSpec, bernoulli
from equiloc.zrational import (LaurentPolynomial, NotAPolynomial, ZRational,
                               scalar_sum)

POINT = RingSpec.point()


def point_component(name, moment, weights):
    blocks = [NormalBlock(w, [POINT.zero()]) for w in weights]
    return FixedComponent(name, 0, moment, POINT, POINT.one(), POINT.zero(),
                          blocks)


# -- chi_tilde ----------------------------------------------------------------

def test_chi_tilde_point_single_weight():
    F = point_component("f", 0, [1])
    for m in (0, 3):
        assert chi_tilde(F, m) == ZRational(0, {0: 1}, {1: 1})


def test_chi_tilde_point_two_weights():
    F = point_component("f", 0, [1, -1])
    assert chi_tilde(F, 1) == ZRational(1, {0: -1}, {1: 2})   # -z/(1-z)^2


def test_chi_tilde_cp1_component():
    # the sphere component at moment zero inside cpn_linear([0,0,1],1):
    # (m+1)/(1-z) - z/(1-z)^2, the sign of the z-term pinned by the oracle
    F = builtin("cp001").component("w0")
    m = 1
    want = scalar_sum([ZRational(0, {0: m + 1}, {1: 1}),
                       ZRational(1, {0: -1}, {1: 2})])
    assert chi_tilde(F, m) == want


def test_chi_tilde_nilpotent_root_example():
    # on the sphere's ring, todd 1 + h, omega h and one root h of weight 1:
    # 1/(1 - z e^h) = 1/(1-z) + z h/(1-z)^2 and e^{mh}(1 + h) = 1 + (m+1)h,
    # so integrating h to 1 leaves (m+1)/(1-z) + z/(1-z)^2
    ring = RingSpec((("h", 2),), 2, {(1,): Fraction(1)})
    h = ring.generator("h")
    F = FixedComponent("f", 2, 0, ring, ring.one() + h, h,
                       [NormalBlock(1, [h])])
    for m in range(5):
        want = scalar_sum([ZRational(0, {0: m + 1}, {1: 1}),
                           ZRational(1, {0: 1}, {1: 2})])
        assert chi_tilde(F, m) == want
        series = chi_tilde(F, m).series_coefficients(5)
        assert [series.get(j, 0) for j in range(6)] == [m + 1 + j
                                                        for j in range(6)]


def test_chi_tilde_negative_weight_nilpotent_example():
    # the same sphere with its root of weight -1: 1/(1 - z^-1 e^h) is
    # -z e^{-h}/(1 - z e^{-h}) = -z(1 - h)(1/(1-z) - z h/(1-z)^2), and with
    # 1 + (m+1)h integrating h to 1 leaves -m z/(1-z) + z^2/(1-z)^2
    ring = RingSpec((("h", 2),), 2, {(1,): Fraction(1)})
    h = ring.generator("h")
    F = FixedComponent("f", 2, 0, ring, ring.one() + h, h,
                       [NormalBlock(-1, [h])])
    for m in range(5):
        want = scalar_sum([ZRational(1, {0: -m}, {1: 1}),
                           ZRational(2, {0: 1}, {1: 2})])
        assert chi_tilde(F, m) == want
        series = chi_tilde(F, m).series_coefficients(5)
        assert [series.get(j, 0) for j in range(6)] == [0] + [j - 1 - m
                                                              for j in
                                                              range(1, 6)]


def test_chi_tilde_single_weight_point_examples():
    # 1/(1 - z) for weight 1; 1 - z^-1 = -z^-1 (1 - z) gives -z/(1-z) for
    # weight -1; a rank-2 block of weight -2 gives z^4/(1-z^2)^2
    for weight, rank, want in [(1, 1, ZRational(0, {0: 1}, {1: 1})),
                               (-1, 1, ZRational(1, {0: -1}, {1: 1})),
                               (-2, 2, ZRational(4, {0: 1}, {2: 2}))]:
        F = FixedComponent("p", 0, 0, POINT, POINT.one(), POINT.zero(),
                           [NormalBlock(weight, [POINT.zero()] * rank)])
        for m in range(3):
            assert chi_tilde(F, m) == want, (weight, rank, m)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-4, max_value=4).filter(lambda k: k != 0),
       st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                min_size=1, max_size=2))
def test_chi_tilde_single_block_matches_localization(k, coefficients):
    # one normal block of weight k whose roots c h are arbitrary nilpotents,
    # on either side of zero, against the localized integral
    ring = RingSpec((("h", 2),), 2, {(1,): Fraction(1)})
    h = ring.generator("h")
    F = FixedComponent("f", 2, 0, ring, ring.one() + h, h,
                       [NormalBlock(k, [h * c for c in coefficients])])
    for m in range(5):
        _assert_matches_localization(F, m)


# -- character ----------------------------------------------------------------

def _u_laurent(chi, top):
    """The u-Laurent coefficients of chi(e^u) up to u^top, exact, from
    z^e = sum_n (e u)^n/n! and 1/(1 - e^{ku}) = -(1/ku) sum_n B_n (ku)^n/n!."""
    poles = sum(chi.den.values())
    length = top + poles + 1
    series = [Fraction(0)] * length
    for j, c in chi.num.items():
        e = chi.shift + j
        for n in range(length):
            series[n] += c * Fraction(e ** n, factorial(n))
    for k, mult in chi.den.items():
        factor = [-bernoulli(n) * Fraction(k) ** (n - 1) / factorial(n)
                  for n in range(length)]
        for _ in range(mult):
            series = [sum(series[i] * factor[n - i] for i in range(n + 1))
                      for n in range(length)]
    return {n - poles: c for n, c in enumerate(series) if c}


def _assert_matches_localization(F, m):
    """chi_tilde(F, m) at z = e^u against the localized integral
    int_F e^{m omega} Td_{S^1} / e_F, by td(y)/y = 1/(1 - e^{-y}).

    A difference z^s Q(z)/D(z) with Q of span S whose u-expansion vanishes
    up to u^{S + deg D} has Q = 0, so the coefficients up to `top` decide
    equality; the localized series is exact up to its order less the
    deepest pole, normal rank plus dim_F/2."""
    chi = chi_tilde(F, m)
    span = max(chi.num) - min(chi.num) if chi.num else 0
    top = span + sum(k * mult for k, mult in chi.den.items()) + 1
    order = top + F.normal_rank() + F.dim_F // 2
    want = component_u_laurent(F, m, order)
    assert _u_laurent(chi, top) == {j: c for j, c in want.items()
                                    if j <= top}, (F.name, m)


def test_chi_tilde_point_closed_form_matches_localization():
    cp1 = builtin("cp1")
    presentations = [cp1, builtin("cp012"), builtin("dim6"),
                     product(product(cp1, cp1), cp1)]
    points = [F for p in presentations for F in p.components if F.dim_F == 0]
    assert any(w < 0 for F in points for w in F.weights())
    for F in points:
        for m in range(6):
            _assert_matches_localization(F, m)


def _piece_presentations():
    """Every builtin; the product with a trivially acted-on sphere, whose
    components have dim_F 4 and 2 (three and two chi_tilde pieces); and a
    CP^4 whose two CP^1 components have normal weights of both signs with
    nonzero Chern roots."""
    out = [builtin(name) for name in builtin_names()]
    big = product(trivial_cp1(), builtin("cp001"))
    assert sorted(len(F.chi_pieces) for F in big.components) == [2, 3]
    return out + [big, cpn_linear([-1, 0, 0, 1, 1], 1)]


def test_chi_tilde_pieces_match_localization():
    for p in _piece_presentations():
        for F in p.components:
            for m in range(9):
                _assert_matches_localization(F, m)


def test_residue_term_matches_chi_tilde_residue():
    # each component is brought to moment zero by a shift of the moments
    for p in _piece_presentations():
        for J in sorted({F.moment for F in p.components}):
            for F in shift_moment(p, -J).f_zero():
                side = classify(F).side
                for m in range(9):
                    chi = chi_tilde(F, m)
                    plus = chi.shifted(-1).residue_at_zero()
                    minus = chi.residue_at_infinity()
                    want = {"plus": plus, "minus": minus,
                            "avg": (plus + minus) / 2}[side]
                    assert residue_term(F, m) == want, (p.name, F.name, m)


def _gaussian_binomial(n, k):
    """[n choose k]_z by [n, k] = [n-1, k-1] + z^k [n-1, k]."""
    rows = [[{0: 1}] + [{} for _ in range(k)]]
    for _ in range(n):
        prev = rows[-1]
        row = [{0: 1}]
        for j in range(1, k + 1):
            entry = dict(prev[j - 1])
            for e, c in prev[j].items():
                entry[e + j] = entry.get(e + j, 0) + c
            row.append(entry)
        rows.append(row)
    return rows[n][k]


def test_character_cpn_linear_is_gaussian_binomial():
    got = character(cpn_linear(list(range(11)), 1), 30)
    assert got == LaurentPolynomial(_gaussian_binomial(40, 10))


def test_character_matches_oracle_all_builtins():
    for name in builtin_names():
        p = builtin(name)
        for m in range(0, 6):
            assert character(p, m) == builtin_oracle(name, m).to_laurent(), \
                (name, m)


def test_character_worked_examples():
    assert character(builtin("cp1"), 2) == LaurentPolynomial(
        {0: 1, 1: 1, 2: 1})
    assert character(builtin("cp001"), 1) == LaurentPolynomial({0: 2, 1: 1})


def test_character_m0_is_one_for_connected_builders():
    for name in ("cp1", "cp001", "cp012", "prod11", "dim6", "dim6b"):
        assert character(builtin(name), 0) == LaurentPolynomial({0: 1})


def test_character_weight_support_bound():
    for name in builtin_names():
        p = builtin(name)
        jmin = min(F.moment for F in p.components)
        jmax = max(F.moment for F in p.components)
        for m in range(0, 5):
            lo, hi = character(p, m).support()
            assert lo >= m * jmin and hi <= m * jmax


def test_inconsistent_data_fails_pole_cancellation():
    p = cpn_linear([0, 1], 1)
    F = p.components[0]
    p.components[0] = replace(                # breaks global consistency
        F, blocks=[replace(F.blocks[0], weight=2)] + F.blocks[1:])
    with pytest.raises(NotAPolynomial):
        character(p, 1)


def _cpn_case(weights, d, shift):
    return (cpn_linear(weights, d, shift),
            lambda m: cpn_weights(weights, d, m, shift))


def _compose(case, step):
    """One builder applied to (presentation, oracle of m), oracle alongside."""
    (p, oracle), (op, (q, other), k) = case, step
    if op == "product":
        return product(p, q), lambda m: convolve(oracle(m), other(m))
    if op == "power":
        return bundle_power(p, k), lambda m: oracle(k * m)
    if op == "shift":
        return shift_moment(p, k), lambda m: oracle(m).shifted(k * m)
    return (disjoint_union(p, shift_moment(p, k)),
            lambda m: add(oracle(m), oracle(m).shifted(k * m)))


# repeated weights give positive-dimensional components whose normal
# blocks have weights of both signs and nonzero Chern roots
cpn_cases = st.builds(_cpn_case,
                      st.lists(st.integers(min_value=0, max_value=3),
                               min_size=2, max_size=5),
                      st.integers(min_value=1, max_value=2),
                      st.integers(min_value=-2, max_value=2))
steps = st.tuples(st.sampled_from(["product", "power", "shift", "union"]),
                  st.builds(_cpn_case,
                            st.lists(st.integers(min_value=0, max_value=3),
                                     min_size=2, max_size=3),
                            st.just(1), st.just(0)),
                  st.integers(min_value=1, max_value=2))


@settings(max_examples=60, deadline=None)
@given(cpn_cases, st.lists(steps, max_size=2))
def test_composed_characters_match_oracle(case, ops):
    for step in ops:
        case = _compose(case, step)
    p, oracle = case
    for m in range(5):
        assert character(p, m) == oracle(m).to_laurent(), (p.name, m)


def test_random_consistency_preserving_transforms():
    rng = random.Random(7)
    bases = ["cp1", "cp001", "cp012", "prod11"]
    for _ in range(100):
        p = builtin(rng.choice(bases))
        op = rng.randrange(3)
        if op == 0:
            p = shift_moment(p, rng.randint(-4, 4))
        elif op == 1:
            p = product(p, builtin(rng.choice(["cp1", "prod11"])))
        else:
            p = bundle_power(p, rng.randint(1, 3))
        character(p, rng.randint(0, 2))    # must not raise


# -- totals -------------------------------------------------------------------

def test_rr_total_worked_examples():
    # RR(M, L^m) is the character at z = 1
    for m in range(0, 6):
        assert character(builtin("cp1"), m).evaluate_at_one() == m + 1
        assert (character(builtin("cp012"), m).evaluate_at_one()
                == (m + 1) * (m + 2) // 2)
    two = product(cpn_linear([0, 1], 1), cpn_linear([0, 1], 1))
    for m in range(0, 4):
        assert character(two, m).evaluate_at_one() == (m + 1) ** 2


def test_kunneth_consistency_at_z_equals_one():
    a, b = builtin("cp1"), builtin("cp012")
    p = product(a, b)
    for m in (1, 2, 3):
        assert (character(p, m).evaluate_at_one()
                == character(a, m).evaluate_at_one()
                * character(b, m).evaluate_at_one())
        want = convolve(builtin_oracle("cp1", m), builtin_oracle("cp012", m))
        assert character(p, m) == want.to_laurent()


# -- numeric localization ------------------------------------------------------

def test_dh_inner_rejects_zero():
    with pytest.raises(ValueError):
        dh_inner(builtin("cp1"), 1, 0.0)


def test_dh_inner_m0_todd_is_regular_with_total_rr():
    # at m = 0 the localized Todd class sums to the character chi^(0)(e^u):
    # every pole cancels and the constant term is RR(M, L^0) = chi^(0)(1),
    # 1 for a connected manifold and 3 for the three pieces of dgmw
    for name in ("cp1", "cp001", "cp012", "prod11", "dim6", "dgmw"):
        p = builtin(name)
        poly = PreparedInner(p, 0, 8).laurent_sum(8)
        assert min(poly) >= 0, name
        assert poly[0] == character(p, 0).evaluate_at_one(), name


def converting_evaluate(prepared, x):
    """The integrand over the exact `terms`, each coefficient converted
    with complex(Fraction) on every call: Horner from the highest power to
    the lowest, then a Kahan sum over components in document order."""
    u = 2j * cmath.pi * x
    total = 0j
    comp = 0j
    for J, laurent in prepared.terms:
        if not laurent:
            continue
        lo = min(laurent)
        acc = 0j
        for j in range(max(laurent), lo - 1, -1):
            acc = acc * u + complex(laurent.get(j, Fraction(0)))
        term = cmath.exp(prepared.m * J * u) * acc * u ** lo
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


@pytest.mark.parametrize("name", builtin_names())
def test_frozen_evaluate_is_bit_identical_to_converting(name):
    p = builtin(name)
    for m in (0, 8, 64):
        prepared = PreparedInner(p, m, 12)
        for x in (0.004, 0.037, 0.1, 0.19, 0.25):
            assert prepared.evaluate(x) == converting_evaluate(prepared, x), \
                (name, m, x)


def test_dh_inner_moment_shift_factor():
    p = builtin("cp001")
    q = shift_moment(p, 2)
    m, x = 3, 0.07
    a = dh_inner(p, m, x)
    b = dh_inner(q, m, x)
    assert abs(b - cmath.exp(2j * cmath.pi * m * x * 2) * a) < 1e-12


def test_dh_inner_conjugate_symmetry():
    p = builtin("prod11")
    for x in (0.05, 0.13):
        a = dh_inner(p, 2, x)
        b = dh_inner(p, 2, -x)
        assert abs(b - a.conjugate()) < 1e-11


# -- equivariant Todd and the Kirillov identity --------------------------------

def test_equivariant_todd_point_no_blocks():
    F = FixedComponent("pt", 0, 0, POINT, POINT.one(), POINT.zero(), [])
    assert equivariant_todd_at_F(F, 6).integrate_over_F() == {0: Fraction(1)}


def test_equivariant_todd_point_single_block():
    # td(-u) = 1 - u/2 + u^2/12 - ...
    F = point_component("pt", 0, [1])
    series = equivariant_todd_at_F(F, 4).integrate_over_F()
    assert series[0] == 1
    assert series[1] == Fraction(-1, 2)
    assert series[2] == Fraction(1, 12)
    assert series.get(3, Fraction(0)) == 0
    assert series[4] == Fraction(-1, 720)


def test_component_laurent_cp1_minimum():
    # 1/(1 - e^u) = -1/u + 1/2 - u/12 + ...
    F = builtin("cp1").component("w0")
    laurent = component_u_laurent(F, 0, 3)
    assert laurent[-1] == -1
    assert laurent[0] == Fraction(1, 2)
    assert laurent[1] == Fraction(-1, 12)


def test_kirillov_check_builders():
    for name in ("cp1", "cp001", "prod11"):
        p = builtin(name)
        for m in (1, 2, 3, 4):
            dev = kirillov_check(p, m, [0.05, 0.1, 0.2])
            assert dev < 1e-8, (name, m, dev)


def test_kirillov_check_near_half_without_weight_two():
    # x near 1/2 is fine when every |weight| is 1
    dev = kirillov_check(builtin("cp1"), 3, [0.45])
    assert dev < 1e-8


def test_kirillov_uncalibrated_negative_control():
    # the localized integral of the rotation sphere with every weight
    # doubled must miss the rotation sphere's own character
    cp1 = builtin("cp1")
    q = builtin("cp1")
    q.components = [
        replace(F, blocks=[replace(b, weight=2 * b.weight) for b in F.blocks])
        for F in q.components]
    chi = character(cp1, 3).evaluate(cmath.exp(2j * cmath.pi * 0.1))
    assert abs(chi - dh_inner(cp1, 3, 0.1)) < 1e-8
    assert abs(chi - dh_inner(q, 3, 0.1)) > 0.1


def test_series_order_is_stable_when_raised():
    p = builtin("cp001")
    base = default_series_order(p, 0.2)
    a = dh_inner(p, 2, 0.2, order=base)
    b = dh_inner(p, 2, 0.2, order=base + 10)
    assert abs(a - b) < 1e-12 * max(1.0, abs(a))

