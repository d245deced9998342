"""Fixed-point engine: exact characters, numeric localization, calibration."""

import cmath
import random
from fractions import Fraction
from math import comb, factorial, prod

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from equiloc import builtin, builtin_names, builtin_oracle
from equiloc.builders import (bundle_power, cpn_linear, disjoint_union,
                              product, shift_moment, trivial_cp1)
from equiloc.localization import character, chi_tilde, chi_tilde_pieces
import equiloc.localization as localization
from equiloc.model import FixedComponent, NormalBlock, replace
from equiloc.quantize import residue_term
from equiloc.oracle import WeightMultiset, add, convolve, cpn_weights
from equiloc.ring import RingError, RingSpec, bernoulli, todd_coefficient
from equiloc.useries import (PreparedInner, component_u_laurent,
                             default_series_order, equivariant_todd_at_F)
from equiloc.zrational import (LaurentPolynomial, NotAPolynomial, ZRational,
                               scalar_sum)
from localized import dh_inner, kirillov_check

POINT = RingSpec.point()


def point_component(name, moment, weights):
    blocks = [NormalBlock(w, (POINT.zero(),)) for w in weights]
    return FixedComponent(name, moment, POINT, POINT.one(), POINT.zero(),
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
    F = FixedComponent("f", 0, ring, ring.one() + h, h,
                       [NormalBlock(1, (h,))])
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
    F = FixedComponent("f", 0, ring, ring.one() + h, h,
                       [NormalBlock(-1, (h,))])
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
        F = FixedComponent("p", 0, POINT, POINT.one(), POINT.zero(),
                           [NormalBlock(weight, (POINT.zero(),) * rank)])
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
    F = FixedComponent("f", 0, ring, ring.one() + h, h,
                       [NormalBlock(k, tuple(h * c for c in coefficients))])
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


def _assert_exact_at_every_power(p, m, order):
    """Every power component_u_laurent returns, up to u^order, against the
    expansion of chi_tilde; and each moment level of PreparedInner against
    the sum of those expansions over the components at that moment."""
    levels = {}
    for F in p.components:
        want = _u_laurent(chi_tilde(F, m), order)
        assert component_u_laurent(F, m, order) == want, (p.name, F.name)
        acc = levels.setdefault(F.moment, {})
        for j, c in want.items():
            acc[j] = acc.get(j, 0) + c
    prepared = PreparedInner(p, m, order)
    assert [J for J, _ in prepared.levels] == sorted(levels)
    for J, row in prepared.levels:
        assert {prepared.lo + n: Fraction(c, prepared.den)
                for n, c in enumerate(row) if c} \
            == {j: c for j, c in levels[J].items() if c}, (p.name, J)


@pytest.mark.parametrize("p", [builtin(name) for name in builtin_names()] + [
    cpn_linear([-1, 0, 1, 2], 1, shift=-1),
    product(trivial_cp1(), builtin("dim6"))], ids=lambda p: p.name)
def test_component_u_laurent_is_exact_at_every_power(p):
    # the top powers need the factors' terms beyond the order, which the
    # u^-r of the Euler class shifts down
    for m in (0, 3, 8):
        for order in (4, 12):
            _assert_exact_at_every_power(p, m, order)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=-2, max_value=3), min_size=2,
                max_size=4),
       st.integers(min_value=1, max_value=2),
       st.lists(st.lists(st.integers(min_value=-1, max_value=2), min_size=2,
                         max_size=3), max_size=1),
       st.integers(min_value=0, max_value=6))
def test_u_laurent_exact_on_random_compositions(weights, d, others, m):
    # repeated weights give components with nonzero Chern roots, which take
    # the USeries path; points take the closed form
    p = cpn_linear(weights, d)
    for other in others:
        p = product(p, cpn_linear(other, 1))
    _assert_exact_at_every_power(p, m, 9)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-4, max_value=4).filter(bool),
                min_size=1, max_size=5),
       st.integers(min_value=0, max_value=40))
def test_normal_todd_table_matches_bernoulli(weights, top):
    # the cached table against the function it caches and against the
    # expansion of prod_k 1/(1 - e^{k u}) = prod_k td(-k u)/(-k u); its rows
    # are tuples, shared by every caller, which none can edit
    key = tuple(sorted(weights))
    den, row = localization.normal_todd(key, top)
    assert (den, row) == localization.normal_todd.__wrapped__(key, top)
    assert type(row) is tuple and localization.normal_todd(key, top)[1] is row
    r, scale = len(key), prod(-k for k in key)
    want = _u_laurent(chi_tilde(point_component("p", 0, key), 0), top - r)
    assert {n - r: Fraction(c, den * scale)
            for n, c in enumerate(row) if c} == want


def _piece_presentations():
    """Every builtin; the product with a trivially acted-on sphere, whose
    components have dim_F 4 and 2 (three and two chi_tilde pieces); and a
    CP^4 whose two CP^1 components have normal weights of both signs with
    nonzero Chern roots."""
    out = [builtin(name) for name in builtin_names()]
    big = product(trivial_cp1(), builtin("cp001"))
    assert sorted(len(F.chi_pieces) for F in big.components) == [2, 3]
    return out + [big, cpn_linear([-1, 0, 0, 1, 1], 1)]


def test_zero_root_components_take_the_closed_form(monkeypatch):
    # every component whose normal Chern roots vanish, points included:
    # the closed form against the localized integral, and against the
    # general expansion, which `any` forced true selects
    presentations = [builtin("dgmw"), builtin("cp001"), builtin("dim6"),
                     product(trivial_cp1(2), builtin("cp012"))]
    zero_root = [F for p in presentations for F in p.components
                 if not any(r for b in F.blocks for r in b.chern_roots)]
    assert len(zero_root) >= 14 and {F.dim_F for F in zero_root} == {0, 2}
    closed = [chi_tilde_pieces(F) for F in zero_root]
    for F, pieces in zip(zero_root, closed):
        assert len(pieces) == F.dim_F // 2 + 1
        for m in range(5):
            _assert_matches_localization(F, m)
    monkeypatch.setattr(localization, "any", lambda _: True, raising=False)
    assert [chi_tilde_pieces(F) for F in zero_root] == closed


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
                side = F.classification.side
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
            assert character(p, m) == builtin_oracle(name, m), (name, m)


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
    F, *rest = p.components
    G = replace(F, blocks=(replace(F.blocks[0], weight=2), *F.blocks[1:]))
    p = replace(p, components=(G, *rest))    # breaks global consistency
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
        return shift_moment(p, k), lambda m: WeightMultiset(
            {e + k * m: c for e, c in oracle(m).counts.items()})
    return (disjoint_union(p, shift_moment(p, k)),
            lambda m: add(oracle(m), WeightMultiset(
                {e + k * m: c for e, c in oracle(m).counts.items()})))


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
        assert character(p, m) == oracle(m), (p.name, m)


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


# -- moment groups ------------------------------------------------------------

def _per_component_character(p, m):
    """The oracle of the grouping: one shifted chi_tilde per component."""
    return scalar_sum(chi_tilde(F, m).shifted(m * F.moment)
                      for F in p.components).to_laurent_polynomial()


def _cp1_power(k):
    p = cp1 = builtin("cp1")
    for _ in range(k - 1):
        p = product(p, cp1)
    return p


@settings(max_examples=40, deadline=None)
@given(cpn_cases, st.lists(steps, max_size=2), st.integers(0, 2))
def test_moment_groups_sum_like_the_components(case, ops, k):
    for step in ops:
        case = _compose(case, step)
    p = disjoint_union(case[0], shift_moment(case[0], k))
    assume(len(p.moment_groups) < len(p.components))    # a shared moment
    moments = [G.moment for G in p.moment_groups]
    assert moments == sorted({F.moment for F in p.components})
    for m in range(13):
        assert character(p, m) == _per_component_character(p, m), (p.name, m)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cp1_powers_match_convolution(k):
    p = _cp1_power(k)
    assert [G.moment for G in p.moment_groups] == list(range(k + 1))
    for m in range(13):
        want = builtin_oracle("cp1", m)
        for _ in range(k - 1):
            want = convolve(want, builtin_oracle("cp1", m))
        assert character(p, m) == want, (k, m)


def _outcome(f, p, m):
    """f(p, m), or the message of the NotAPolynomial it raises."""
    try:
        return f(p, m)
    except NotAPolynomial as e:
        return f"NotAPolynomial: {e}"


def _perturbed(p, kind, pick):
    """p with one normal weight doubled, or one moment raised by 1."""
    i = pick % len(p.components)
    F = p.components[i]
    if kind == "moment" or not F.blocks:
        G = replace(F, moment=F.moment + 1)
    else:
        j = pick // len(p.components) % len(F.blocks)
        b = replace(F.blocks[j], weight=2 * F.blocks[j].weight)
        G = replace(F, blocks=F.blocks[:j] + (b,) + F.blocks[j + 1:])
    return replace(p, components=p.components[:i] + (G,)
                   + p.components[i + 1:])


builders = st.tuples(st.sampled_from(["product", "trivial", "shift",
                                      "power"]),
                     st.lists(st.integers(min_value=0, max_value=2),
                              min_size=2, max_size=3),
                     st.integers(min_value=1, max_value=2))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=2,
                max_size=4),
       st.integers(min_value=1, max_value=2),
       st.integers(min_value=-2, max_value=2),
       st.lists(builders, max_size=2),
       st.sampled_from(["weight", "moment"]),
       st.integers(min_value=0, max_value=10 ** 6))
def test_character_matches_the_per_component_sum(weights, d, shift, steps,
                                                  kind, pick):
    # the rows kept over one denominator against one chi_tilde per
    # component summed afresh, at m = 0 (where only P_0 counts) and up
    p = cpn_linear(weights, d, shift)
    for op, other, k in steps:
        if op == "product":
            p = product(p, cpn_linear(other, 1))
        elif op == "trivial":
            p = product(trivial_cp1(k), p)
        elif op == "shift":
            p = shift_moment(p, k)
        else:
            p = bundle_power(p, k)
    q = _perturbed(p, kind, pick)
    for m in range(13):
        assert character(p, m) == _per_component_character(p, m), m
        assert _outcome(character, q, m) \
            == _outcome(_per_component_character, q, m), (kind, m)


@pytest.mark.parametrize("p", [
    product(trivial_cp1(), cpn_linear([0, 1, 3], 1)),
    product(cpn_linear([0, 0, 1], 1), cpn_linear([0, 2], 1)),
    bundle_power(shift_moment(cpn_linear([0, 1, 1, 2], 1), -1), 2)])
@pytest.mark.parametrize("kind", ["weight", "moment"])
def test_perturbed_compositions_fail_alike(p, kind):
    # every component in turn: the grouped character raises what the
    # per-component sum raises, and raises at all for some m
    for pick in range(len(p.components)):
        q = _perturbed(p, kind, pick)
        outcomes = [_outcome(character, q, m) for m in range(1, 6)]
        assert outcomes == [_outcome(_per_component_character, q, m)
                            for m in range(1, 6)]
        assert any(isinstance(o, str) for o in outcomes), (kind, pick)


def test_lone_component_keeps_its_own_pieces():
    # every level's pieces lie over the presentation's one denominator D
    # (the largest multiplicity of each k over all components) and scale;
    # a lone component's level equals its own pieces, a shared level their
    # sum
    for p in (_cp1_power(2), builtin("dgmw"), product(trivial_cp1(2),
                                                      builtin("cp001"))):
        pieces = [P for G in p.moment_groups for P in G.chi_pieces]
        D = {}
        for F in p.components:
            for k, mult in F.chi_pieces[0].den.items():
                D[k] = max(D.get(k, 0), mult)
        assert all((P.den, P.scale) == (D, pieces[0].scale) for P in pieces)
        for G in p.moment_groups:
            level = [F for F in p.components if F.moment == G.moment]
            for m in range(4):
                assert chi_tilde(G, m) == scalar_sum(
                    chi_tilde(F, m) for F in level), (p.name, m)
            if len(level) == 1:
                assert G.chi_pieces == level[0].chi_pieces


def test_grouping_keeps_inconsistent_data_inconsistent():
    # one weight of one of the two J = 1 points of (cp1)^2 doubled: the
    # group sum must not hide the poles that fail to cancel
    p = _cp1_power(2)
    i = next(i for i, F in enumerate(p.components) if F.moment == 1)
    F = p.components[i]
    G = replace(F, blocks=(replace(F.blocks[0], weight=2 * F.blocks[0].weight),
                           *F.blocks[1:]))
    q = replace(p, components=p.components[:i] + (G,) + p.components[i + 1:])
    assert len(q.moment_groups) == 3
    for m in (1, 2, 5):
        with pytest.raises(NotAPolynomial) as grouped:
            character(q, m)
        with pytest.raises(NotAPolynomial) as single:
            _per_component_character(q, m)
        assert str(grouped.value) == str(single.value)


def test_replaced_presentation_regroups():
    p = _cp1_power(2)
    groups = p.moment_groups
    q = replace(p, components=shift_moment(p, 3).components)
    assert [G.moment for G in q.moment_groups] == [3, 4, 5]
    assert p.moment_groups is groups
    assert character(q, 2) == _per_component_character(q, 2)


def test_presentation_is_frozen():
    p = _cp1_power(2)
    with pytest.raises(AttributeError):
        p.name = "renamed"
    with pytest.raises(AttributeError):
        p.components = ()
    with pytest.raises(TypeError):
        p.components[0] = p.components[1]
    with pytest.raises(TypeError):
        p.components[0].blocks[0] = p.components[1].blocks[0]


@pytest.mark.parametrize("p, calls", [(_cp1_power(8), 9),
                                      (cpn_linear(list(range(11)), 1), 11)])
def test_character_takes_one_chi_tilde_per_moment(monkeypatch, p, calls):
    seen = []

    def counted(F, m):
        seen.append(F)
        return chi_tilde(F, m)

    monkeypatch.setattr(localization, "chi_tilde", counted)
    character(p, 6)
    assert len(seen) == calls


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
        assert character(p, m) == want


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
        poly = PreparedInner(p, 0, 8).laurent_sum(8, 8)
        assert min(poly) >= 0, name
        assert poly[0] == character(p, 0).evaluate_at_one(), name


def converting_evaluate(prepared, x):
    """The integrand over the exact `levels`, each coefficient converted
    with complex(Fraction) and multiplied by i^(lo+n) on every call, then
    the arithmetic of `evaluate`: the power table of 2 pi x, one matrix
    product, e^{2 pi i mJ x} and a Kahan sum over the levels, ascending."""
    live = [(J, row) for J, row in prepared.levels if any(row)]
    matrix = np.array([[complex(Fraction(row[n], prepared.den))
                        * 1j ** (prepared.lo + n) for _, row in live]
                       for n in range(prepared.order - prepared.lo + 1)])
    t = 2 * np.pi * np.asarray(x, dtype=float)
    powers = np.empty(t.shape + (len(matrix),))
    powers[..., 0] = abs(t) ** prepared.lo
    powers[..., 0] *= np.sign(t) ** (prepared.lo % 2)
    powers[..., 1:] = t[..., None]
    np.cumprod(powers, axis=-1, out=powers)
    moments = np.array([prepared.m * J for J, _ in live], dtype=float)
    terms = np.exp(1j * np.multiply.outer(t, moments)) * (powers @ matrix)
    total = comp = np.zeros(t.shape, dtype=complex)
    for term in np.moveaxis(terms, -1, 0):
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
    return total


XS = (0.004, 0.037, 0.1, 0.19, 0.25)


@pytest.mark.parametrize("name", builtin_names())
def test_frozen_evaluate_is_bit_identical_to_converting(name):
    # at the annulus order the numerators pass 2^53, where converting them
    # to float before dividing would round twice
    p = builtin(name)
    xs = np.array(XS + tuple(-v for v in XS))
    for m in (0, 8, 64):
        for order in (12, default_series_order(p, 0.25)):
            prepared = PreparedInner(p, m, order)
            assert np.array_equal(prepared.evaluate(xs),
                                  converting_evaluate(prepared, xs)), \
                (name, m, order)
            for x in xs:
                assert (prepared.evaluate(x)
                        == converting_evaluate(prepared, x)), (name, m, x)


def _largest_level_term(prepared, x):
    """max over the levels of |sum_n R[n] / den (2 pi i x)^(lo+n)|, the
    size of the terms that cancel in the sum; |e^{2 pi i mJ x}| = 1."""
    u = 2j * cmath.pi * x
    return max(abs(sum(complex(Fraction(c, prepared.den))
                       * u ** (prepared.lo + n) for n, c in enumerate(row)))
               for _, row in prepared.levels)


@pytest.mark.parametrize("name", builtin_names())
def test_evaluate_on_arrays_matches_complex(name):
    # one array of nodes at the annulus order against the complex value
    # chi_m(e^{2 pi i x}) of the exact character (Kirillov), which shares
    # no code with `evaluate`.  The levels cancel near x = 0, so the bound
    # is relative to the largest level term; the worst case, dim6 at
    # m = 64 and x = 0.25, is about 3e-12 of it
    p = builtin(name)
    xs = XS + tuple(-v for v in XS)
    for m in (0, 8, 64):
        chi = character(p, m)
        prepared = PreparedInner(p, m, default_series_order(p, 0.25))
        got = prepared.evaluate(np.array(xs))
        for x, value in zip(xs, got):
            want = chi.evaluate(cmath.exp(2j * cmath.pi * x))
            scale = max(1.0, _largest_level_term(prepared, x))
            assert abs(value - want) <= 1e-11 * scale, (name, m, x)


@pytest.mark.parametrize("name", builtin_names())
def test_evaluate_at_minus_x_is_the_conjugate(name):
    # the levels' rows are real series in u = 2 pi i x, which is what lets
    # `witten_pair` fold the annulus onto x > 0 as twice the real part
    p = builtin(name)
    order = default_series_order(p, 0.25)
    x = np.linspace(0.004, 0.25, 125)
    for m in (0, 8, 64):
        prepared = PreparedInner(p, m, order)
        assert np.array_equal(prepared.evaluate(-x),
                              prepared.evaluate(x).conjugate()), (name, m)


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

def _todd_series(F, order):
    """equivariant_todd_at_F integrated over F, as {power: Fraction}."""
    lo, den, row = equivariant_todd_at_F(F, order).integrate_over_F()
    return {lo + n: Fraction(c, den) for n, c in enumerate(row) if c}


def test_equivariant_todd_point_no_blocks():
    F = FixedComponent("pt", 0, POINT, POINT.one(), POINT.zero(), [])
    assert _todd_series(F, 6) == {0: Fraction(1)}


def test_equivariant_todd_point_single_block():
    # td(-u) = 1 - u/2 + u^2/12 - ...
    F = point_component("pt", 0, [1])
    series = _todd_series(F, 4)
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


def test_series_reject_roots_with_a_scalar_part():
    # an unvalidated component whose Chern root is 1: every walk over the
    # powers of the root raises instead of multiplying forever
    F = builtin("cp001").component("w0")
    F = replace(F, blocks=[replace(b, chern_roots=(F.ring.one(),) * b.rank)
                           for b in F.blocks])
    for build in (lambda: equivariant_todd_at_F(F, 8),
                  lambda: component_u_laurent(F, 1, 8),
                  lambda: chi_tilde_pieces(F)):
        with pytest.raises(RingError):
            build()


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
    q = replace(cp1, components=tuple(
        replace(F, blocks=tuple(replace(b, weight=2 * b.weight)
                                for b in F.blocks))
        for F in cp1.components))
    chi = character(cp1, 3).evaluate(cmath.exp(2j * cmath.pi * 0.1))
    assert abs(chi - dh_inner(cp1, 3, 0.1)) < 1e-8
    assert abs(chi - dh_inner(q, 3, 0.1)) > 0.1


def test_series_order_is_stable_when_raised():
    p = builtin("cp001")
    base = default_series_order(p, 0.2)
    a = dh_inner(p, 2, 0.2, order=base)
    b = dh_inner(p, 2, 0.2, order=base + 10)
    assert abs(a - b) < 1e-12 * max(1.0, abs(a))



# -- integer u-series against the GradedElement oracle -------------------------
#
# The oracle keeps a u-series as {power: GradedElement}: each product is the
# double loop over powers with ring products, each integral is
# GradedElement.integrate, and the inner-disc sum runs one Fraction per
# (component, Taylor term, power).  It shares no arithmetic with the integer
# rows of `USeries` and `PreparedInner.laurent_sum`.

def _oracle_mul(s1, s2, order):
    out = {}
    for j1, c1 in s1.items():
        for j2, c2 in s2.items():
            if j1 + j2 <= order:
                prod = c1 * c2
                out[j1 + j2] = out[j1 + j2] + prod if j1 + j2 in out else prod
    return {j: c for j, c in out.items() if c}


def _oracle_td_factor(ring, weight, root, order):
    nilpowers = [ring.one()]
    while nilpowers[-1] * (-root):
        nilpowers.append(nilpowers[-1] * (-root))
    out = {}
    for q in range(order + 1):
        acc = ring.zero()
        for t, power in enumerate(nilpowers):
            acc = acc + power * (todd_coefficient(q + t) * comb(q + t, q))
        out[q] = acc * Fraction(-weight) ** q
    return {j: c for j, c in out.items() if c}


def _oracle_todd(F, order):
    series = {0: F.todd}
    for block in F.blocks:
        for root in block.chern_roots:
            series = _oracle_mul(series, _oracle_td_factor(
                F.ring, block.weight, root, order), order)
    return series


def _oracle_top(F, order):
    """order plus a bound on the depth of 1/e_F's pole: one power of u per
    normal root and per power of it up to the ring's truncation degree."""
    return order + F.normal_rank() * (F.ring.truncation_degree + 1)


def _oracle_laurent(F, m, order, todd):
    """Every coefficient up to u^order exact, from `todd` kept to
    `_oracle_top`."""
    top = _oracle_top(F, order)
    series = _oracle_mul(todd, {0: (F.omega * m).exp_nilpotent()}, top)
    for block in F.blocks:
        for root in block.chern_roots:
            inverse, power, t = {}, F.ring.one(), 0
            while power:
                inverse[-(t + 1)] = power * Fraction(-1, block.weight) ** (
                    t + 1)
                power, t = power * root, t + 1
            series = _oracle_mul(series, inverse, top)
    return {j: c for j, c in _oracle_integrate(series).items() if j <= order}


def _oracle_integrate(series):
    return {j: c.integrate() for j, c in series.items() if c.integrate()}


def _oracle_laurent_sum(p, m, order, taylor_order):
    """The inner-disc sum one component at a time, in Fractions, with no
    moment levels and no common denominator.  Each component's series is
    `_oracle_laurent`'s, whose td factors come from `todd_coefficient`:
    it shares no Todd row with `normal_todd`."""
    out = {}
    for F in p.components:
        mJ = Fraction(m * F.moment)
        laurent = _oracle_laurent(F, m, order,
                                  _oracle_todd(F, _oracle_top(F, order)))
        for t in range(taylor_order + 1 if mJ else 1):
            etc = mJ ** t / factorial(t)
            for j, c in laurent.items():
                if j + t <= order:
                    out[j + t] = out.get(j + t, 0) + etc * c
    return {j: c for j, c in out.items() if c}


def _rational_component():
    """A component whose integration table, Chern roots and omega have
    non-integer coefficients, so that every denominator the integer rows
    carry is different from 1."""
    ring = RingSpec([("h", 2)], 4, {(2,): Fraction(1, 2)})
    h = ring.generator("h")
    return FixedComponent("q", 0, ring, ring.one() + h * Fraction(3, 7),
                          h * Fraction(2, 5),
                          [NormalBlock(1, (h * Fraction(1, 3),)),
                           NormalBlock(-2, (h * Fraction(-5, 4),))])


def test_integer_series_match_graded_oracle():
    cases = 0
    components = [F for p in _piece_presentations() for F in p.components]
    for F in components + [_rational_component()]:
            for order in (5, 23, 45, 106):
                todd = _oracle_todd(F, _oracle_top(F, order))
                assert _todd_series(F, order) == _oracle_integrate(
                    {j: c for j, c in todd.items() if j <= order}), \
                    (F.name, order)
                for m in (0, 1, 8, 32):
                    assert component_u_laurent(F, m, order) == \
                        _oracle_laurent(F, m, order, todd), \
                        (F.name, m, order)
                    cases += 1
    assert cases > 600
    # nonzero Chern roots with normal weights of both signs are covered
    assert any(root for p in _piece_presentations() for F in p.components
               for b in F.blocks for root in b.chern_roots)


@pytest.mark.parametrize("name", builtin_names())
def test_laurent_sum_matches_fraction_oracle(name):
    p = builtin(name)
    for m, order, K in ((0, 8, 8), (3, 20, 30), (8, 45, 60), (64, 40, 200)):
        assert PreparedInner(p, m, order).laurent_sum(K, order) \
            == _oracle_laurent_sum(p, m, order, K), (name, m, order, K)


def test_integer_series_negative_control():
    # one weight changed: the integer series of the perturbed component
    # differ from the oracle's series of the original one
    p = builtin("cp012")
    F = p.components[0]
    G = replace(F, blocks=(replace(F.blocks[0], weight=F.blocks[0].weight + 1),
                           *F.blocks[1:]))
    todd = _oracle_todd(F, _oracle_top(F, 23))
    assert component_u_laurent(F, 8, 23) == _oracle_laurent(F, 8, 23, todd)
    assert component_u_laurent(G, 8, 23) != _oracle_laurent(F, 8, 23, todd)
    q = replace(p, components=(G, *p.components[1:]))
    assert PreparedInner(p, 8, 23).laurent_sum(30, 23) \
        == _oracle_laurent_sum(p, 8, 23, 30)
    assert PreparedInner(q, 8, 23).laurent_sum(30, 23) \
        != _oracle_laurent_sum(p, 8, 23, 30)
