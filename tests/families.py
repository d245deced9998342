"""Presentations paired with their characters counted without
localization, composed on both sides at once.

The base families are `cpn_linear` (monomial enumeration), `trivial_cp1(d)`,
the builtins (`builtin_oracle`) and the projective bundles over curves
(`curve_bundles`, Riemann-Roch on the curve).  Each builder has an exact
counterpart on characters: `product` the convolution (Kunneth),
`shift_moment` by s every exponent moved by m s, `bundle_power` by k the
character at k m, and `disjoint_union` the sum.  `tests/test_layering.py`
pins that no oracle here shares code with the character it checks."""

from typing import Callable, NamedTuple

from hypothesis import strategies as st

from curve_bundles import document, enumerated_character
from equiloc import builders
from equiloc.builtins import builtin, builtin_names, builtin_oracle
from equiloc.model import (FixedComponent, ManifoldPresentation,
                           NormalBlock, parse)
from equiloc.oracle import WeightMultiset, add, convolve, cpn_weights
from equiloc.ring import RingSpec

POINT = RingSpec.point()


def point_component(name, moment, weights):
    """An isolated fixed point with the given normal weights."""
    blocks = [NormalBlock(w, (POINT.zero(),)) for w in weights]
    return FixedComponent(name, moment, POINT, POINT.one(), POINT.zero(),
                          blocks)


class Case(NamedTuple):
    presentation: ManifoldPresentation
    oracle: Callable[[int], WeightMultiset]


def product(a: Case, b: Case) -> Case:
    return Case(builders.product(a.presentation, b.presentation),
                lambda m: convolve(a.oracle(m), b.oracle(m)))


def shift(a: Case, s: int) -> Case:
    return Case(builders.shift_moment(a.presentation, s),
                lambda m: WeightMultiset({e + m * s: c for e, c
                                          in a.oracle(m).coeffs.items()}))


def power(a: Case, k: int) -> Case:
    return Case(builders.bundle_power(a.presentation, k),
                lambda m: a.oracle(k * m))


def union(a: Case, b: Case) -> Case:
    return Case(builders.disjoint_union(a.presentation, b.presentation),
                lambda m: add(a.oracle(m), b.oracle(m)))


def _cpn(weights, d, s):
    return Case(builders.cpn_linear(weights, d, s),
                lambda m: cpn_weights(weights, d, m, s))


# repeated weights give positive-dimensional components whose normal
# blocks have weights of both signs and nonzero Chern roots
cpn = st.builds(_cpn, st.lists(st.integers(-2, 2), min_size=2, max_size=5),
                st.integers(1, 2), st.integers(-2, 2))
trivial = st.integers(1, 2).map(
    lambda d: Case(builders.trivial_cp1(d),
                   lambda m: cpn_weights([0, 0], d, m)))
builtins = st.sampled_from(builtin_names()).map(
    lambda name: Case(builtin(name), lambda m: builtin_oracle(name, m)))


@st.composite
def _bundle(draw):
    """P(L_0 + ... + L_n) over a curve of genus 0..4, with distinct
    weights in -4..4 and the level at a surface's moment or between two."""
    weights = draw(st.lists(st.integers(-4, 4), min_size=2, max_size=4,
                            unique=True))
    r = len(weights)
    args = (draw(st.integers(0, 4)), weights,
            draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r)),
            draw(st.integers(0, 3)),
            draw(st.integers(min(weights), max(weights))))
    return Case(parse(document(*args)),
                lambda m: enumerated_character(*args, m))


bundles = _bundle()
BASES = st.one_of(cpn, trivial, builtins, bundles)
SHIFTS = st.integers(-4, 4)


@st.composite
def cases(draw):
    """A base case, then up to two distinct combinator steps: a product
    with another base case, a shift in -4..4, a bundle power in 1..3, or a
    union with the case itself shifted.  Each step is taken at most once,
    which keeps the enumerations within `oracle`'s caps up to m = 4."""
    case = draw(BASES)
    for step in draw(st.lists(st.sampled_from(("product", "shift", "power",
                                               "union")),
                              max_size=2, unique=True)):
        if step == "product":
            case = product(case, draw(BASES))
        elif step == "shift":
            case = shift(case, draw(SHIFTS))
        elif step == "power":
            case = power(case, draw(st.integers(1, 3)))
        else:
            case = union(case, shift(case, draw(SHIFTS)))
    return case
