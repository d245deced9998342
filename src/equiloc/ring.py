"""Exact arithmetic in truncated graded-commutative rings.

A ring here models the even-degree cohomology of a compact manifold F:
finitely many generators of even degree >= 2, all products truncated above
a fixed even degree (the dimension of F), and an integration functional
pairing top-degree monomials with exact rationals.  Restricting to even
degrees makes the ring honestly commutative, so no sign bookkeeping is
needed anywhere downstream.

All coefficients are `fractions.Fraction`; nothing in this module touches
floating point.

The ring's text form is one ASCII grammar for class expressions, monomial
keys and the values of an integration table.  A factor is a coefficient
`p` or `p/q` (digits 0-9) or a generator `name` with an optional power
`^e`; a term is factors joined by `*`; an expression is terms joined by
`+` / `-`, with an optional leading sign (`h`, `3/2`, `2 * h^2`,
`-1/2 + a * b^2`).  Whitespace may surround every token but may not split
a number or a name.  A monomial key is one term with coefficient exactly 1
(`h^2`, `a^1 * b^1`, `1`).  The canonical printer always emits the full
`coef * g^e` form with terms in graded-lexicographic order, so serialized
documents are bit-stable.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from operator import add
from typing import Iterable, Mapping, Sequence, Union

Rat = Union[int, Fraction]
_ZERO, _ONE = Fraction(0), Fraction(1)    # shared: Fractions are immutable


class RingError(ValueError):
    """Raised on malformed ring data, text or cross-ring arithmetic."""


def brief(value: Union[str, int]) -> str:
    """`value`, an int written through Decimal, which str()'s 4,300-digit
    limit does not bind; or its first 32 characters and its length when
    longer: an error line quotes an input in full only when it is short."""
    text = value if isinstance(value, str) else str(Decimal(value))
    return text if len(text) <= 32 else (
        f"{text[:32]}... ({len(text)} characters)")


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """n-th Bernoulli number (B1 = -1/2), by the standard recurrence."""
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if n == 0:
        return Fraction(1)
    # sum_{k=0}^{n} C(n+1, k) B_k = 0  for n >= 1
    acc = Fraction(0)
    for k in range(n):
        acc += Fraction(comb(n + 1, k)) * bernoulli(k)
    return -acc / (n + 1)


@lru_cache(maxsize=None)
def todd_coefficient(n: int) -> Fraction:
    """Coefficient of y^n in y/(1 - e^{-y}): B_n / n!, except +1/2 at n = 1.

    The series is 1 + y/2 + sum_{j>=1} B_{2j} y^{2j} / (2j)!.
    """
    return Fraction(1, 2) if n == 1 else bernoulli(n) / factorial(n)


class RingSpec:
    """Presentation of a truncated graded ring with an integration table.

    generators        -- ordered (name, even degree >= 2) pairs
    truncation_degree -- even integer; products above it are discarded
    integration_table -- exponent tuple -> rational, keys of total degree
                         exactly `truncation_degree`
    """

    __slots__ = ("generators", "truncation_degree", "integration_table",
                 "_gen_degrees")

    def __init__(self, generators: Sequence[tuple[str, int]],
                 truncation_degree: int,
                 integration_table: Mapping[tuple[int, ...], Rat]):
        gens = tuple((str(n), int(d)) for n, d in generators)
        names = [n for n, _ in gens]
        if len(set(names)) != len(names):
            raise RingError("duplicate generator names")
        for i, (_, deg) in enumerate(gens):
            if deg < 2 or deg % 2 != 0:
                raise RingError(f"generators[{i}] has degree {brief(deg)}; "
                                "must be even and >= 2")
        if truncation_degree < 0 or truncation_degree % 2 != 0:
            raise RingError("truncation_degree must be even and >= 0")
        self.generators = gens
        self.truncation_degree = int(truncation_degree)
        self._gen_degrees = tuple(d for _, d in gens)
        table = {}
        for mono, val in integration_table.items():
            mono = tuple(int(e) for e in mono)
            if len(mono) != len(gens):
                raise RingError("integration table key has wrong arity")
            if self.monomial_degree(mono) != truncation_degree:
                key = brief(monomial_to_string(self, mono))
                raise RingError(
                    f"integration table key {key} does not have top degree")
            table[mono] = val if isinstance(val, Fraction) else Fraction(val)
        self.integration_table = table

    @staticmethod
    @lru_cache(maxsize=None)
    def point() -> "RingSpec":
        """The ring of a point: no generators, truncation 0, integral 1
        (one shared instance; rings are never mutated)."""
        return RingSpec((), 0, {(): Fraction(1)})

    def monomial_degree(self, mono: tuple[int, ...]) -> int:
        return sum(e * d for e, d in zip(mono, self._gen_degrees))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, RingSpec)
            and self.generators == other.generators
            and self.truncation_degree == other.truncation_degree
            and self.integration_table == other.integration_table)

    def __repr__(self):
        gens = ", ".join(f"{n}:{d}" for n, d in self.generators)
        return f"RingSpec([{gens}], trunc={self.truncation_degree})"

    # -- element constructors -------------------------------------------------

    def zero(self) -> "GradedElement":
        return self.scalar(0)

    def one(self) -> "GradedElement":
        return GradedElement._of(self, {(0,) * len(self.generators): _ONE})

    def scalar(self, c: Rat) -> "GradedElement":
        """c times 1: one canonical term, or none for c = 0."""
        return GradedElement._of(self, {(0,) * len(self.generators):
                                        Fraction(c)} if c else {})

    def generator(self, name: str) -> "GradedElement":
        for i, (n, _) in enumerate(self.generators):
            if n == name:
                expo = [0] * len(self.generators)
                expo[i] = 1
                return GradedElement(self, {tuple(expo): Fraction(1)})
        raise RingError(f"no generator named {name!r}")


class GradedElement:
    """Element of a RingSpec, canonical: `terms` maps monomials of degree
    at most the truncation degree to nonzero Fractions.  The constructor
    canonicalizes outside input (parse, the builders); the trusted
    constructor `_of` keeps terms that are canonical already: those of
    `RingSpec.scalar` and of arithmetic on canonical elements."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingSpec, terms: Mapping[tuple[int, ...], Rat]):
        self.ring = ring
        clean = {}
        for mono, c in terms.items():
            if not c:
                continue
            mono = tuple(int(e) for e in mono)
            deg = ring.monomial_degree(mono)
            if deg > ring.truncation_degree:
                continue
            clean[mono] = c if isinstance(c, Fraction) else Fraction(c)
        self.terms = clean

    @classmethod
    def _of(cls, ring: RingSpec, terms: dict) -> "GradedElement":
        """The element of canonical `terms`, taken as they are."""
        elem = cls.__new__(cls)
        elem.ring, elem.terms = ring, terms
        return elem

    # -- basics ---------------------------------------------------------------

    def _check(self, other: "GradedElement"):
        if self.ring != other.ring:
            raise RingError("elements live in different rings")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def scalar_part(self) -> Fraction:
        return self.terms.get((0,) * len(self.ring.generators), _ZERO)

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __repr__(self):
        return f"<{element_to_string(self)}>"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.scalar(other)
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms[m] + c if m in terms else c
        return self._of(self.ring, {m: c for m, c in terms.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return self._of(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._of(self.ring, {m: c * other for m, c in
                                        self.terms.items()} if other else {})
        self._check(other)
        ring = self.ring
        degree = ring.monomial_degree
        right = sorted((degree(m), m, c) for m, c in other.terms.items())
        out: dict[tuple[int, ...], Fraction] = {}
        for m1, c1 in self.terms.items():
            room = ring.truncation_degree - degree(m1)
            for d2, m2, c2 in right:
                if d2 > room:
                    break
                m = tuple(map(add, m1, m2))
                out[m] = out[m] + c1 * c2 if m in out else c1 * c2
        return self._of(ring, {m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    # -- the operations the formulas need --------------------------------------

    def powers(self) -> list["GradedElement"]:
        """1, x, x^2, ... up to the last nonzero power of a nilpotent x: the
        one walk over the powers of a class.  RingError on a nonzero scalar
        part, whose powers never vanish; a zero scalar part leaves only
        monomials of degree >= 2, so the walk ends by truncation."""
        if self.scalar_part() != 0:
            raise RingError("a nilpotent element must have zero scalar part")
        out, term = [self.ring.one()], self
        while term:
            out.append(term)
            term = term * self
        return out

    def divided_powers(self) -> list["GradedElement"]:
        """x^j / j! over `powers`: the terms of exp(x), so that
        exp(m x) = sum_j m^j x^j / j! is a polynomial in m."""
        powers = self.powers()
        return powers[:2] + [p * Fraction(1, factorial(j))
                             for j, p in enumerate(powers[2:], 2)]

    def exp_nilpotent(self) -> "GradedElement":
        """exp of a nilpotent element (zero scalar part); finite sum."""
        return sum(self.divided_powers(), self.ring.zero())

    def pair(self, other: "GradedElement") -> Fraction:
        """int self * other, without the product's lower terms: the pairs
        of monomials whose product is a key of the integration table: int
        numerators summed over the lcm of their denominators, one Fraction."""
        self._check(other)
        table = self.ring.integration_table
        right = [(m, *c.as_integer_ratio()) for m, c in other.terms.items()]
        ratios = []
        for m1, c1 in self.terms.items():
            n1, d1 = c1.as_integer_ratio()
            for m2, n2, d2 in right:
                weight = table.get(tuple(map(add, m1, m2)))
                if weight is not None:
                    n, d = weight.as_integer_ratio()
                    ratios.append((n1 * n2 * n, d1 * d2 * d))
        den = lcm(*(d for _, d in ratios))
        return Fraction(sum(n * (den // d) for n, d in ratios), den)

    def integrate(self) -> Fraction:
        """The top-degree part against the integration table, whose keys
        are all of top degree (`RingSpec`): the pairing with 1."""
        return self.pair(self.ring.one())


def todd_from_roots(ring: RingSpec,
                    roots: Iterable[GradedElement]) -> GradedElement:
    """prod_i r_i/(1 - e^{-r_i}), truncated in `ring`, for nilpotent
    classes r_i of pure degree 2."""
    result = ring.one()
    for r in roots:
        if r.ring != ring:
            raise RingError("root lives in a different ring")
        if any(ring.monomial_degree(mono) != 2 for mono in r.terms):
            raise RingError("Todd roots must be of pure degree 2")
        result = result * sum((p * todd_coefficient(n)
                               for n, p in enumerate(r.powers())), ring.zero())
    return result


# ---------------------------------------------------------------------------
# text form


_FACTOR = re.compile(r"\s*(?:([0-9]+)(?:/([0-9]+))?"
                     r"|([A-Za-z_][A-Za-z_0-9]*)(?:\s*\^\s*([0-9]+))?)\s*")
_SIGN = re.compile(r"([+-])")


def _integer(digits: str) -> int:
    """int(digits); past int()'s digit limit, an error with the count."""
    try:
        return int(digits)
    except ValueError:
        raise RingError(f"a number has {len(digits)} digits, more "
                        f"than {sys.get_int_max_str_digits()}") from None


def _term(names: Sequence[str], text: str) -> tuple[Fraction, tuple[int, ...]]:
    """The coefficient and the exponents of one term over `names`."""
    num, den = 1, 1
    expo = [0] * len(names)
    for factor in text.split("*"):
        m = _FACTOR.fullmatch(factor)
        if m is None:
            raise RingError("expected p, p/q or a generator in term "
                            + brief(repr(text.strip())))
        p, q, name, power = m.groups()
        if p is not None:
            num *= _integer(p)
            if q is not None:
                den *= _integer(q)
                if den == 0:
                    raise RingError(
                        f"zero denominator in {brief(f'{p}/{q}')}")
        elif name in names:
            expo[names.index(name)] += _integer(power or "1")
        else:
            raise RingError(f"unknown generator {brief(repr(name))}")
    return Fraction(num, den), tuple(expo)


def string_to_element(ring: RingSpec, text: str) -> GradedElement:
    """Parse a polynomial expression into a GradedElement of `ring`; a
    nonzero term above the ring's truncation degree is an error, never
    dropped."""
    names = tuple(name for name, _ in ring.generators)
    first, *rest = _SIGN.split(text)
    pieces = rest if rest and not first.strip() else ["+", first, *rest]
    terms: dict[tuple[int, ...], Fraction] = {}
    for sign, body in zip(pieces[::2], pieces[1::2]):
        coef, mono = _term(names, body)
        coef = coef if sign == "+" else -coef
        terms[mono] = terms[mono] + coef if mono in terms else coef
    elem = GradedElement(ring, terms)
    # the element drops the terms above the truncation degree
    for mono, coef in terms.items():
        if mono not in elem.terms and coef:
            raise RingError(
                f"term {brief(monomial_to_string(ring, mono))} of degree "
                f"{brief(ring.monomial_degree(mono))} is above the "
                f"truncation degree {brief(ring.truncation_degree)}")
    return elem


def string_to_monomial(names: Sequence[str], text: str) -> tuple[int, ...]:
    """The exponents of a monomial key over the generator `names`."""
    coef, mono = _term(tuple(names), text)
    if coef != 1:
        raise RingError(
            f"monomial {brief(repr(text))} has a coefficient other than 1")
    return mono


def monomial_to_string(ring: RingSpec, mono: tuple[int, ...]) -> str:
    parts = [f"{name}^{Decimal(e)}"    # no digit limit, as in `brief`
             for (name, _), e in zip(ring.generators, mono) if e]
    return "*".join(parts) if parts else "1"


def element_to_string(elem: GradedElement) -> str:
    """Canonical printing: graded-lex term order, reduced `p/q` coefficients."""
    ring = elem.ring
    out = ""
    for mono in sorted(elem.terms, key=lambda m: (ring.monomial_degree(m),
                                                  tuple(-e for e in m))):
        coef = elem.terms[mono]
        if out:
            out += " - " if coef < 0 else " + "
        elif coef < 0:
            out = "-"
        out += str(abs(coef))
        if any(mono):
            out += " * " + monomial_to_string(ring, mono).replace("*", " * ")
    return out or "0"
