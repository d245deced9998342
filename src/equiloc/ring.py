"""Exact arithmetic in truncated graded-commutative rings.

A ring here models the even-degree cohomology of a compact manifold F:
finitely many generators of even degree >= 2, all products truncated above
a fixed even degree (the dimension of F), and an integration functional
pairing top-degree monomials with exact rationals.  Restricting to even
degrees makes the ring honestly commutative, so no sign bookkeeping is
needed anywhere downstream.

All coefficients are `fractions.Fraction`; nothing in this module touches
floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Iterable, Mapping, Sequence, Union

Rat = Union[int, Fraction]


class RingError(ValueError):
    """Raised on malformed ring data or cross-ring arithmetic."""


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
                raise RingError(
                    f"generators[{i}] has degree {deg}; must be even and >= 2")
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
                from .expressions import brief
                raise RingError(f"integration table key {brief(str(mono))} "
                                "does not have top degree")
            table[mono] = Fraction(val)
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
        return GradedElement(self, {})

    def one(self) -> "GradedElement":
        return self.scalar(1)

    def scalar(self, c: Rat) -> "GradedElement":
        return GradedElement(self, {(0,) * len(self.generators): c})

    def generator(self, name: str) -> "GradedElement":
        for i, (n, _) in enumerate(self.generators):
            if n == name:
                expo = [0] * len(self.generators)
                expo[i] = 1
                return GradedElement(self, {tuple(expo): Fraction(1)})
        raise RingError(f"no generator named {name!r}")


class GradedElement:
    """Element of a RingSpec: monomial -> nonzero rational, canonical form."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingSpec, terms: Mapping[tuple[int, ...], Rat]):
        self.ring = ring
        clean = {}
        for mono, c in terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            mono = tuple(int(e) for e in mono)
            deg = ring.monomial_degree(mono)
            if deg > ring.truncation_degree:
                continue
            clean[mono] = c
        self.terms = clean

    # -- basics ---------------------------------------------------------------

    def _check(self, other: "GradedElement"):
        if self.ring != other.ring:
            raise RingError("elements live in different rings")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def scalar_part(self) -> Fraction:
        return self.terms.get((0,) * len(self.ring.generators), Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __repr__(self):
        from .expressions import element_to_string
        return f"<{element_to_string(self)}>"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.scalar(other)
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, Fraction(0)) + c
        return GradedElement(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return GradedElement(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GradedElement(
                self.ring, {m: c * other for m, c in self.terms.items()})
        self._check(other)
        ring = self.ring
        cap = ring.truncation_degree
        out: dict[tuple[int, ...], Fraction] = {}
        for m1, c1 in self.terms.items():
            d1 = ring.monomial_degree(m1)
            for m2, c2 in other.terms.items():
                if d1 + ring.monomial_degree(m2) > cap:
                    continue
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return GradedElement(ring, out)

    __rmul__ = __mul__

    # -- the operations the formulas need --------------------------------------

    def powers(self) -> list["GradedElement"]:
        """1, x, x^2, ... up to the last nonzero power of a nilpotent x: the
        one walk over the powers of a class.  RingError on a nonzero scalar
        part, whose powers never vanish; a zero scalar part leaves only
        monomials of degree >= 2, so the walk ends by truncation."""
        if self.scalar_part() != 0:
            raise RingError("a nilpotent element must have zero scalar part")
        out = [self.ring.one()]
        while True:
            term = out[-1] * self
            if not term:
                return out
            out.append(term)

    def divided_powers(self) -> list["GradedElement"]:
        """x^j / j! over `powers`: the terms of exp(x), so that
        exp(m x) = sum_j m^j x^j / j! is a polynomial in m."""
        return [p * Fraction(1, factorial(j))
                for j, p in enumerate(self.powers())]

    def exp_nilpotent(self) -> "GradedElement":
        """exp of a nilpotent element (zero scalar part); finite sum."""
        return sum(self.divided_powers(), self.ring.zero())

    def integrate(self) -> Fraction:
        """Pair the top-degree part with the integration table."""
        ring = self.ring
        total = Fraction(0)
        for mono, c in self.terms.items():
            if ring.monomial_degree(mono) == ring.truncation_degree:
                weight = ring.integration_table.get(mono)
                if weight is not None:
                    total += c * weight
        return total


def todd_of_root(root: GradedElement) -> GradedElement:
    """y/(1 - e^{-y}) for a single nilpotent degree-2 class y."""
    for mono in root.terms:
        if root.ring.monomial_degree(mono) != 2:
            raise RingError("Todd roots must be of pure degree 2")
    return sum((p * todd_coefficient(n) for n, p in enumerate(root.powers())),
               root.ring.zero())


def todd_from_roots(ring: RingSpec,
                    roots: Iterable[GradedElement]) -> GradedElement:
    """prod_i r_i/(1 - e^{-r_i}), truncated in `ring`."""
    result = ring.one()
    for r in roots:
        if r.ring != ring:
            raise RingError("root lives in a different ring")
        result = result * todd_of_root(r)
    return result
