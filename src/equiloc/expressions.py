"""Parsing and canonical printing of polynomial expressions over a ring.

One ASCII grammar serves class expressions, monomial keys and the values of
an integration table.  A factor is a coefficient `p` or `p/q` (digits 0-9)
or a generator `name` with an optional power `^e`; a term is factors joined
by `*`; an expression is terms joined by `+` / `-`, with an optional leading
sign (`h`, `3/2`, `2 * h^2`, `-1/2 + a * b^2`).  Whitespace may surround
every token but may not split a number or a name.  A monomial key is one
term with coefficient exactly 1 (`h^2`, `a^1 * b^1`, `1`).  The canonical
printer always emits the full `coef * g^e` form with terms in
graded-lexicographic order, so serialized documents are bit-stable.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from .ring import GradedElement, RingSpec

_FACTOR = re.compile(r"\s*(?:([0-9]+)(?:/([0-9]+))?"
                     r"|([A-Za-z_][A-Za-z_0-9]*)(?:\s*\^\s*([0-9]+))?)\s*")
_SIGN = re.compile(r"([+-])")


class ExpressionError(ValueError):
    """Raised on malformed polynomial or monomial strings."""


def _term(names: Sequence[str], text: str) -> tuple[Fraction, tuple[int, ...]]:
    """The coefficient and the exponents of one term over `names`."""
    num, den = 1, 1
    expo = [0] * len(names)
    for factor in text.split("*"):
        m = _FACTOR.fullmatch(factor)
        if m is None:
            raise ExpressionError(
                f"expected p, p/q or a generator in term {text.strip()!r}")
        p, q, name, power = m.groups()
        if p is not None:
            num *= int(p)
            if q is not None:
                den *= int(q)
                if den == 0:
                    raise ExpressionError(f"zero denominator in {p}/{q}")
        elif name in names:
            expo[names.index(name)] += int(power or 1)
        else:
            raise ExpressionError(f"unknown generator {name!r}")
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
        terms[mono] = terms.get(mono, 0) + (coef if sign == "+" else -coef)
    elem = GradedElement(ring, terms)
    # the element drops the terms above the truncation degree
    for mono, coef in terms.items():
        if coef and mono not in elem.terms:
            raise ExpressionError(
                f"term {monomial_to_string(ring, mono)} of degree "
                f"{ring.monomial_degree(mono)} is above the truncation "
                f"degree {ring.truncation_degree}")
    return elem


def string_to_monomial(names: Sequence[str], text: str) -> tuple[int, ...]:
    """The exponents of a monomial key over the generator `names`."""
    coef, mono = _term(tuple(names), text)
    if coef != 1:
        raise ExpressionError(f"monomial {text!r} has coefficient {coef}")
    return mono


def monomial_to_string(ring: RingSpec, mono: tuple[int, ...]) -> str:
    parts = [f"{name}^{e}" for (name, _), e in zip(ring.generators, mono) if e]
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
