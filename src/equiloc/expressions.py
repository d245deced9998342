"""Parsing and canonical printing of polynomial expressions over a ring.

Grammar for expressions: terms separated by `+` / `-`, each term
`coef * g1^e1 * g2^e2` with a rational coefficient `p` or `p/q`;
the coefficient or the monomial part may be omitted (`h`, `3/2`, `2*h^2`).
Whitespace is insignificant.  The canonical printer always emits the full
`coef * g^e` form with terms in graded-lexicographic order, so serialized
documents are bit-stable.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .ring import GradedElement, RingSpec

_TOKEN = re.compile(r"\s*([+-]|\d+/\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*)")


class ExpressionError(ValueError):
    """Raised on malformed polynomial or monomial strings."""


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ExpressionError(
                f"unexpected character {text[pos]!r} at position {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def string_to_element(ring: RingSpec, text: str) -> GradedElement:
    """Parse a polynomial expression into a GradedElement of `ring`."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression")
    gen_index = {name: i for i, (name, _) in enumerate(ring.generators)}
    terms: dict[tuple[int, ...], Fraction] = {}
    i = 0
    sign = 1
    first = True
    while i < len(tokens):
        tok = tokens[i]
        if tok in "+-":
            sign = 1 if tok == "+" else -1
            i += 1
            if i >= len(tokens):
                raise ExpressionError("dangling sign at end of expression")
        elif not first:
            raise ExpressionError(f"expected '+' or '-' before {tok!r}")
        coef = Fraction(1)
        expo = [0] * len(ring.generators)
        seen_factor = False
        expect_factor = True
        while i < len(tokens) and tokens[i] not in "+-":
            tok = tokens[i]
            if tok == "*":
                if not seen_factor:
                    raise ExpressionError("'*' without preceding factor")
                expect_factor = True
                i += 1
                continue
            if not expect_factor:
                raise ExpressionError(f"missing '*' before {tok!r}")
            if re.fullmatch(r"\d+(/\d+)?", tok):
                if re.fullmatch(r"\d+/0+", tok):
                    raise ExpressionError(f"zero denominator in {tok!r}")
                coef *= Fraction(tok)
                i += 1
            else:
                if tok not in gen_index:
                    raise ExpressionError(f"unknown generator {tok!r}")
                power = 1
                i += 1
                if i < len(tokens) and tokens[i] == "^":
                    i += 1
                    if i >= len(tokens) or not re.fullmatch(r"\d+", tokens[i]):
                        raise ExpressionError("'^' must be followed by an integer")
                    power = int(tokens[i])
                    i += 1
                expo[gen_index[tok]] += power
            seen_factor = True
            expect_factor = False
        if not seen_factor:
            raise ExpressionError("empty term")
        key = tuple(expo)
        terms[key] = terms.get(key, Fraction(0)) + sign * coef
        sign = 1
        first = False
    return GradedElement(ring, terms)


def _monomial_sort_key(ring: RingSpec, mono: tuple[int, ...]):
    return (ring.monomial_degree(mono), tuple(-e for e in mono))


def monomial_to_string(ring: RingSpec, mono: tuple[int, ...]) -> str:
    parts = [f"{name}^{e}" for (name, _), e in zip(ring.generators, mono) if e]
    return "*".join(parts) if parts else "1"


def string_to_monomial(ring: RingSpec, text: str) -> tuple[int, ...]:
    text = text.strip()
    if text == "1" or text == "":
        return (0,) * len(ring.generators)
    gen_index = {name: i for i, (name, _) in enumerate(ring.generators)}
    expo = [0] * len(ring.generators)
    for factor in text.split("*"):
        factor = factor.strip()
        m = re.fullmatch(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?", factor)
        if not m or m.group(1) not in gen_index:
            raise ExpressionError(f"bad monomial factor {factor!r}")
        expo[gen_index[m.group(1)]] += int(m.group(2) or 1)
    return tuple(expo)


def element_to_string(elem: GradedElement) -> str:
    """Canonical printing: graded-lex term order, reduced `p/q` coefficients."""
    ring = elem.ring
    if not elem.terms:
        return "0"
    parts = []
    for mono in sorted(elem.terms, key=lambda m: _monomial_sort_key(ring, m)):
        coef = elem.terms[mono]
        body = f"{abs(coef)}"
        monstr = monomial_to_string(ring, mono)
        if monstr != "1":
            body += " * " + monstr.replace("*", " * ")
        if not parts:
            parts.append(body if coef > 0 else "-" + body)
        else:
            parts.append(("+ " if coef > 0 else "- ") + body)
    return " ".join(parts)
