"""Rational functions of a formal variable z.

A ZRational is  z^shift * N(z) / prod_k (1 - z^k)^{m_k}  with k > 0 and the
numerator N a Laurent polynomial whose coefficients are ints and Fractions.
Every denominator produced by fixed-point localization has this shape once
negative-weight factors are normalized away, which makes the residues at
z = 0 and z = infinity purely mechanical series manipulations.

The residue at infinity is defined operationally as the residue at zero of
chi(1/z)/z; no contour-orientation convention enters anywhere.

The exact character runs on integers.  `scalar_sum` brings pieces
over one common denominator and scales their numerators by the lcm L of
all their coefficient denominators, so the summed numerator is an integer
Laurent polynomial over L, kept as ints when L = 1.

Series and division share one integer kernel.  N = Q (1 - z^k) reads
a[t] = q[t] - q[t-k], so the series of N / (1 - z^k) is the strided prefix
sum q[t] = a[t] + q[t-k], one factor at a time.  The Laurent series at
z = 0, and so both residues, run it on the numerator cut off at the
highest exponent wanted.  `to_laurent_polynomial` runs it over the
numerator's own length: the division is exact precisely when the last
deg D entries vanish.  Only the quotient is divided by L.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Iterable, Mapping, Union

Rat = Union[int, Fraction]


class NotAPolynomial(ArithmeticError):
    """Exact division left a remainder: poles fail to cancel.

    For character computations this signals inconsistent fixed-point input.
    """


class ZRational:
    """z^shift * num / prod_k (1 - z^k)^den[k]; zero coefficients and
    factors are dropped, and zero has shift 0 and no denominator."""

    __slots__ = ("shift", "num", "den")

    def __init__(self, shift: int, num: Mapping[int, Rat],
                 den: Mapping[int, int]):
        clean_num = {int(j): c for j, c in num.items() if c}
        clean_den = {}
        for k, mult in den.items():
            if k <= 0:
                raise ValueError("denominator factors must have k > 0")
            if mult < 0:
                raise ValueError("denominator multiplicities must be >= 0")
            if mult:
                clean_den[int(k)] = int(mult)
        if not clean_num:
            shift = 0
            clean_den = {}
        self.shift = int(shift)
        self.num = clean_num
        self.den = clean_den

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def shifted(self, j: int) -> "ZRational":
        """Multiply by z^j."""
        if self.is_zero():
            return self
        return ZRational(self.shift + j, self.num, self.den)

    def scale(self, c: Rat) -> "ZRational":
        return ZRational(self.shift, {j: v * c for j, v in self.num.items()},
                         self.den)

    def __eq__(self, other):
        if not isinstance(other, ZRational):
            return NotImplemented
        return scalar_sum([self, other.scale(-1)]).is_zero()

    def __hash__(self):
        raise TypeError("ZRational is unhashable")

    def __repr__(self):
        den = "*".join(f"(1-z^{k})^{m}" for k, m in sorted(self.den.items()))
        return f"ZRational(z^{self.shift} * [{len(self.num)} terms] / {den or 1})"

    # -- expansion, division, residues ------------------------------------------

    def to_laurent_polynomial(self) -> "LaurentPolynomial":
        """Exact division; raises NotAPolynomial if poles fail to cancel.

        The numerator, scaled to integers by the lcm L of its coefficient
        denominators, is expanded in series over its own length.  N is
        divisible by the denominator D (of degree d) precisely when the
        last d entries of that series vanish; the rest is the quotient,
        divided by L at the end.
        """
        num = self.num
        if not num:
            return LaurentPolynomial({})
        lo = min(num)
        length = max(num) - lo + 1
        degree = sum(k * mult for k, mult in self.den.items())
        if length <= degree:
            raise NotAPolynomial("numerator degree below denominator degree")
        scale, a = _integer_series(num, lo, length, self.den)
        if any(a[length - degree:]):
            raise NotAPolynomial("poles at roots of unity fail to cancel; "
                                 "fixed-point data is inconsistent")
        del a[length - degree:]
        if scale > 1:
            a = [Fraction(q, scale) for q in a]
        base = self.shift + lo
        return LaurentPolynomial({base + t: q for t, q in enumerate(a)})

    def series_coefficients(self, upto: int) -> dict[int, Fraction]:
        """Laurent coefficients at z = 0 for exponents <= upto (exact)."""
        num = self.num
        if not num:
            return {}
        lo = min(num)
        base = self.shift + lo
        if upto < base:
            return {}
        scale, a = _integer_series(num, lo, upto - base + 1, self.den)
        return {base + t: Fraction(q, scale) for t, q in enumerate(a) if q}

    def residue_at_zero(self) -> Fraction:
        """Coefficient of z^{-1} in the Laurent expansion at z = 0."""
        return self.series_coefficients(-1).get(-1, Fraction(0))

    def substitute_inverse(self) -> "ZRational":
        """The function z -> chi(1/z), renormalized into canonical form:
        (1 - z^{-k})^{-m} = (-1)^m z^{km} (1 - z^k)^{-m}."""
        sign = (-1) ** sum(self.den.values())
        extra_shift = sum(k * m for k, m in self.den.items())
        num = {-j: c * sign for j, c in self.num.items()}
        return ZRational(-self.shift + extra_shift, num, self.den)

    def residue_at_infinity(self) -> Fraction:
        """Res_{z=0} of chi(1/z)/z, the change-of-variable form of Res at oo."""
        return self.substitute_inverse().shifted(-1).residue_at_zero()


def scalar_sum(parts: Iterable[ZRational]) -> ZRational:
    """Sum of ZRationals over one common denominator, in one pass.

    The denominator takes the largest multiplicity of each k.  Every
    numerator is scaled to integers by the lcm L of all coefficient
    denominators, each distinct extra factor prod (1 - z^k)^{extra} is
    expanded once, and the products accumulate as ints by exponent; the
    one result has the int sums as coefficients when L = 1 and
    Fraction(sum, L) otherwise.
    """
    parts = [(q.shift, q.num, q.den) for q in parts if q.num]
    den: dict[int, int] = {}
    for _, _, d in parts:
        for k, mult in d.items():
            den[k] = max(den.get(k, 0), mult)
    scale = lcm(*(c.denominator for _, num, _ in parts for c in num.values()))
    shift = min((s for s, _, _ in parts), default=0)
    expanded: dict[tuple, dict[int, int]] = {}
    acc: dict[int, int] = defaultdict(int)
    for s, num, d in parts:
        extra = tuple((k, den[k] - d.get(k, 0)) for k in den)
        poly = expanded.get(extra)
        if poly is None:
            poly = expanded[extra] = _expand_factors(dict(extra))
        for j, c in num.items():
            c = c.numerator * (scale // c.denominator)
            base = s - shift + j
            for e, p in poly.items():
                acc[base + e] += c * p
    if scale > 1:
        acc = {j: Fraction(v, scale) for j, v in acc.items()}
    return ZRational(shift, acc, den)


def _expand_factors(factors: Mapping[int, int]) -> dict[int, int]:
    """prod_k (1 - z^k)^{m_k} expanded exactly."""
    poly = {0: 1}
    for k, mult in factors.items():
        for _ in range(mult):
            nxt: dict[int, int] = {}
            for e, c in poly.items():
                nxt[e] = nxt.get(e, 0) + c
                nxt[e + k] = nxt.get(e + k, 0) - c
            poly = nxt
    return {e: c for e, c in poly.items() if c != 0}


def _integer_series(num: Mapping[int, Rat], lo: int, length: int,
                    den: Mapping[int, int]) -> tuple[int, list[int]]:
    """The lcm L of num's coefficient denominators, and the first `length`
    series coefficients of L * num / prod_k (1 - z^k)^{den[k]} from
    exponent lo up, as ints: each factor is divided out by the strided
    prefix sum q[t] = a[t] + q[t-k], which reads no entry past t."""
    scale = lcm(*(c.denominator for c in num.values()))
    a = [0] * length
    for j, c in num.items():
        if j - lo < length:
            a[j - lo] = c.numerator * (scale // c.denominator)
    for k, mult in den.items():
        for _ in range(mult):
            for r in range(k):
                a[r::k] = accumulate(a[r::k])
    return scale, a


class LaurentPolynomial:
    """Exact Laurent polynomial in z: exponent -> nonzero rational, each
    coefficient kept as given, an int or a Fraction."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Rat]):
        self.coeffs = {int(e): c for e, c in coeffs.items() if c}

    def __eq__(self, other):
        if isinstance(other, LaurentPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def coefficient(self, e: int) -> Rat:
        return self.coeffs.get(e, 0)

    def constant_term(self) -> Rat:
        return self.coefficient(0)

    def evaluate_at_one(self) -> Rat:
        return sum(self.coeffs.values())

    def evaluate(self, z: complex) -> complex:
        return sum(complex(c) * z ** e for e, c in self.coeffs.items())

    def support(self) -> tuple[int, int]:
        if not self.coeffs:
            return (0, 0)
        return (min(self.coeffs), max(self.coeffs))

    def as_integer_coeffs(self) -> dict[int, int]:
        out = {}
        for e, c in sorted(self.coeffs.items()):
            if c.denominator != 1:
                raise NotAPolynomial(
                    f"coefficient of z^{e} is {c}, not an integer")
            out[e] = c.numerator
        return out

    def __repr__(self):
        return f"LaurentPolynomial({self})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                body = str(abs(c))
            else:
                zpow = "z" if e == 1 else f"z^{e}"
                body = zpow if abs(c) == 1 else f"{abs(c)}*{zpow}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)
