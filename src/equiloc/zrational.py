"""Rational functions of a formal variable z.

A ZRational is  z^shift * N(z) / (L * prod_k (1 - z^k)^{m_k})  with k > 0,
N a dense row of ints and L an int scale.  Every denominator produced by
fixed-point localization has this shape once negative-weight factors are
normalized away, which makes the residues at z = 0 and z = infinity purely
mechanical series manipulations.

The residue at infinity is defined operationally as the residue at zero of
chi(1/z)/z; no contour-orientation convention enters anywhere.

The exact character runs on integers.  A presentation keeps every
chi_tilde piece over one denominator D, the least (1 - z^k) product that
every piece's denominator divides, and one scale L, the lcm of the pieces'
own (`over_one_denominator`), so one m costs row additions (`linear_sum`)
and one division by the fewest factors: no Fraction, no dict and no factor
expansion.

Series and division share one integer kernel.  N = Q (1 - z^k) reads
a[t] = q[t] - q[t-k], so the series of N / (1 - z^k) is the strided prefix
sum q[t] = a[t] + q[t-k]; the mult passes of a factor (1 - z^k)^mult run
chained on one slice per residue class mod k, the largest k first (a
denominator lists its factors so) while the partial quotients are small.
The Laurent series at z = 0, and so both residues, run it on the row cut
off at the highest exponent wanted.  `to_laurent_polynomial` runs it over
the row's own length: the division is exact precisely when the last deg D
entries vanish.  Only the quotient is divided by L, which must divide each
of its entries: a character's coefficients are multiplicities.  The
quotient row is the LaurentPolynomial itself, a dense row of ints.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Mapping, Sequence, Union

Rat = Union[int, Fraction]


def over_lcm(coeffs: Iterable[Rat]) -> tuple[tuple[int, ...], int]:
    """(n, d): the ints or Fractions c_j as int numerators n_j over the
    lcm d of their denominators."""
    coeffs = tuple(coeffs)
    d = lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (d // c.denominator) for c in coeffs), d


class NotAPolynomial(ArithmeticError):
    """Exact division left a remainder: poles fail to cancel.

    For character computations this signals inconsistent fixed-point input.
    """


class ZRational:
    """z^shift * sum_t row[t] z^t / (scale * prod_k (1 - z^k)^den[k]), the
    row a tuple with nonzero ends; zero has shift 0, an empty row, scale 1
    and no denominator."""

    __slots__ = ("shift", "row", "scale", "den")

    def __init__(self, shift: int, num: Mapping[int, Rat],
                 den: Mapping[int, int]):
        for k, mult in den.items():
            if k <= 0:
                raise ValueError("denominator factors must have k > 0")
            if mult < 0:
                raise ValueError("denominator multiplicities must be >= 0")
        num = {int(j): c for j, c in num.items() if c}
        lo = min(num, default=0)
        row, scale = over_lcm(num.get(j, 0)
                              for j in range(lo, max(num, default=lo - 1) + 1))
        self.shift, self.row, self.scale, self.den = (
            int(shift) + lo, row, scale,
            {int(k): int(mult) for k, mult in sorted(den.items(), reverse=True)
             if mult}) if row else (0, (), 1, {})

    @classmethod
    def from_row(cls, shift: int, row: Sequence[int], scale: int,
                 den: dict[int, int]) -> "ZRational":
        """The ZRational of a row, zero ends allowed; den is not copied."""
        lo, hi = 0, len(row)
        while hi and not row[hi - 1]:
            hi -= 1
        while lo < hi and not row[lo]:
            lo += 1
        q = cls.__new__(cls)
        q.shift, q.row, q.scale, q.den = (0, (), 1, {}) if lo == hi else (
            shift + lo, tuple(row[lo:hi]), scale, den)
        return q

    @property
    def num(self) -> dict[int, Rat]:
        """The nonzero coefficients of N / L, keyed from shift."""
        return {t: c if self.scale == 1 else Fraction(c, self.scale)
                for t, c in enumerate(self.row) if c}

    # -- structure -------------------------------------------------------------

    def shifted(self, j: int) -> "ZRational":
        """Multiply by z^j."""
        return linear_sum([(1, j, self)])

    def __eq__(self, other):
        if not isinstance(other, ZRational):
            return NotImplemented
        a, b = over_one_denominator([self, other])
        return (a.shift, a.row) == (b.shift, b.row)

    def __repr__(self):
        den = "*".join(f"(1-z^{k})^{m}" for k, m in sorted(self.den.items()))
        return f"ZRational(z^{self.shift} * [{len(self.row)} terms] / {den or 1})"

    # -- expansion, division, residues ------------------------------------------

    def to_laurent_polynomial(self) -> "LaurentPolynomial":
        """Exact division; raises NotAPolynomial if poles fail to cancel or
        a quotient coefficient is not an integer.

        The integer row is expanded in series over its own length.  It is
        divisible by the denominator D (of degree d) precisely when the
        last d entries of that series vanish; the rest is the quotient,
        whose entries the scale L must divide.
        """
        row, scale = self.row, self.scale
        if not row:
            return LaurentPolynomial.from_row(0, ())
        length = len(row)
        degree = sum(k * mult for k, mult in self.den.items())
        if length <= degree:
            raise NotAPolynomial("numerator degree below denominator degree")
        a = _integer_series(row, length, self.den)
        if any(a[length - degree:]):
            raise NotAPolynomial("poles at roots of unity fail to cancel; "
                                 "fixed-point data is inconsistent")
        del a[length - degree:]
        base = self.shift
        if scale > 1:
            for t, q in enumerate(a):
                if q % scale:
                    raise NotAPolynomial(
                        f"coefficient of z^{base + t} is {Fraction(q, scale)}"
                        ", not an integer")
            a = [q // scale for q in a]
        # nonzero ends: N's lowest term, and N's top term over D's (+-1)
        return LaurentPolynomial.from_row(base, a)

    def series_coefficients(self, upto: int) -> dict[int, Fraction]:
        """Laurent coefficients at z = 0 for exponents <= upto (exact)."""
        base = self.shift
        if not self.row or upto < base:
            return {}
        a = _integer_series(self.row, upto - base + 1, self.den)
        return {base + t: Fraction(q, self.scale) for t, q in enumerate(a)
                if q}

    def residue_at_zero(self) -> Fraction:
        """Coefficient of z^{-1} in the Laurent expansion at z = 0."""
        return self.series_coefficients(-1).get(-1, Fraction(0))

    def substitute_inverse(self) -> "ZRational":
        """The function z -> chi(1/z), renormalized into canonical form:
        (1 - z^{-k})^{-m} = (-1)^m z^{km} (1 - z^k)^{-m}."""
        sign = (-1) ** sum(self.den.values())
        extra_shift = sum(k * m for k, m in self.den.items())
        return ZRational.from_row(
            extra_shift - self.shift - len(self.row) + 1,
            [sign * c for c in reversed(self.row)], self.scale, self.den)

    def residue_at_infinity(self) -> Fraction:
        """Res_{z=0} of chi(1/z)/z, the change-of-variable form of Res at oo."""
        return self.substitute_inverse().shifted(-1).residue_at_zero()


def over_one_denominator(parts: Iterable[ZRational]) -> tuple[ZRational, ...]:
    """The parts, in order, over one denominator D (`_cover`) and the lcm L
    of their scales: a row is scaled by L over its own, times each missing
    (1 - z^k) by the strided difference b[t] = a[t] - a[t-k], then divided
    by each surplus one by the exact prefix sums of `_integer_series`; a
    part already over both, and a zero, is kept as it is."""
    parts = tuple(parts)
    den = _cover([q.den for q in parts if q.row])
    scale = lcm(*(q.scale for q in parts))
    out = []
    for q in parts:
        if q.row and (q.den != den or q.scale != scale):
            row = [v * (scale // q.scale) for v in q.row]
            for k, mult in den.items():
                for _ in range(mult - q.den.get(k, 0)):
                    row = list(map(sub, row + [0] * k, [0] * k + row))
            surplus = {k: mult - den.get(k, 0) for k, mult in q.den.items()
                       if mult > den.get(k, 0)}
            row = _integer_series(row, len(row) - sum(
                k * mult for k, mult in surplus.items()), surplus)
            q = ZRational.from_row(q.shift, row, scale, den)
        out.append(q)
    return tuple(out)


def _cover(dens: Sequence[dict[int, int]]) -> dict[int, int]:
    """The least prod_k (1 - z^k)^{n_k} that every den divides, largest k
    first.  Phi_d divides a den e_d times, the sum of the multiplicities of
    the k that d divides; top down, n_d is what the largest e_d needs past
    the n_k of the multiples k > d, and only a gcd of keys can need one.
    The largest multiplicity of each k stands when no key divides another,
    when the gcds outnumber the keys squared (keys with many common primes)
    and when it is of lower degree: top down is not always least ({30: 1},
    {6: 2}, {10: 2}, {15: 2} give 61, (1 - z^30)^2 60)."""
    if all(d == dens[0] for d in dens[1:]):
        return dens[0] if dens else {}
    top = {k: max(d.get(k, 0) for d in dens)
           for k in sorted(set().union(*dens), reverse=True)}
    if all(b % a for a in top for b in top if a < b):
        return top
    dens = {frozenset(d.items()): d for d in dens}.values()
    closure: set[int] = set()
    for k in top:    # the gcds of every subset of the keys
        closure |= {gcd(k, c) for c in closure} | {k}
        if len(closure) > len(top) ** 2:
            return top
    cover: dict[int, int] = {}
    for d in sorted(closure, reverse=True):
        need = max(sum(m for k, m in den.items() if k % d == 0)
                   for den in dens)
        need -= sum(n for k, n in cover.items() if k % d == 0)
        if need > 0:
            cover[d] = need
    return min(cover, top, key=lambda den: sum(k * n for k, n in den.items()))


def linear_sum(terms: Iterable[tuple[int, int, ZRational]]) -> ZRational:
    """sum c z^s q over triples (c, s, q) whose nonzero q share one
    denominator and scale: the rows times c, added into one int row."""
    terms = [(c, s + q.shift, q) for c, s, q in terms if c and q.row]
    if not terms:
        return ZRational(0, {}, {})
    lo = min(s for _, s, _ in terms)
    acc = [0] * (max(s + len(q.row) for _, s, q in terms) - lo)
    for c, s, q in terms:
        t, n = s - lo, len(q.row)
        row = q.row if c == 1 else map(mul, q.row, repeat(c))
        acc[t:t + n] = map(add, acc[t:t + n], row)
    return ZRational.from_row(lo, acc, terms[0][2].scale, terms[0][2].den)


def _integer_series(row: Sequence[int], length: int,
                    den: Mapping[int, int]) -> list[int]:
    """The first `length` series coefficients of sum_t row[t] z^t /
    prod_k (1 - z^k)^{den[k]}, as ints: each factor is divided out by the
    strided prefix sum q[t] = a[t] + q[t-k], which reads no entry past t,
    and the mult sums of (1 - z^k)^mult are chained on one slice per class
    mod k."""
    a = list(row[:length])
    a += [0] * (length - len(a))
    for k, mult in den.items():
        for r in range(k):
            column = a[r::k]
            for _ in range(mult):
                column = accumulate(column)
            a[r::k] = column
    return a


class LaurentPolynomial:
    """Exact Laurent polynomial in z: the int coefficients of z^lo,
    z^(lo+1), ... in `row`, whose ends are nonzero (zero: lo = 0, empty row).
    `coeffs` is the {exponent: nonzero coefficient} view, built when asked."""

    __slots__ = ("lo", "row")

    def __init__(self, coeffs: Mapping[int, int]):
        coeffs = {int(e): c for e, c in coeffs.items() if c}
        self.lo = lo = min(coeffs, default=0)
        self.row = tuple(coeffs.get(e, 0)
                         for e in range(lo, max(coeffs, default=lo - 1) + 1))

    @classmethod
    def from_row(cls, lo: int, row: Iterable[int]) -> "LaurentPolynomial":
        """sum_t row[t] z^(lo + t), for a row with nonzero ends."""
        poly = cls.__new__(cls)
        poly.lo, poly.row = lo, tuple(row)
        return poly

    @property
    def coeffs(self) -> dict[int, int]:
        """The nonzero coefficients by ascending exponent."""
        lo = self.lo
        return {lo + t: c for t, c in enumerate(self.row) if c}

    def __eq__(self, other):
        if isinstance(other, LaurentPolynomial):
            return self.lo == other.lo and self.row == other.row
        return NotImplemented

    def coefficient(self, e: int) -> int:
        t = e - self.lo
        return self.row[t] if 0 <= t < len(self.row) else 0

    def evaluate_at_one(self) -> int:
        return sum(self.row)

    def evaluate(self, z: complex) -> complex:
        return sum(complex(c) * z ** e for e, c in self.coeffs.items())

    def support(self) -> tuple[int, int]:
        if not self.row:
            return (0, 0)
        return (self.lo, self.lo + len(self.row) - 1)

    def as_integer_coeffs(self) -> dict[int, int]:
        """`coeffs`, by the name the benchmark's checks read."""
        return self.coeffs

    def __repr__(self):
        return f"LaurentPolynomial({self})"

    def __str__(self):
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for e, c in coeffs.items():
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
