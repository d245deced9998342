"""Rational functions of a formal variable z with ring-valued numerators.

A ZRational is  z^shift * N(z) / prod_k (1 - z^k)^{m_k}  with k > 0 and the
numerator a Laurent polynomial whose coefficients live in a truncated graded
ring.  Every denominator produced by fixed-point localization has this shape
once negative-weight factors are normalized away, which makes the residues
at z = 0 and z = infinity purely mechanical series manipulations.

The residue at infinity is defined operationally as the residue at zero of
chi(1/z)/z; no contour-orientation convention enters anywhere.

The exact character runs on integers.  `scalar_sum` brings scalar pieces
over one common denominator and scales their numerators by the lcm L of
all their coefficient denominators, so the summed numerator is an integer
Laurent polynomial over L.  `to_laurent_polynomial` divides the integer
numerator one factor at a time: N = Q (1 - z^k) reads a[t] = q[t] - q[t-k],
so Q is the strided prefix sum q[t] = a[t] + q[t-k], and the division is
exact precisely when the last k entries of that prefix sum vanish.  Only
the quotient is divided by L.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import accumulate
from math import comb, lcm
from typing import Iterable, Mapping, Union

from .ring import GradedElement, RingError, RingSpec

Rat = Union[int, Fraction]


class NotAPolynomial(ArithmeticError):
    """Exact division left a remainder: poles fail to cancel.

    For character computations this signals inconsistent fixed-point input.
    """


class ZRational:
    __slots__ = ("ring", "shift", "num", "den")

    def __init__(self, ring: RingSpec, shift: int,
                 num: Mapping[int, GradedElement],
                 den: Mapping[int, int]):
        self.ring = ring
        clean_num = {}
        for j, coef in num.items():
            if not coef.ring.same_as(ring):
                raise RingError("numerator coefficient in wrong ring")
            if not coef.is_zero():
                clean_num[int(j)] = coef
        clean_den = {}
        for k, mult in den.items():
            if k <= 0:
                raise RingError("denominator factors must have k > 0")
            if mult < 0:
                raise RingError("denominator multiplicities must be >= 0")
            if mult:
                clean_den[int(k)] = int(mult)
        if not clean_num:
            shift = 0
            clean_den = {}
        self.shift = int(shift)
        self.num = clean_num
        self.den = clean_den

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def from_element(a: GradedElement) -> "ZRational":
        return ZRational(a.ring, 0, {0: a}, {})

    @staticmethod
    def constant(ring: RingSpec, c: Rat) -> "ZRational":
        return ZRational.from_element(ring.scalar(c))

    @staticmethod
    def zero(ring: RingSpec) -> "ZRational":
        return ZRational(ring, 0, {}, {})

    @staticmethod
    def monomial(ring: RingSpec, power: int, c: Rat = 1) -> "ZRational":
        return ZRational(ring, power, {0: ring.scalar(c)}, {})

    @staticmethod
    def inv_one_minus(k: int, a: GradedElement) -> "ZRational":
        """(1 - z^k e^a)^{-1} for nonzero integer k and nilpotent a.

        For k > 0 expand around the scalar factor:
            1/(1 - z^k e^a) = sum_{j>=0} z^{kj} (e^a - 1)^j / (1-z^k)^{j+1},
        a finite sum by nilpotency.  For k < 0 rewrite
            1 - z^k e^a = -z^k e^a (1 - z^{-k} e^{-a})
        and recurse, which contributes the unit -z^{-k} e^{-a}.
        """
        if k == 0:
            raise RingError("inv_one_minus requires k != 0")
        if a.scalar_part() != 0:
            raise RingError("inv_one_minus requires a nilpotent exponent")
        ring = a.ring
        if k < 0:
            inner = ZRational.inv_one_minus(-k, -a)
            unit = (-a).exp_nilpotent() * Fraction(-1)
            return inner.scale(unit).shifted(-k)
        u = a.exp_nilpotent() - ring.one()            # nilpotent
        result = ZRational.zero(ring)
        power = ring.one()
        j = 0
        while True:
            result = result + ZRational(ring, k * j, {0: power}, {k: j + 1})
            power = power * u
            j += 1
            if power.is_zero():
                break
        return result

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def shifted(self, j: int) -> "ZRational":
        """Multiply by z^j."""
        if self.is_zero():
            return self
        return ZRational(self.ring, self.shift + j, self.num, self.den)

    def scale(self, c: Union[Rat, GradedElement]) -> "ZRational":
        if isinstance(c, GradedElement):
            return ZRational(self.ring, self.shift,
                             {j: v * c for j, v in self.num.items()}, self.den)
        c = Fraction(c)
        return ZRational(self.ring, self.shift,
                         {j: v * c for j, v in self.num.items()}, self.den)

    def __add__(self, other: "ZRational") -> "ZRational":
        if not self.ring.same_as(other.ring):
            raise RingError("operands live in different rings")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        den = {k: max(self.den.get(k, 0), other.den.get(k, 0))
               for k in set(self.den) | set(other.den)}
        shift = min(self.shift, other.shift)
        num: dict[int, GradedElement] = {}
        for part in (self, other):
            extra = {k: den[k] - part.den.get(k, 0) for k in den}
            poly = _expand_factors(extra)
            base = part.shift - shift
            for j, coef in part.num.items():
                for e, c in poly.items():
                    key = base + j + e
                    add = coef * c
                    num[key] = num.get(key, self.ring.zero()) + add
        return ZRational(self.ring, shift, num, den)

    def __neg__(self) -> "ZRational":
        return self.scale(Fraction(-1))

    def __sub__(self, other: "ZRational") -> "ZRational":
        return self + (-other)

    def __mul__(self, other: "ZRational") -> "ZRational":
        if not self.ring.same_as(other.ring):
            raise RingError("operands live in different rings")
        if self.is_zero() or other.is_zero():
            return ZRational.zero(self.ring)
        den = {k: self.den.get(k, 0) + other.den.get(k, 0)
               for k in set(self.den) | set(other.den)}
        num: dict[int, GradedElement] = {}
        for j1, c1 in self.num.items():
            for j2, c2 in other.num.items():
                prod = c1 * c2
                if prod.is_zero():
                    continue
                key = j1 + j2
                num[key] = num.get(key, self.ring.zero()) + prod
        return ZRational(self.ring, self.shift + other.shift, num, den)

    def __eq__(self, other):
        if not isinstance(other, ZRational):
            return NotImplemented
        return (self - other).is_zero_function()

    def __hash__(self):
        raise TypeError("ZRational is unhashable")

    def is_zero_function(self) -> bool:
        return all(c.is_zero() for c in self.num.values())

    def __repr__(self):
        den = "*".join(f"(1-z^{k})^{m}" for k, m in sorted(self.den.items()))
        return f"ZRational(z^{self.shift} * [{len(self.num)} terms] / {den or 1})"

    # -- passage to scalars ----------------------------------------------------

    def integrate_over_F(self) -> "ZRational":
        """Apply the ring integration functional coefficient-wise.

        The result lives over the point ring (a ScalarZRational)."""
        point = RingSpec.point()
        num = {}
        for j, coef in self.num.items():
            val = coef.integrate()
            if val != 0:
                num[j] = point.scalar(val)
        return ZRational(point, self.shift, num, self.den)

    def scalar_num(self) -> dict[int, Fraction]:
        out = {}
        for j, coef in self.num.items():
            nonscalar = coef.without_scalar()
            if not nonscalar.is_zero():
                raise RingError("numerator is not scalar; integrate first")
            out[j] = coef.scalar_part()
        return out

    # -- expansion, division, residues ------------------------------------------

    def to_laurent_polynomial(self) -> "LaurentPolynomial":
        """Exact division; raises NotAPolynomial if poles fail to cancel.

        The numerator is scaled to integers a[t] by the lcm L of its
        coefficient denominators.  Each factor (1 - z^k) is divided out by
        the strided prefix sum q[t] = a[t] + q[t-k], whose last k entries
        must vanish; the quotient is divided by L at the end.
        """
        num = self.scalar_num()
        if not num:
            return LaurentPolynomial({})
        scale = lcm(*(c.denominator for c in num.values()))
        lo = min(num)
        a = [0] * (max(num) - lo + 1)
        for j, c in num.items():
            a[j - lo] = c.numerator * (scale // c.denominator)
        if len(a) <= sum(k * mult for k, mult in self.den.items()):
            raise NotAPolynomial("numerator degree below denominator degree")
        for k, mult in self.den.items():
            for _ in range(mult):
                for r in range(k):
                    a[r::k] = accumulate(a[r::k])
                if any(a[-k:]):
                    raise NotAPolynomial(
                        "poles at roots of unity fail to cancel; "
                        "fixed-point data is inconsistent")
                del a[-k:]
        if scale > 1:
            a = [Fraction(q, scale) for q in a]
        base = self.shift + lo
        return LaurentPolynomial({base + t: q for t, q in enumerate(a)})

    def series_coefficients(self, upto: int) -> dict[int, Fraction]:
        """Laurent coefficients at z = 0 for exponents <= upto (exact)."""
        num = self.scalar_num()
        if not num:
            return {}
        lo = self.shift + min(num)
        horizon = upto - lo
        if horizon < 0:
            return {}
        series = {0: Fraction(1)}
        for k, mult in self.den.items():
            # (1 - z^k)^{-mult} = sum_j C(j+mult-1, mult-1) z^{kj}
            factor = {k * j: Fraction(comb(j + mult - 1, mult - 1))
                      for j in range(horizon // k + 1)}
            series = _poly_mul_trunc(series, factor, horizon)
        shifted_num = {self.shift + j - lo: c for j, c in num.items()}
        full = _poly_mul_trunc(shifted_num, series, horizon)
        return {e + lo: c for e, c in full.items() if c != 0 and e + lo <= upto}

    def residue_at_zero(self) -> Fraction:
        """Coefficient of z^{-1} in the Laurent expansion at z = 0."""
        return self.series_coefficients(-1).get(-1, Fraction(0))

    def substitute_inverse(self) -> "ZRational":
        """The function z -> chi(1/z), renormalized into canonical form."""
        sign = Fraction(1)
        extra_shift = 0
        for k, m in self.den.items():
            # (1 - z^{-k})^{-m} = (-1)^m z^{km} (1 - z^k)^{-m}
            if m % 2:
                sign = -sign
            extra_shift += k * m
        num = {-j: c * sign for j, c in self.num.items()}
        return ZRational(self.ring, -self.shift + extra_shift, num, self.den)

    def residue_at_infinity(self) -> Fraction:
        """Res_{z=0} of chi(1/z)/z, the change-of-variable form of Res at oo."""
        return self.substitute_inverse().shifted(-1).residue_at_zero()

    def differentiate(self) -> "ZRational":
        """d/dz, staying in canonical form."""
        ring = self.ring
        s = self.shift
        # d/dz [z^s N / D] = z^{s-1}(sN + zN')/D + z^s N sum_k m_k k z^{k-1}/((1-z^k) D)
        main_num = {}
        for j, c in self.num.items():
            main_num[j] = main_num.get(j, ring.zero()) + c * Fraction(s + j)
        result = ZRational(ring, s - 1, main_num, self.den)
        for k, m in self.den.items():
            den = dict(self.den)
            den[k] = m + 1
            num = {j: c * Fraction(m * k) for j, c in self.num.items()}
            result = result + ZRational(ring, s + k - 1, num, den)
        return result

    def evaluate(self, z: complex) -> complex:
        """Float evaluation away from denominator zeros (cross-check only)."""
        num = self.scalar_num()
        total = 0j
        for j, c in num.items():
            total += complex(c) * z ** j
        total *= z ** self.shift
        for k, m in self.den.items():
            total /= (1 - z ** k) ** m
        return total


def scalar_sum(parts: Iterable[ZRational]) -> ZRational:
    """Sum of scalar ZRationals over one common denominator, in one pass.

    The denominator takes the largest multiplicity of each k.  Every
    numerator is scaled to integers by the lcm L of all coefficient
    denominators, each distinct extra factor prod (1 - z^k)^{extra} is
    expanded once, and the products accumulate as ints by exponent; the
    one result is built with coefficients (int sum) / L.
    """
    point = RingSpec.point()
    parts = [(q.shift, q.scalar_num(), q.den) for q in parts
             if not q.is_zero()]
    if not parts:
        return ZRational.zero(point)
    den: dict[int, int] = {}
    for _, _, d in parts:
        for k, mult in d.items():
            den[k] = max(den.get(k, 0), mult)
    scale = lcm(*(c.denominator for _, num, _ in parts for c in num.values()))
    shift = min(s for s, _, _ in parts)
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
    return ZRational(point, shift, {j: point.scalar(Fraction(v, scale))
                                    for j, v in acc.items() if v}, den)


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


def _poly_mul_trunc(a: Mapping[int, Fraction], b: Mapping[int, Fraction],
                    horizon: int) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for e1, c1 in a.items():
        if e1 > horizon:
            continue
        for e2, c2 in b.items():
            e = e1 + e2
            if e > horizon:
                continue
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return out


class LaurentPolynomial:
    """Exact Laurent polynomial in z: exponent -> nonzero rational."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Rat]):
        self.coeffs = {int(e): Fraction(c) for e, c in coeffs.items() if c}

    def __eq__(self, other):
        if isinstance(other, LaurentPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def coefficient(self, e: int) -> Fraction:
        return self.coeffs.get(e, Fraction(0))

    def constant_term(self) -> Fraction:
        return self.coefficient(0)

    def evaluate_at_one(self) -> Fraction:
        return sum(self.coeffs.values(), Fraction(0))

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
