"""Series in the equivariant parameter, which only the pairing (`witten`)
loads: the exact commands never compile them.

Numeric side: the localized inner integrand of the Witten integral, with
the equivariant Todd class Td_F as the one integrand,

    dh_inner(x) = sum_F e^{2 pi i m x J(F)} int_F e^{m omega_F} Td_F(x)/e_F(x).

Its exact u-series are integer rows over one denominator, exact up to the
order asked for.  Where every normal Chern root vanishes, Td_F/e_F is the
closed form prod_k td(-k u)/(-k u) from one constant Todd row
(`normal_todd`), whose product the exceptional terms of `quantize` read
too; other components multiply `USeries` by integer Cauchy products.
`PreparedInner` adds the components of each moment level into one row and
evaluates every level at once, as a table of the powers of 2 pi x times one
matrix of the rows.  Every walk over the powers of a nilpotent class, here
and in `ring`, is `GradedElement.powers`.

Normalization of the equivariant Euler class.  Internally every series is
written in the variable u = 2 pi i x, which keeps all coefficients rational.
A normal root of weight k and stored Chern root `a` contributes the factor
y = -(k u + a) to e_F and the factor td(y) = y/(1-e^{-y}) to the
equivariant Todd class, in `_td_factor` and `euler_inverse`, and with a = 0
in `normal_todd` and `_u_rows`.  This single sign is a calibration, fixed
by the Kirillov identity: td(y)/y = 1/(1 - e^{-y}) is then the character
factor 1/(1 - z^k e^a) at z = e^{2 pi i x}, so the localized sum equals the
character chi^(m)(e^{2 pi i x}) wherever the series converge.  Tests pin
the identity exactly per component and numerically on the sum (their
`kirillov_check`), and a negative control perturbs the input: with every
weight of the rotation sphere doubled, its localized integral no longer
matches the character of the rotation sphere itself.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat, zip_longest
from math import comb, lcm, log, prod
from operator import add, mul
from typing import Mapping, Sequence

from .localization import _cauchy, _reduced, _todd_row, normal_todd
from .model import FixedComponent, InputError, ManifoldPresentation
from .ring import GradedElement, RingSpec, brief


class USeries:
    """Laurent series in u = 2 pi i x with coefficients in F's ring,
    truncated above `order`; negative powers are always finitely many.

    Stored as integer rows over one common denominator `den`: for each ring
    monomial, the dense list of numerators of its coefficients at u^lo,
    u^(lo+1), ..., ending at u^order or earlier (the rest are zero)."""

    __slots__ = ("ring", "order", "lo", "den", "rows")

    def __init__(self, ring: RingSpec, order: int, lo: int, den: int,
                 rows: dict[tuple[int, ...], list[int]]):
        self.ring, self.order, self.lo, self.den = ring, order, lo, den
        self.rows = rows

    @staticmethod
    def from_elements(ring: RingSpec, coeffs: Mapping[int, GradedElement],
                      order: int) -> "USeries":
        """sum_j coeffs[j] u^j, truncated above `order`."""
        coeffs = {j: c for j, c in coeffs.items() if j <= order and c}
        lo, hi = min(coeffs, default=0), max(coeffs, default=0)
        den = lcm(*(q.denominator for c in coeffs.values()
                    for q in c.terms.values()))
        rows: dict[tuple[int, ...], list[int]] = {}
        for j, c in coeffs.items():
            for mono, q in c.terms.items():
                row = rows.setdefault(mono, [0] * (hi - lo + 1))
                row[j - lo] = q.numerator * (den // q.denominator)
        return USeries(ring, order, lo, den, rows)

    def __mul__(self, other: "USeries") -> "USeries":
        """Per pair of monomials within the ring's truncation degree, the
        Cauchy product of their rows, truncated at the lower order."""
        ring = self.ring
        order = min(self.order, other.order)
        lo = self.lo + other.lo
        rows: dict[tuple[int, ...], list[int]] = {}
        for m1, a in self.rows.items():
            d1 = ring.monomial_degree(m1)
            for m2, b in other.rows.items():
                if d1 + ring.monomial_degree(m2) > ring.truncation_degree:
                    continue
                prod = _cauchy(a, b, order - lo + 1)
                mono = tuple(map(add, m1, m2))
                rows[mono] = [x + y for x, y in zip_longest(
                    rows.get(mono, ()), prod, fillvalue=0)]
        return USeries(ring, order, lo, self.den * other.den, rows)

    def integrate_over_F(self) -> tuple[int, int, list[int]]:
        """Pair the top-degree rows with the integration table: (lo, d, R),
        with R[n] / d the scalar coefficient of u^(lo+n)."""
        table = self.ring.integration_table
        scale = lcm(*(w.denominator for w in table.values()))
        total = [0] * max(map(len, self.rows.values()), default=0)
        for mono, row in self.rows.items():
            w = int(table.get(mono, 0) * scale)
            for n, c in enumerate(row if w else ()):
                total[n] += w * c
        return self.lo, self.den * scale, total


def _td_factor(ring: RingSpec, weight: int, root: GradedElement,
               order: int) -> USeries:
    """td(y) for y = -(k u + a), as a USeries.  With b = -a, the coefficient
    of u^q is (-k)^q sum_t todd_coefficient(q + t) C(q + t, q) b^t; each
    row is built from the integer Todd table and the numerators of the
    powers of b over their lcm d."""
    nilpowers = (-root).powers()
    size = 1 << (order + len(nilpowers)).bit_length()
    tden, todd = _todd_row(size)
    d = lcm(*(q.denominator for c in nilpowers for q in c.terms.values()))
    rows: dict[tuple[int, ...], list[int]] = {}
    for t, c in enumerate(nilpowers):
        scaled = [todd[q + t] * comb(q + t, q) * (-weight) ** q
                  for q in range(order + 1)]
        for mono, q in c.terms.items():
            num = q.numerator * (d // q.denominator)
            rows[mono] = [x + num * y for x, y in zip_longest(
                rows.get(mono, ()), scaled, fillvalue=0)]
    return USeries(ring, order, 0, tden * d, rows)


def equivariant_todd_at_F(F: FixedComponent, order: int) -> USeries:
    """The equivariant Todd class restricted to F,
    Td(F) * prod_{k,j} td(-(k u + a_kj)), truncated at u-order `order`."""
    series = USeries.from_elements(F.ring, {0: F.todd}, order)
    for k, root in F.normal:
        series = series * _td_factor(F.ring, k, root, order)
    return series


def euler_inverse(F: FixedComponent, order: int) -> USeries:
    """1/e_F(u) = prod_{k,j} 1/(-(k u + a_kj)): a finite Laurent tail in 1/u
    times nilpotent corrections, truncated at u-order `order`."""
    ring = F.ring
    acc = USeries.from_elements(ring, {0: ring.one()}, order)
    for k, root in F.normal:
        # 1/(-(k*u + a)) = sum_{t>=0} (-1/k)^{t+1} a^t u^{-(t+1)}
        acc = acc * USeries.from_elements(ring, {
            -(t + 1): power * Fraction(-1, k) ** (t + 1)
            for t, power in enumerate(root.powers())}, order)
    return acc


def _rho_series(F: FixedComponent, order: int) -> USeries:
    """The localized integrand rho_F: `equivariant_todd_at_F`, as a step of
    its own that traces time as `localization.rho_series`."""
    return equivariant_todd_at_F(F, order)


def _u_rows(components: Sequence[FixedComponent], m: int,
            order: int) -> list[tuple[int, int, int, Sequence[int]]]:
    """(J, lo, d, R) with R[n] / d the u^(lo+n) coefficient of
    int_F e^{m omega} Td_F / e_F, exact for every lo + n <= order.  Where
    every normal Chern root vanishes, at every point say, this is
    sum_j m^j v_j (`FixedComponent.volume_pieces`) times prod_k td(-k u) /
    (-k u) (`normal_todd`), one row per moment and weights; others take the
    USeries product of `_rho_series`, e^{m omega} and `euler_inverse`, kept
    to order plus the depth of 1/e_F's pole, which shifts them down."""
    out, volumes = [], {}
    for F in components:
        if not any(root for _, root in F.normal):
            key = (F.moment, tuple(sorted(F.weights())))
            volumes[key] = volumes.get(key, 0) + sum(
                m ** j * v for j, v in enumerate(F.volume_pieces))
            continue
        top = order + sum(len(root.powers()) for _, root in F.normal)
        emw = USeries.from_elements(
            F.ring, {0: (F.omega * Fraction(m)).exp_nilpotent()}, top)
        lo, den, row = (_rho_series(F, top) * emw
                        * euler_inverse(F, order)).integrate_over_F()
        out.append((F.moment, lo, *_reduced(den, row)))
    for (J, weights), volume in volumes.items():
        den, row = normal_todd(weights, order + len(weights))
        volume /= prod(-k for k in weights)
        out.append((J, -len(weights), den * volume.denominator,
                    [volume.numerator * c for c in row]))
    return out


def component_u_laurent(F: FixedComponent, m: int,
                        order: int) -> dict[int, Fraction]:
    """Scalar u-Laurent coefficients of int_F e^{m omega} Td_F / e_F, each
    one exact, up to u^order (`_u_rows`)."""
    [(_, lo, den, row)] = _u_rows([F], m, order)
    return {lo + n: Fraction(c, den) for n, c in enumerate(row) if c}


class PreparedInner:
    """The localized integrand with its Laurent data frozen per moment
    level, ready for repeated numeric evaluation.

    `levels` keeps (J, R) per distinct moment J, ascending: R[n] / den is
    the exact u^(lo+n) coefficient, lo + n <= order, of the components at J
    added.  `frozen` keeps, over the nonzero levels l, the vector of m*J and
    one complex matrix C[n, l] = R_l[n] / den * i^(lo+n), so that a level at
    real x is (2 pi x)^(lo..order) times column l: int / int is correctly
    rounded, so converting once yields the same floats as converting on
    every call.  As z^{mJ} is exact, `order` is the td-series order of the
    radius (whatever m is).
    """

    __slots__ = ("m", "order", "lo", "den", "levels", "frozen")

    def __init__(self, p: ManifoldPresentation, m: int, order: int):
        import numpy as np
        self.m, self.order = m, order
        parts = _u_rows(p.components, m, order)
        self.lo = min((lo for _, lo, _, _ in parts), default=0)
        self.den = lcm(*(den for _, _, den, _ in parts))
        size = order - self.lo + 1
        sums: dict[int, list[int]] = {}
        for J, lo, den, row in parts:
            acc = sums.setdefault(J, [0] * size)
            scale = self.den // den
            for n, c in enumerate(row, lo - self.lo):
                acc[n] += scale * c
        self.levels = sorted(sums.items())
        live = [(J, row) for J, row in self.levels if any(row)]
        units = np.array((1, 1j, -1, -1j))[np.arange(self.lo, order + 1) % 4]
        matrix = np.array([[row[n] / self.den for _, row in live]
                           for n in range(size)])
        self.frozen = (np.array([m * J for J, _ in live], dtype=float),
                       matrix * units[:, None])

    def laurent_sum(self, taylor: int, order: int) -> dict[int, Fraction]:
        """u-Laurent coefficients of the sum up to u^order, e^{m J u} Taylor
        expanded to u^T, T = `taylor`: per level one integer Cauchy product of
        its row with e_t = (mJ)^t T!/t!, t <= T, over T! den once.  Exact up
        to the rows' order; above it, without the rows' higher terms."""
        size = order - self.lo + 1
        # T!/t! for t = T down to 0, one running product
        falling = list(accumulate(range(taylor, 0, -1), mul, initial=1))
        total = [0] * size
        for J, row in self.levels:
            mJ = self.m * J
            top = min(taylor, size - 1) if mJ else 0
            e = list(map(mul, accumulate(repeat(mJ, top), mul, initial=1),
                         reversed(falling[taylor - top:])))
            for n, c in enumerate(_cauchy(row, e, size)):
                total[n] += c
        return {self.lo + n: Fraction(c, self.den * falling[-1])
                for n, c in enumerate(total) if c}

    def evaluate(self, x):
        """The integrand at real x, a float or an array: per level e^{2 pi i
        mJ x} times the level's Laurent sum, all levels at once as the table
        of powers (2 pi x)^(lo..order), built by one cumprod, times `frozen`'s
        matrix; then a Kahan-compensated sum over the levels, ascending."""
        import numpy as np
        mJ, C = self.frozen
        t = 2 * np.pi * np.asarray(x, dtype=float)
        powers = np.empty(t.shape + (len(C),))
        # numpy's pow is not odd in its base, so t^lo is |t|^lo signed
        powers[..., 0] = abs(t) ** self.lo
        powers[..., 0] *= np.sign(t) ** (self.lo % 2)
        powers[..., 1:] = t[..., None]
        np.cumprod(powers, axis=-1, out=powers)
        terms = np.exp(1j * np.multiply.outer(t, mJ)) * (powers @ C)
        total = comp = np.zeros(t.shape, dtype=complex)
        for term in np.moveaxis(terms, -1, 0):
            y = term - comp
            s = total + y
            comp = (s - total) - y
            total = s
        return total[()]


def default_series_order(p: ManifoldPresentation, x_max: float) -> int:
    """Truncation order making the td-series tail below 1e-13 at
    |x| <= x_max.

    The series in u has radius set by the nearest pole of td(-(k u)), at
    |x| = 1/k, so the tail is controlled by (k_max * x_max)^order.
    """
    k = max((abs(w) for F in p.components for w, _ in F.normal), default=1)
    ratio = k * x_max
    floor_order = 2 * p.dim_M
    if ratio >= 0.97:
        raise InputError(
            f"max weight {brief(k)}: |x| = {x_max} is too close to the "
            "singular circle |x| = 1/weight; no convergent series order "
            "exists")
    if ratio <= 0:
        return floor_order
    need = log(1e-13) / log(ratio)
    return max(floor_order, int(need) + 2)

