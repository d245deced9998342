"""The fixed-point engine.

Exact side: chi_tilde assembles, per fixed component F, the meromorphic
function

    chi_tilde_F(z) = int_F Td(F) e^{m omega_F} prod_{k,j} 1/(1 - z^k e^{a_kj})

and the global character is the Laurent polynomial

    chi^(m)(z) = sum_F z^{m J(F)} chi_tilde_F(z),

whose z^0 coefficient is the invariant Riemann-Roch number.  omega_F is
nilpotent, so e^{m omega_F} = sum_j m^j omega_F^j/j! and chi_tilde_F are
polynomials in m of degree at most dim_F/2.  Their m-free coefficients
(`chi_tilde_pieces`) are built once per component and kept on it
(`FixedComponent.chi_pieces`); each m only sums them, then the one common
denominator sum and division of `character` follow.

Numeric side: the localized inner integrand of the Witten integral,

    dh_inner(x) = sum_F e^{2 pi i m x J(F)} int_F e^{m omega_F} rho_F(x)/e_F(x).

Normalization of the equivariant Euler class.  Internally every series is
written in the variable u = 2 pi i x, which keeps all coefficients rational.
A normal root of weight k and stored Chern root `a` contributes the factor
y = -(k u + a) to e_F and the factor td(y) = y/(1-e^{-y}) to the
equivariant Todd class.  This single sign is a calibration, fixed once by
requiring that on the rotation sphere (cp1 builder) the localized sum with
rho = 1 reproduce the exact pushforward integral

    int_M e^{2 pi i m x J} e^{m omega} = int_0^1 e^{2 pi i m x t} m dt
                                       = (e^{2 pi i m x} - 1)/(2 pi i x),

which forces 1/e = 1/(-2 pi i x) at the minimum, and by the exact identity
td(y)/y = 1/(1 - e^{-y}) which then reproduces each character factor
1/(1 - z^k e^a) at z = e^{2 pi i x}.  Tests assert both pins, and a
negative control perturbs the input: with every weight of the rotation
sphere doubled, its localized integral no longer matches the character of
the rotation sphere itself.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import comb, factorial
from typing import Mapping, Optional, Sequence, Union

from .model import FixedComponent, ManifoldPresentation
from .ring import GradedElement, RingSpec, todd_coefficient
from .zrational import LaurentPolynomial, ZRational, scalar_sum


# ---------------------------------------------------------------------------
# exact character


def chi_tilde_pieces(F: FixedComponent) -> tuple[ZRational, ...]:
    """The m-free pieces P_0..P_d of chi_tilde_F, d = dim_F/2 at most:

        P_j = int_F Td(F) omega_F^j/j! prod_{k,i} 1/(1 - z^k e^{a_ki}).

    An isolated point (dim_F == 0) has zero Chern roots, so its one piece
    takes the closed form  z^shift * sign * int_F Td / prod_k (1 - z^|k|)^{r_k}:
    by 1/(1 - z^k) = -z^|k| / (1 - z^|k|), a block of weight k < 0 and rank
    r contributes (-1)^r to sign and |k| r to shift.  Points keep this form
    because the general expansion below costs several times as much on the
    many isolated points of a product such as (cp1)^8.

    Other components expand each factor by nilpotency of its root a: for
    k > 0, with v = e^a - 1,
        1/(1 - z^k e^a) = sum_j z^{kj} v^j / (1 - z^k)^{j+1},
    and for k < 0, with v = e^{-a} - 1, as 1 - z^k e^a is -z^k e^a times
    1 - z^|k| e^{-a},
        1/(1 - z^k e^a) = -z^|k| (1+v) sum_j z^{|k|j} v^j / (1 - z^|k|)^{j+1},
    both sums ending where v^j vanishes.  The product of the expansions
    keeps one ring-valued coefficient per z^s / prod (1 - z^k)^mult; each
    piece integrates Td omega_F^j/j! against every coefficient, and
    `scalar_sum` brings the results over one denominator.
    """
    if F.dim_F == 0:
        sign, shift, den = 1, 0, {}
        for block in F.blocks:
            k, r = abs(block.weight), block.rank
            if block.weight < 0:
                sign *= (-1) ** r
                shift += k * r
            den[k] = den.get(k, 0) + r
        return (ZRational(shift, {0: sign * F.todd.integrate()}, den),)
    terms = {(0, ()): F.ring.one()}
    for block in F.blocks:
        for root in block.chern_roots:
            factor = _factor_terms(block.weight, root)
            nxt: dict[tuple, GradedElement] = {}
            for (s, den), c in terms.items():
                for t, k, mult, f in factor:
                    d = dict(den)
                    d[k] = d.get(k, 0) + mult
                    key = (s + t, tuple(sorted(d.items())))
                    term = c * f
                    nxt[key] = nxt[key] + term if key in nxt else term
            terms = nxt
    return tuple(
        scalar_sum(ZRational(s, {0: (c * tw).integrate()}, dict(den))
                   for (s, den), c in terms.items())
        for tw in (F.todd * w for w in F.omega.divided_powers()))


def _factor_terms(weight: int, root: GradedElement) -> list[tuple]:
    """The expansion of 1/(1 - z^weight e^root) in `chi_tilde_pieces`, as
    terms (s, |weight|, mult, coefficient) of z^s / (1 - z^|weight|)^mult."""
    k = abs(weight)
    one = root.ring.one()
    if weight > 0:
        v = root.exp_nilpotent() - one
        coef, start = one, 0
    else:
        v = (-root).exp_nilpotent() - one
        coef, start = -(one + v), k
    out = []
    j = 0
    while coef:
        out.append((start + k * j, k, j + 1, coef))
        coef = coef * v
        j += 1
    return out


def chi_tilde(F: FixedComponent, m: int) -> ZRational:
    """The component character function sum_j m^j P_j as a scalar
    ZRational, from the pieces kept on F (`FixedComponent.chi_pieces`)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    pieces = F.chi_pieces
    if len(pieces) == 1:
        return pieces[0]
    return scalar_sum(P.scale(m ** j) for j, P in enumerate(pieces))


def character(p: ManifoldPresentation, m: int) -> LaurentPolynomial:
    """Exact Laurent-polynomial character of the index representation.

    Raises NotAPolynomial when the per-component poles fail to cancel,
    which certifies the fixed-point data inconsistent.
    """
    return scalar_sum(chi_tilde(F, m).shifted(m * F.moment)
                      for F in p.components).to_laurent_polynomial()


# ---------------------------------------------------------------------------
# series in the equivariant parameter


class USeries:
    """Laurent series in u = 2 pi i x with GradedElement coefficients,
    truncated above `order`; negative powers are always finitely many."""

    __slots__ = ("ring", "coeffs", "order")

    def __init__(self, ring: RingSpec, coeffs: Mapping[int, GradedElement],
                 order: int):
        self.ring = ring
        self.order = order
        self.coeffs = {int(j): c for j, c in coeffs.items()
                       if j <= order and not c.is_zero()}

    @staticmethod
    def constant(ring: RingSpec, elem: GradedElement, order: int) -> "USeries":
        return USeries(ring, {0: elem}, order)

    def __mul__(self, other: "USeries") -> "USeries":
        order = min(self.order, other.order)
        out: dict[int, GradedElement] = {}
        for j1, c1 in self.coeffs.items():
            for j2, c2 in other.coeffs.items():
                j = j1 + j2
                if j > order:
                    continue
                prod = c1 * c2
                if prod.is_zero():
                    continue
                if j in out:
                    out[j] = out[j] + prod
                else:
                    out[j] = prod
        return USeries(self.ring, out, order)

    def integrate_over_F(self) -> dict[int, Fraction]:
        out = {}
        for j, c in self.coeffs.items():
            val = c.integrate()
            if val != 0:
                out[j] = val
        return out


def _td_factor(ring: RingSpec, weight: int, root: GradedElement,
               order: int) -> USeries:
    """td(y) for y = -(k u + a), as a USeries."""
    nil = -root                     # nilpotent part of y
    s = -Fraction(weight)           # u-coefficient of y
    nilpowers = [ring.one()]
    while not (nilpowers[-1] * nil).is_zero():
        nilpowers.append(nilpowers[-1] * nil)
    coeffs: dict[int, GradedElement] = {}
    for q in range(order + 1):
        acc = ring.zero()
        for t in range(len(nilpowers)):
            c = todd_coefficient(q + t) * comb(q + t, q)
            if c != 0:
                acc = acc + nilpowers[t] * c
        acc = acc * (s ** q)
        if not acc.is_zero():
            coeffs[q] = acc
    return USeries(ring, coeffs, order)


def equivariant_todd_at_F(F: FixedComponent,
                          order: Optional[int] = None) -> USeries:
    """The equivariant Todd class restricted to F,
    Td(F) * prod_{k,j} td(-(k u + a_kj)), truncated at u-order `order`
    (default: twice the ambient dimension)."""
    if order is None:
        order = 2 * (F.dim_F + 2 * F.normal_rank())
    series = USeries.constant(F.ring, F.todd, order)
    for block in F.blocks:
        for root in block.chern_roots:
            series = series * _td_factor(F.ring, block.weight, root, order)
    return series


def euler_inverse(F: FixedComponent, order: int) -> USeries:
    """1/e_F(u) = prod_{k,j} 1/(-(k u + a_kj)): a finite Laurent tail in 1/u
    times nilpotent corrections, truncated at u-order `order`."""
    ring = F.ring
    acc = USeries.constant(ring, ring.one(), order)
    for block in F.blocks:
        s = Fraction(block.weight)
        for root in block.chern_roots:
            # 1/(-(s*u + a)) = sum_{t>=0} (-1/s)^{t+1} a^t u^{-(t+1)}
            coeffs: dict[int, GradedElement] = {}
            power = ring.one()
            t = 0
            while True:
                c = power * ((Fraction(-1) / s) ** (t + 1))
                if not c.is_zero():
                    coeffs[-(t + 1)] = c
                power = power * root
                t += 1
                if power.is_zero():
                    break
            acc = acc * USeries(ring, coeffs, order)
    return acc


# None (rho = 1), "todd" (the equivariant Todd class) or one series per
# component name
RhoMap = Optional[Union[str, Mapping[str, USeries]]]


def _rho_series(F: FixedComponent, rho: RhoMap, order: int) -> USeries:
    if rho is None:
        return USeries.constant(F.ring, F.ring.one(), order)
    if rho == "todd":
        return equivariant_todd_at_F(F, order)
    return rho[F.name]


def component_u_laurent(F: FixedComponent, m: int, rho: RhoMap,
                        order: int) -> dict[int, Fraction]:
    """Scalar u-Laurent coefficients of int_F e^{m omega} rho_F / e_F."""
    series = _rho_series(F, rho, order)
    emw = USeries.constant(F.ring, (F.omega * Fraction(m)).exp_nilpotent(),
                           order)
    total = series * emw * euler_inverse(F, order)
    return total.integrate_over_F()


class PreparedInner:
    """The localized integrand with per-component Laurent data frozen,
    ready for repeated numeric evaluation.

    `terms` keeps the exact (moment, Laurent coefficients) per component
    for `laurent_sum`.  For `evaluate`, each nonempty component is also
    frozen once, in document order, into (m*J, lowest power, dense list of
    its coefficients as Python complex from the highest power down to the
    lowest, zeros included).  complex(Fraction) is correctly rounded, so
    converting once yields the same floats as converting on every call.
    """

    __slots__ = ("terms", "m", "order", "frozen")

    def __init__(self, p: ManifoldPresentation, m: int, rho: RhoMap,
                 order: int):
        self.m = m
        self.order = order
        self.terms = []
        self.frozen = []
        for F in p.components:
            laurent = component_u_laurent(F, m, rho, order)
            self.terms.append((F.moment, laurent))
            if laurent:
                lo = min(laurent)
                coeffs = [complex(laurent.get(j, Fraction(0)))
                          for j in range(max(laurent), lo - 1, -1)]
                self.frozen.append((m * F.moment, lo, coeffs))

    def laurent_sum(self, taylor_order: int) -> dict[int, Fraction]:
        """Exact u-Laurent coefficients of the full sum, with each
        oscillatory factor e^{m J u} Taylor-expanded to `taylor_order`."""
        out: dict[int, Fraction] = {}
        for J, laurent in self.terms:
            mJ = Fraction(self.m * J)
            for t in range(taylor_order + 1):
                etc = mJ ** t / factorial(t)
                if etc == 0 and t > 0:
                    break
                for j, c in laurent.items():
                    key = j + t
                    if key > self.order:
                        continue
                    out[key] = out.get(key, Fraction(0)) + etc * c
        return {k: v for k, v in out.items() if v != 0}

    def evaluate(self, x: float) -> complex:
        """Horner per component over the frozen coefficients, then a
        Kahan-compensated sum over components in document order."""
        if x == 0:
            raise ValueError("the localized integrand is singular at x = 0")
        u = 2j * cmath.pi * x
        total = 0j
        comp = 0j
        for mJ, lo, coeffs in self.frozen:
            acc = 0j
            for c in coeffs:
                acc = acc * u + c
            term = cmath.exp(mJ * u) * acc * u ** lo
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
        return total


def dh_inner(p: ManifoldPresentation, rho: RhoMap, m: int, x: float,
             order: Optional[int] = None) -> complex:
    """One-shot evaluation of the localized inner Witten integrand."""
    if order is None:
        order = default_series_order(p, abs(x))
    return PreparedInner(p, m, rho, order).evaluate(x)


def default_series_order(p: ManifoldPresentation, x_max: float,
                         tol: float = 1e-13) -> int:
    """Truncation order making the td-series tail below `tol` at |x|<=x_max.

    The series in u has radius set by the nearest pole of td(-(k u)), at
    |x| = 1/k, so the tail is controlled by (k_max * x_max)^order.
    """
    import math
    ratio = p.max_weight() * x_max
    floor_order = 2 * p.dim_M
    if ratio >= 0.97:
        raise ValueError(
            f"|x| = {x_max} too close to a singular circle 1/k; "
            "no convergent series order exists")
    if ratio <= 0:
        return floor_order
    need = math.log(tol) / math.log(ratio)
    return max(floor_order, int(need) + 2)


def kirillov_check(p: ManifoldPresentation, m: int,
                   x_samples: Sequence[float]) -> float:
    """Max deviation between the character at e^{2 pi i x} and the localized
    equivariant integral, over the given samples (which must avoid 0 and the
    circles where some e^{2 pi i k x} degenerates)."""
    chi = character(p, m)
    order = default_series_order(p, max(abs(x) for x in x_samples))
    prepared = PreparedInner(p, m, "todd", order)
    worst = 0.0
    for x in x_samples:
        z = cmath.exp(2j * cmath.pi * x)
        lhs = chi.evaluate(z)
        rhs = prepared.evaluate(x)
        worst = max(worst, abs(lhs - rhs))
    return worst
