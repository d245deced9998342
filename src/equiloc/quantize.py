"""Assembly of the singular Riemann-Roch formula.

The invariant Riemann-Roch number (the z^0 coefficient of the character)
decomposes as

    rr = regular term + sum over indefinite F at moment 0 of exceptional
         terms + sum over F at moment 0 of residue terms,

where the residue prescription per component is: residue at z = 0 of
z^{-1} chi_tilde for a positive-definite component (local minimum of the
moment map), the residue at infinity for a negative-definite one, and the
average of the two for an indefinite one (`Classification.side`), which
is 0: there a factor 1/(1 - z^k e^a) with k < 0 vanishes at z = 0, one
with k > 0 at infinity, and the others stay finite, so both side residues
are 0 and the component contributes its exceptional term alone.

The exceptional term of an isolated indefinite point with l+ positive and
l- negative weights, the paper's local invariant of the singularity, has
the closed form

    rho_n (1/2 - 2^{-n} sum_{i=l+}^{n} C(n, i)) / prod (-w),  n = l+ + l- - 1,

with rho_n the degree-n coefficient of the localized integrand: the normal
Todd product prod td(-w u) of `localization.normal_todd`, the same product
the numeric path integrates at a point.  The bracket is the
u^{l+ - 1} v^{l- - 1} coefficient of [(u^n + v^n)/2 - ((u+v)/2)^n] / (u - v),
read off by synthetic division (`exceptional_from_series`).

The regular term is an integral over the regular stratum of the reduced
space; it is computed from user-supplied quotient data when present and
otherwise only reported as a tagged diagnostic (the difference of the other
terms), never silently invented.

Every term is a polynomial in m with m-free coefficients, built once and
kept on the frozen component or quotient data: a residue is linear, so the
residue term has the residues of the pieces of chi_tilde as coefficients
(`FixedComponent.residue_pieces`); the exceptional term of an isolated point
depends on its weights alone (`_kernel`, `FixedComponent.exceptional`); the
supplied regular term int e^{m omega0} kappa has the coefficients int kappa
omega0^j/j! (`QuotientData.regular_pieces`); all as int numerators over one
denominator.  A report costs one character and, per value it returns, an int
Horner sum and one Fraction; its diagnostic rr - residues - exceptionals
reads their sum, kept as one int row over one lcm
(`ManifoldPresentation.formula_plan`), and its balance compares ints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .ring import brief
from .model import (Classification, FixedComponent, ManifoldPresentation,
                    Record, Unsupported)
from .zrational import over_lcm
from . import localization


def rr_invariant(p: ManifoldPresentation, m: int) -> int:
    """The multiplicity of the trivial weight in the index character."""
    return localization.character(p, m).coefficient(0)


def _horner(row: tuple[int, ...], m: int) -> int:
    """sum_j m^j row[j], in ints."""
    acc = 0
    for c in reversed(row):
        acc = acc * m + c
    return acc


def _at(poly: tuple[tuple[int, ...], int], m: int) -> Fraction:
    """sum_j m^j n_j / d for poly = (n, d): an int Horner sum, one Fraction."""
    return Fraction(_horner(poly[0], m), poly[1])


def residue_pieces(F: FixedComponent) -> tuple[tuple[int, ...], int]:
    """The residue prescription of F's classification side applied to each
    m-free piece of chi_tilde (residues are linear), over one denominator.
    On an indefinite F every piece vanishes at z = 0, through a factor
    with k < 0, and at infinity, through one with k > 0, so both side
    residues are 0 and so is their average: no series is expanded."""
    side = F.classification.side
    if side == "avg":
        return (), 1
    return over_lcm(P.shifted(-1).residue_at_zero() if side == "plus"
                    else P.residue_at_infinity() for P in F.chi_pieces)


def residue_term(F: FixedComponent, m: int) -> Fraction:
    """The residue prescription applied to chi_tilde of a moment-zero
    component, dispatched on its classification: a polynomial in m whose
    integer coefficients are kept on F (`FixedComponent.residue_pieces`)."""
    if F.moment != 0:
        raise ValueError(
            f"component {F.name} has moment {F.moment}; residue terms are "
            "defined for moment-zero components only")
    return _at(F.residue_pieces, m)


def exceptional_term(F: FixedComponent) -> Fraction:
    """Contribution of an isolated indefinite moment-zero component, with
    rho_n read from the normal Todd product of F's weights
    (`localization.normal_todd`) at the one degree that contributes,
    n = l+ + l- - 1, which is the normal rank less one at an isolated
    point, where int_F Td(F) is 1 (`model.validate`).  It depends on F's
    weights alone (omega vanishes at a point), so past the checks it is
    read from `_kernel`, kept per sorted weights."""
    _check_exceptional(F)
    ws = tuple(sorted(F.weights()))
    den, row = localization.normal_todd(ws, len(ws) - 1)
    return _kernel(ws, row[-1], den)


def _check_exceptional(F: FixedComponent) -> None:
    """Raise unless F is an isolated indefinite moment-zero component."""
    if F.moment != 0:
        raise ValueError("exceptional terms require moment zero")
    if F.classification is not Classification.INDEFINITE:
        raise ValueError(f"component {F.name} is {F.classification.value}; "
                         "exceptional terms require an indefinite one")
    if F.dim_F != 0:
        raise Unsupported(
            f"component {brief(F.name)}: a positive-dimensional indefinite "
            "component's exceptional term needs sphere-bundle data, which a "
            "flat presentation lacks")


@lru_cache(maxsize=None)
def _kernel(ws: tuple[int, ...], num: int, den: int) -> Fraction:
    """(1/2 - p) rho_n / prod(-w), rho_n = num/den, ws sorted, in ints."""
    n = len(ws) - 1
    tail = sum(math.comb(n, i) for i in range(sum(w > 0 for w in ws), n + 1))
    return Fraction(num * (2 ** n - 2 * tail),
                    den * 2 ** (n + 1) * math.prod(-w for w in ws))


def exceptional_from_series(F: FixedComponent,
                            rho: dict[int, Fraction]) -> Fraction:
    """The exceptional contribution for an arbitrary scalar series rho.

    It is the coefficient of u^{l+ - 1} v^{l- - 1} in the kernel
    N(u, v) = (rho(u) + rho(v))/2 - rho((u+v)/2) divided by (u - v),
    weighted by 1/prod(-w) over all the weights.
    Only the degree-n part of N, n = l+ + l- - 1, has quotient terms of
    that degree, so only rho_n enters (affine parts of rho drop out):

        N_n / rho_n = (u^n + v^n)/2 - ((u+v)/2)^n = sum_i a_i u^i v^{n-i},
        a_i = [i = 0]/2 + [i = n]/2 - C(n, i)/2^n.

    Synthetic division of N_n = Q (u - v) from the top gives Q's
    coefficient of u^i v^{n-1-i} as a_{i+1} + ... + a_n, so the wanted one
    (i = l+ - 1 >= 0) is 1/2 - p with p = 2^{-n} sum_{i=l+}^{n} C(n, i),
    which is 0 at l+ = l- = 1 (the only isolated shape possible below
    dimension six).

    The weight 1/prod(-w) fixes the orientation: the term is
    (1/2 - p) r_F, with r_F = rho_n / prod(-w) the u-residue of the
    point's localized Todd integrand.  Reversing the circle action
    (t -> 1/t) negates every weight and moment and keeps M, L and the
    reduced space, so rr, the regular term and the residue sum do not
    change, and neither may the exceptional sum.  Reversal swaps l+ and
    l-, so p becomes 1 - p, and sends rho(u) to rho(-u), so r_F becomes
    -r_F: the product is unchanged.  Dividing by prod |w| instead gives
    (-1)^{l+} (1/2 - p) r_F, which flips sign under reversal when n is
    even.  In ints, tail = sum_{i=l+}^{n} C(n, i) gives one Fraction,
    (2^n - 2 tail) rho_n / (2^{n+1} prod(-w)).
    """
    _check_exceptional(F)
    ws = tuple(sorted(F.weights()))
    return _kernel(ws, *rho.get(len(ws) - 1, 0).as_integer_ratio())


def regular_term(p: ManifoldPresentation, m: int) -> tuple[Fraction, str]:
    """The reduced-space term: exact when quotient data is supplied (the
    polynomial int e^{m omega0} kappa, from `QuotientData.regular_pieces`),
    otherwise the tagged diagnostic rr - residues - exceptionals, as
    `main_formula_report` derives it."""
    if p.quotient is None:
        rep = main_formula_report(p, m)
        return rep.regular, rep.regular_tag
    return _at(p.quotient.regular_pieces, m), "supplied"


class MainFormulaReport(Record):
    m: int
    rr: int
    residue_terms: dict[str, tuple[str, Fraction]]
    exceptional_terms: dict[str, Fraction]
    regular: Fraction
    regular_tag: str
    balance: Optional[bool]

    def residue_sum(self) -> Fraction:
        return sum((v for _, v in self.residue_terms.values()), Fraction(0))

    def exceptional_sum(self) -> Fraction:
        return sum(self.exceptional_terms.values(), Fraction(0))


def main_formula_report(p: ManifoldPresentation, m: int) -> MainFormulaReport:
    """Every term once: with quotient data the supplied regular term and the
    balance check, otherwise the regular term as the diagnostic
    rr - residues - exceptionals, from the m-free plan kept on p
    (`ManifoldPresentation.formula_plan`)."""
    rr = rr_invariant(p, m)
    zero, exceptionals, (rest, d) = p.formula_plan
    residues = {F.name: (value, residue_term(F, m)) for F, value in zero}
    diagnostic = rr * d - _horner(rest, m)    # over d
    balance: Optional[bool] = None
    if p.quotient is None:
        reg, tag = Fraction(diagnostic, d), "diagnostic"
    else:
        reg, tag = regular_term(p, m)
        n, den = reg.as_integer_ratio()
        balance = n * d == diagnostic * den
    return MainFormulaReport(m, rr, residues, dict(exceptionals), reg, tag,
                             balance)


def exact_polynomial_fit(points: list[tuple[int, Fraction]]) -> list[Fraction]:
    """Coefficients (ascending) of the unique polynomial of degree
    len(points)-1 through the given points, by divided differences."""
    if not points:
        raise ValueError("need at least one point")
    xs = [Fraction(x) for x, _ in points]
    dd = [Fraction(v) for _, v in points]
    n = len(points)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])
    # Horner expansion of dd[0] + (x-x0)(dd[1] + (x-x1)(dd[2] + ...))
    coeffs = [dd[n - 1]]
    for i in range(n - 2, -1, -1):
        new = [Fraction(0)] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            new[d + 1] += c
            new[d] -= c * xs[i]
        new[0] += dd[i]
        coeffs = new
    return coeffs


class PolynomialFit(Record):
    coefficients: list[Fraction]       # ascending powers of m
    residuals: dict[int, Fraction]     # m -> value - fit(m)

    def evaluate(self, m: int) -> Fraction:
        return _at(over_lcm(self.coefficients), m)


def polynomiality_check(p: ManifoldPresentation, m_min: int,
                        m_max: int) -> PolynomialFit:
    """Fit rr_invariant exactly on the first dim_M/2 + 1 moments and report
    the deviations at the remaining ones.  rr is a quasi-polynomial whose
    period divides lcm |weights|, so the residual is 0 where that is 1."""
    degree_cap = p.dim_M // 2
    if m_max - m_min < degree_cap + 2:
        raise ValueError(
            f"need m_max - m_min >= dim_M/2 + 2 = {degree_cap + 2}")
    ms = list(range(m_min, m_max + 1))
    values = {m: Fraction(rr_invariant(p, m)) for m in ms}
    anchor = ms[:degree_cap + 1]
    coeffs = exact_polynomial_fit([(m, values[m]) for m in anchor])
    poly = over_lcm(coeffs)
    return PolynomialFit(coeffs, {m: values[m] - _at(poly, m)
                                  for m in ms[degree_cap + 1:]})
