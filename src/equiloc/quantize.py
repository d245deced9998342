"""Assembly of the singular Riemann-Roch formula.

The invariant Riemann-Roch number (the z^0 coefficient of the character)
decomposes as

    rr = regular term + sum over indefinite F at moment 0 of exceptional
         terms + sum over F at moment 0 of residue terms,

where the residue prescription per component is: residue at z = 0 of
z^{-1} chi_tilde for a positive-definite component (local minimum of the
moment map), the residue at infinity for a negative-definite one, and the
average of the two for an indefinite one (`Classification.side`).

The exceptional term of an isolated indefinite point with l+ positive and
l- negative weights, the paper's local invariant of the singularity, has
the closed form

    rho_n (1/2 - 2^{-n} sum_{i=l+}^{n} C(n, i)) / prod |w|,  n = l+ + l- - 1,

with rho_n the degree-n coefficient of the localized integrand.  The
bracket is the u^{l+ - 1} v^{l- - 1} coefficient of
[(u^n + v^n)/2 - ((u+v)/2)^n] / (u - v), read off by synthetic division
(`exceptional_from_series`).

The regular term is an integral over the regular stratum of the reduced
space; it is computed from user-supplied quotient data when present and
otherwise only reported as a tagged diagnostic (the difference of the other
terms), never silently invented.

Every term is a polynomial in m with m-free coefficients, built once and
kept on the frozen component or quotient data: a residue is linear, so the
residue term has the residues of the pieces of chi_tilde as coefficients
(`FixedComponent.residue_pieces`); the exceptional term of an isolated
point does not depend on m (`FixedComponent.exceptional`); the supplied
regular term int e^{m omega0} kappa has the coefficients
int kappa omega0^j/j! (`QuotientData.regular_pieces`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .model import FixedComponent, ManifoldPresentation
from .zrational import NotAPolynomial
from . import localization


class Classification(enum.Enum):
    POSITIVE_DEFINITE = "positive-definite"
    NEGATIVE_DEFINITE = "negative-definite"
    INDEFINITE = "indefinite"

    @property
    def side(self) -> str:
        """The residue, and the boundary value of the Witten expansion:
        plus (at z = 0, x^{-k}_+), minus (at infinity, x^{-k}_-) or avg."""
        return {"positive-definite": "plus",
                "negative-definite": "minus"}.get(self.value, "avg")


class Unsupported(NotImplementedError):
    """Exceptional data for a positive-dimensional indefinite component is
    not representable in a flat presentation."""


class NotIndefinite(ValueError):
    pass


def classify(F: FixedComponent) -> Classification:
    ws = F.weights()
    if all(w > 0 for w in ws):
        return Classification.POSITIVE_DEFINITE
    if all(w < 0 for w in ws):
        return Classification.NEGATIVE_DEFINITE
    return Classification.INDEFINITE


def rr_invariant(p: ManifoldPresentation, m: int) -> int:
    """The multiplicity of the trivial weight in the index character;
    NotAPolynomial when it is not an integer (inconsistent data)."""
    c = localization.character(p, m).constant_term()
    if c.denominator != 1:
        raise NotAPolynomial(f"invariant multiplicity {c} is not an integer")
    return c.numerator


def _polyval(coeffs, m: int) -> Fraction:
    """sum_j m^j coeffs[j], by Horner."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * m + c
    return acc


def residue_pieces(F: FixedComponent) -> tuple[Fraction, ...]:
    """The residue prescription of F's classification side applied to each
    m-free piece of chi_tilde (residues are linear)."""
    side = classify(F).side

    def residue(P):
        if side == "plus":
            return P.shifted(-1).residue_at_zero()
        if side == "minus":
            return P.residue_at_infinity()
        return (P.shifted(-1).residue_at_zero()
                + P.residue_at_infinity()) / 2

    return tuple(residue(P) for P in F.chi_pieces)


def residue_term(F: FixedComponent, m: int) -> Fraction:
    """The residue prescription applied to chi_tilde of a moment-zero
    component, dispatched on its classification: a polynomial in m whose
    coefficients are kept on F (`FixedComponent.residue_pieces`)."""
    if F.moment != 0:
        raise ValueError(
            f"component {F.name} has moment {F.moment}; residue terms are "
            "defined for moment-zero components only")
    return _polyval(F.residue_pieces, m)


def exceptional_term(F: FixedComponent) -> Fraction:
    """Contribution of an isolated indefinite moment-zero component, with
    the equivariant Todd class as the localized integrand, expanded to the
    one degree that contributes, l+ + l- - 1, which is the normal rank less
    one at an isolated point.  It does not depend on m, since omega
    vanishes at a point; `FixedComponent.exceptional` keeps it."""
    scalar = localization.equivariant_todd_at_F(
        F, F.normal_rank() - 1).integrate_over_F()
    return exceptional_from_series(F, scalar)


def exceptional_from_series(F: FixedComponent,
                            rho: dict[int, Fraction]) -> Fraction:
    """The exceptional contribution for an arbitrary scalar series rho.

    It is the coefficient of u^{l+ - 1} v^{l- - 1} in the kernel
    N(u, v) = (rho(u) + rho(v))/2 - rho((u+v)/2) divided by (u - v),
    weighted by 1/(prod of positive weights * prod of |negative| weights).
    Only the degree-n part of N, n = l+ + l- - 1, has quotient terms of
    that degree, so only rho_n enters (affine parts of rho drop out):

        N_n / rho_n = (u^n + v^n)/2 - ((u+v)/2)^n = sum_i a_i u^i v^{n-i},
        a_i = [i = 0]/2 + [i = n]/2 - C(n, i)/2^n.

    Synthetic division of N_n = Q (u - v) from the top gives Q's
    coefficient of u^i v^{n-1-i} as a_{i+1} + ... + a_n, so the wanted one
    (i = l+ - 1 >= 0) is 1/2 - 2^{-n} sum_{i=l+}^{n} C(n, i), which is 0
    at l+ = l- = 1 (the only isolated shape possible below dimension six).
    """
    if F.moment != 0:
        raise ValueError("exceptional terms require moment zero")
    if classify(F) is not Classification.INDEFINITE:
        raise NotIndefinite(f"component {F.name} is definite")
    if F.dim_F != 0:
        raise Unsupported(
            f"component {F.name}: the exceptional term of a "
            "positive-dimensional indefinite component needs sphere-bundle "
            "connection data that a flat presentation does not carry")
    pos = [w for w in F.weights() if w > 0]
    neg = [-w for w in F.weights() if w < 0]
    n = len(pos) + len(neg) - 1
    tail = sum(math.comb(n, i) for i in range(len(pos), n + 1))
    coeff = Fraction(1, 2) - Fraction(tail, 2 ** n)
    return rho.get(n, 0) * coeff / math.prod(pos + neg)


def regular_term(p: ManifoldPresentation, m: int) -> tuple[Fraction, str]:
    """The reduced-space term: exact when quotient data is supplied (the
    polynomial int e^{m omega0} kappa, from `QuotientData.regular_pieces`),
    otherwise the tagged diagnostic rr - residues - exceptionals, as
    `main_formula_report` derives it."""
    if p.quotient is None:
        rep = main_formula_report(p, m)
        return rep.regular, rep.regular_tag
    return _polyval(p.quotient.regular_pieces, m), "supplied"


@dataclass
class MainFormulaReport:
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
    rr - residues - exceptionals."""
    rr = rr_invariant(p, m)
    residues = {}
    exceptionals = {}
    for F in p.f_zero():
        cls = classify(F)
        residues[F.name] = (cls.value, residue_term(F, m))
        if cls is Classification.INDEFINITE:
            exceptionals[F.name] = F.exceptional
    rest = sum((v for _, v in residues.values()), Fraction(0)) \
        + sum(exceptionals.values(), Fraction(0))
    balance: Optional[bool] = None
    if p.quotient is None:
        reg, tag = rr - rest, "diagnostic"
    else:
        reg, tag = regular_term(p, m)
        balance = reg + rest == rr
    return MainFormulaReport(m=m, rr=rr, residue_terms=residues,
                             exceptional_terms=exceptionals, regular=reg,
                             regular_tag=tag, balance=balance)


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
    coeffs += [Fraction(0)] * (n - len(coeffs))
    return coeffs


@dataclass
class PolynomialFit:
    coefficients: list[Fraction]       # ascending powers of m
    fitted_at: list[int]
    residuals: dict[int, Fraction]     # m -> value - fit(m)

    def degree(self) -> int:
        d = len(self.coefficients) - 1
        while d > 0 and self.coefficients[d] == 0:
            d -= 1
        return d

    def evaluate(self, m: int) -> Fraction:
        return _polyval(self.coefficients, m)

    def max_residual(self) -> Fraction:
        return max((abs(r) for r in self.residuals.values()),
                   default=Fraction(0))


def polynomiality_check(p: ManifoldPresentation, m_min: int,
                        m_max: int) -> PolynomialFit:
    """Fit rr_invariant exactly on the first dim_M/2 + 1 moments and report
    the deviations at the remaining ones; a presentation with a free action
    on the regular stratum must have residual identically zero."""
    degree_cap = p.dim_M // 2
    if m_max - m_min < degree_cap + 2:
        raise ValueError(
            f"need m_max - m_min >= dim_M/2 + 2 = {degree_cap + 2}")
    ms = list(range(m_min, m_max + 1))
    values = {m: Fraction(rr_invariant(p, m)) for m in ms}
    anchor = ms[:degree_cap + 1]
    coeffs = exact_polynomial_fit([(m, values[m]) for m in anchor])
    fit = PolynomialFit(coefficients=coeffs, fitted_at=anchor, residuals={})
    for m in ms[degree_cap + 1:]:
        fit.residuals[m] = values[m] - fit.evaluate(m)
    return fit
