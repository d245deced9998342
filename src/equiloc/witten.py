"""Numerical evaluation of the oscillatory moment-map pairing and of its
large-m expansion.

The pairing is  <W_m, phi> = int_R [localized inner integrand](x) phi(x) dx
for a smooth even bump phi that is identically 1 near 0, the integrand
being the equivariant Todd class localized to the fixed components.  The
integrand has per-component poles at x = 0 that cancel in the sum; the
evaluation therefore splits the axis into an inner disc, where the
oscillatory factors are Taylor-expanded and the pole cancellation is
performed exactly in rational arithmetic, and the remaining annulus, which
is handled by adaptive quadrature.  There the integrand is
`PreparedInner.evaluate`, which runs over coefficients frozen to Python
complex once per (presentation, m, order), and `complex_quad` evaluates it
once per distinct node, sharing the value between the real and the
imaginary quad pass.

The expansion side pairs each power u^j = (2 pi i x)^j of a moment-zero
component's Laurent data with phi, for j < 0 through the boundary value
(x + i0)^j, (x - i0)^j or their average, on the side its classification
picks (`Classification.side`).  phi is even and 1 on [-delta1, delta1], so
every such pairing is one moment of phi, the Hadamard finite part for
j < -1 (Gel'fand-Shilov, Generalized Functions I, ch. I, 3-4):

    <x^j_pm, phi> = [j even] 2 (delta1^{j+1}/(j+1)
                                + int_{delta1}^{delta2} x^j phi(x) dx)
                    -/+ [j = -1] i pi.

The expansion adds the exceptional terms (`FixedComponent.exceptional`)
and the regular term of `quantize.regular_term`, the same terms that
`main_formula_report` computes exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from statistics import linear_regression
from typing import Callable, Mapping, Optional, Sequence

from scipy.integrate import quad

from .localization import (PreparedInner, component_u_laurent,
                           default_series_order)
from .model import ManifoldPresentation
from .quantize import Classification, classify, regular_term


class CancellationError(ArithmeticError):
    """Pole cancellation failed: inconsistent data or starved expansion."""


# ---------------------------------------------------------------------------
# test functions


class TestFunction:
    """Smooth even bump: 1 on [-delta1, delta1], 0 outside [-delta2, delta2],
    glued by the standard exponential mollifier step f/(f + g), with
    f = exp(-1/t), g = exp(-1/(1 - t)) and t = (delta2 - |x|)/(delta2 -
    delta1).  Outside a thin guard strip around the gluing points the bump
    is flat to far below double precision and takes the flat values.

    The expansion pairs with phi through its moments (`moment`), each
    computed once and cached.  Derivative evaluators (`derivative`) are
    generated symbolically once per order asked for and cached; they serve
    as an independent check of the distributions (the jump relation).
    """

    _GUARD = 0.002  # exp(-1/t) < 1e-217 here: flat for all practical orders

    def __init__(self, delta1: float = 0.1, delta2: float = 0.25):
        if not 0 < delta1 < delta2:
            raise ValueError("need 0 < delta1 < delta2")
        self.delta1 = float(delta1)
        self.delta2 = float(delta2)
        self._lams: dict[int, Callable[[float], float]] = {}
        self._moments: dict[int, float] = {}

    def moment(self, j: int) -> float:
        """int x^j phi(x) dx, the Hadamard finite part for j < -1: 0 for
        odd j, else 2 (delta1^{j+1}/(j+1) + int_{delta1}^{delta2} x^j phi).
        The glued part is one quad with a relative bound only, so that it
        stays accurate where x^j is tiny (j near 100)."""
        if j not in self._moments:
            value = 0.0
            if j % 2 == 0:
                glued = quad(lambda x: x ** j * self(x), self.delta1,
                             self.delta2, epsabs=0, epsrel=1e-13)[0]
                value = 2 * (self.delta1 ** (j + 1) / (j + 1) + glued)
            self._moments[j] = value
        return self._moments[j]

    def _transition(self, j: int) -> Callable[[float], float]:
        """j-th derivative (j >= 1) of the decreasing step on (delta1,
        delta2); only the orders asked for are built."""
        if j not in self._lams:
            import sympy as sp
            x = sp.symbols("x", positive=True)
            t = (self.delta2 - x) / (self.delta2 - self.delta1)
            f = sp.exp(-1 / t)
            g = sp.exp(-1 / (1 - t))
            self._lams[j] = sp.lambdify(x, sp.diff(f / (f + g), x, j), "math")
        return self._lams[j]

    def derivative(self, j: int) -> Callable[[float], float]:
        if j == 0:
            return self.__call__
        width = self.delta2 - self.delta1

        def deriv(x: float) -> float:
            ax = abs(x)
            t = (self.delta2 - ax) / width
            if t <= self._GUARD or t >= 1 - self._GUARD:
                return 0.0
            value = self._transition(j)(ax)
            return value if x >= 0 else (-1.0) ** j * value

        return deriv

    def __call__(self, x: float) -> float:
        ax = abs(x)
        if ax <= self.delta1:
            return 1.0
        if ax >= self.delta2:
            return 0.0
        t = (self.delta2 - ax) / (self.delta2 - self.delta1)
        if t <= self._GUARD:
            return 0.0
        if t >= 1 - self._GUARD:
            return 1.0
        f = math.exp(-1 / t)
        g = math.exp(-1 / (1 - t))
        return f / (f + g)


# ---------------------------------------------------------------------------
# quadrature helpers


def complex_quad(f: Callable[[float], complex], a: float, b: float,
                 points: Sequence[float], limit: int,
                 epsabs: float = 1e-11) -> complex:
    """int_a^b f(x) dx as two real quad passes, one per part, that share a
    memo of f by node: each distinct node is evaluated once, and each pass
    sees the values it would see on its own."""
    kwargs = dict(epsabs=epsabs, epsrel=1e-11, limit=limit,
                  points=[p for p in points if a < p < b])
    seen: dict[float, complex] = {}

    def value(x: float) -> complex:
        if x not in seen:
            seen[x] = f(x)
        return seen[x]

    re = quad(lambda x: value(x).real, a, b, **kwargs)[0]
    im = quad(lambda x: value(x).imag, a, b, **kwargs)[0]
    return re + 1j * im


# ---------------------------------------------------------------------------
# boundary-value distributions


def dist_pair(k: int, side: str, phi: TestFunction) -> complex:
    """<x^{-k}_side, phi> for side in {plus, minus, avg}: the finite-part
    moment of phi, with the delta term -/+ i pi phi(0) for k = 1 only (the
    delta^{(k-1)} term of k > 1 pairs with phi's flat top to 0)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if side not in ("plus", "minus", "avg"):
        raise ValueError("side must be plus, minus or avg")
    value = complex(phi.moment(-k))
    if k == 1 and side != "avg":
        value += -1j * math.pi if side == "plus" else 1j * math.pi
    return value


_EPS_LIST = [0.02 / 2 ** j for j in range(6)]


def eps_limit_pair(k: int, side: str, phi: TestFunction) -> complex:
    """Independent oracle: lim_{eps->0+} int phi(x)/(x +- i eps)^k dx by
    Richardson extrapolation in eps over 0.02, 0.01, ..., 0.02/32."""
    if side == "avg":
        return (eps_limit_pair(k, "plus", phi)
                + eps_limit_pair(k, "minus", phi)) / 2
    sign = 1.0 if side == "plus" else -1.0
    values = []
    for eps in _EPS_LIST:
        f = lambda x: phi(x) / (x + sign * 1j * eps) ** k
        values.append(complex_quad(f, -phi.delta2, phi.delta2,
                                   points=[0.0], epsabs=1e-13, limit=800))
    # Lagrange extrapolation of the smooth-in-eps values to eps = 0
    total = 0j
    for i, (ei, vi) in enumerate(zip(_EPS_LIST, values)):
        w = 1.0
        for j, ej in enumerate(_EPS_LIST):
            if j != i:
                w *= ej / (ej - ei)
        total += w * vi
    return total


_TWO_PI_I = 2j * math.pi


def pair_u_laurent(laurent: Mapping[int, Fraction], side: str,
                   phi: TestFunction) -> complex:
    """Pair a scalar Laurent series in u = 2 pi i x against phi term by
    term, sum_j c_j (2 pi i)^j <x^j_side, phi>: negative powers through
    the boundary-value distributions, the others through phi's moments."""
    value = 0j
    for j, c in sorted(laurent.items()):
        pairing = dist_pair(-j, side, phi) if j < 0 else phi.moment(j)
        value += complex(c) * _TWO_PI_I ** j * pairing
    return value


# ---------------------------------------------------------------------------
# the pairing and its expansion


def _adaptive_taylor_order(rate: float, floor: int) -> int:
    """The least K >= floor (at most 400) whose Taylor remainder bound
    rate^{K+1}/(K+1)! is at most 1e-13."""
    K = floor
    bound = rate ** (K + 1) / math.factorial(K + 1)
    while bound > 1e-13 and K < 400:
        K += 1
        bound *= rate / (K + 1)
    return K


def witten_pair(p: ManifoldPresentation, rho: str, phi: TestFunction,
                m: int) -> complex:
    """<W_m, phi>: quadrature away from zero plus exact pole cancellation
    and polynomial integration on the inner disc.  The integrand is the
    equivariant Todd class, the only value `rho` accepts ("todd").

    The inner radius is m^{-1/2}/10, clipped to delta1/2, and the
    Taylor order is grown until the oscillatory remainder is negligible;
    the two evaluation pathways are then required to agree on the overlap
    annulus, which catches both inconsistent data and starved expansions.
    """
    if rho != "todd":
        raise ValueError(f"rho must be 'todd', got {rho!r}")
    if m < 0:
        raise ValueError("m must be nonnegative")
    eta = min(phi.delta1 / 2, m ** -0.5 / 10) if m else phi.delta1 / 2
    j_max = max((abs(F.moment) for F in p.components), default=0)
    max_pole = max(((p.dim_M - F.dim_F) // 2 for F in p.components),
                   default=0)
    # the combined series e^{mJu} L(u) must be kept to the degree where the
    # oscillatory growth (2 pi m J |x|)^n / n! has died off, not merely to
    # the order the outer quadrature radius requires
    rate = 2 * math.pi * m * j_max * (2 * eta)
    inner_order = _adaptive_taylor_order(rate, floor=max(max_pole, 4))
    order = max(default_series_order(p, phi.delta2), inner_order)
    prepared = PreparedInner(p, m, order)
    K = inner_order + max_pole
    poly = prepared.laurent_sum(K)
    bad = {j: c for j, c in poly.items() if j < 0 and c != 0}
    if bad:
        raise CancellationError(
            f"inner expansion keeps singular powers {sorted(bad)}: "
            "fixed-point data is inconsistent")
    # int_{-eta}^{eta} P(2 pi i x) dx with phi = 1 there: odd powers drop
    inner = 0j
    for j, c in sorted(poly.items()):
        if j % 2 == 0:
            inner += complex(c) * _TWO_PI_I ** j * 2 * eta ** (j + 1) / (j + 1)

    top = max(poly, default=0)

    def poly_eval(x: float) -> complex:
        u = _TWO_PI_I * x
        acc = 0j
        for j in range(top, -1, -1):
            acc = acc * u + complex(poly.get(j, 0))
        return acc

    for x0 in (eta, 1.5 * eta):
        direct = prepared.evaluate(x0)
        series = poly_eval(x0)
        if abs(direct - series) > 1e-9 * max(1.0, abs(direct)):
            raise CancellationError(
                f"evaluation pathways disagree at x = {x0}: "
                f"|{direct} - {series}|; expansion starved or data bad")

    def outer(x: float) -> complex:
        return prepared.evaluate(x) * phi(x)

    pieces = complex_quad(outer, eta, phi.delta2, points=[phi.delta1],
                          limit=600)
    pieces += complex_quad(outer, -phi.delta2, -eta, points=[-phi.delta1],
                           limit=600)
    return inner + pieces


def expansion_rhs(p: ManifoldPresentation, phi: TestFunction, m: int,
                  regular: Optional[complex] = None) -> complex:
    """The asymptotic expansion evaluated at m: reduced-space term plus,
    per moment-zero component, its exceptional contribution (indefinite
    case) and its Laurent data, to the series order that phi's support
    needs, paired through the boundary distribution of its side.

    The reduced-space term is `quantize.regular_term`: the supplied one
    with quotient data, otherwise the diagnostic rr - residues -
    exceptionals.  `regular`, when given, replaces it by a value the
    caller already holds.
    """
    order = default_series_order(p, phi.delta2)
    if regular is None:
        regular = regular_term(p, m)[0]
    total = complex(regular)
    for F in p.f_zero():
        cls = classify(F)
        laurent = component_u_laurent(F, m, order)
        total += pair_u_laurent(laurent, cls.side, phi)
        if cls is Classification.INDEFINITE:
            total += complex(F.exceptional)
    return total


@dataclass
class WittenCheckReport:
    m_values: list[int]
    lhs: list[complex]
    rhs: list[complex]
    diffs: list[float] = field(default_factory=list)
    exponent: float = 0.0

    def max_diff(self) -> float:
        return max(self.diffs, default=0.0)


def decay_check(p: ManifoldPresentation, phi: TestFunction,
                m_list: Sequence[int]) -> WittenCheckReport:
    """Fit the decay exponent of |pairing - expansion| over a geometric list
    of distinct m: the least-squares slope of log|diff| on log m.
    Differences below 1e-16 are clipped to it before fitting, so that an
    exact agreement does not take the logarithm of 0."""
    if len(set(m_list)) < 4:
        raise ValueError("need at least four distinct m for a decay fit")
    lhs, rhs, diffs = [], [], []
    for m in m_list:
        left = witten_pair(p, "todd", phi, m)
        right = expansion_rhs(p, phi, m)
        lhs.append(left)
        rhs.append(right)
        diffs.append(max(abs(left - right), 1e-16))
    slope = linear_regression([math.log(m) for m in m_list],
                              [math.log(d) for d in diffs]).slope
    return WittenCheckReport(list(m_list), lhs, rhs, diffs, slope)
