"""Numerical evaluation of the oscillatory moment-map pairing and of its
large-m expansion.

The pairing is  <W_m, phi> = int_R [localized inner integrand](x) phi(x) dx
for a smooth even bump phi that is identically 1 near 0, the integrand
being the equivariant Todd class localized to the fixed components.  The
integrand has per-component poles at x = 0 that cancel in the sum; the
evaluation therefore splits the axis into an inner disc, where the
oscillatory factors are Taylor-expanded and the pole cancellation is
performed exactly in rational arithmetic, and the remaining annulus, which
is handled by composite Gauss-Legendre quadrature (`complex_quad`).  There
the integrand is `PreparedInner.evaluate`: a table of the powers of 2 pi x
times one matrix that holds, per moment J, the exact sum of the components
at J, kept to the annulus's m-free td-series order, as e^{2 pi i mJx} is
exact.  Those sums are real series in u = 2 pi i x, so the integrand at -x
is the conjugate of that at x; phi is even, so the annulus folds onto
x > 0 as twice the real part, and one call on a numpy array takes every
node of a quadrature level.

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
from fractions import Fraction
from statistics import linear_regression
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .localization import character
from .model import CancellationError, ManifoldPresentation, Record
from .quantize import Classification, regular_term
from .useries import PreparedInner, component_u_laurent, default_series_order


# ---------------------------------------------------------------------------
# test functions


class TestFunction:
    """Smooth even bump: 1 on [-delta1, delta1], 0 outside [-delta2, delta2],
    glued by the standard exponential mollifier step f/(f + g), with
    f = exp(-1/t), g = exp(-1/(1 - t)) and t = (delta2 - |x|)/(delta2 -
    delta1).  Outside a thin guard strip around the gluing points the bump
    is flat to far below double precision and takes the flat values.

    The expansion pairs with phi through its moments (`moment`), each
    computed once from a fixed 64-panel table (`at_nodes`) and cached.
    Its derivatives (`derivative`) come from Taylor-mode arithmetic on the
    step, O(j^2) float operations per value and no cache; they serve as an
    independent check of the distributions (the jump relation).
    """

    _GUARD = 0.002  # exp(-1/t) < 1e-217 here: flat for all practical orders

    def __init__(self, delta1: float = 0.1, delta2: float = 0.25):
        if not 0 < delta1 < delta2 < math.inf:
            raise ValueError("need 0 < delta1 < delta2 < inf")
        self.delta1 = float(delta1)
        self.delta2 = float(delta2)
        self._moments: dict[int, float] = {}
        self._tables: dict[int, np.ndarray] = {}

    def at_nodes(self, panels: int) -> np.ndarray:
        """phi at the nodes of the `panels`-panel rule on [delta1, delta2]
        (`_gauss_rule`), kept per panel count."""
        if panels not in self._tables:
            x, _ = _gauss_rule(self.delta1, self.delta2, panels)
            self._tables[panels] = np.array([self(v) for v in x])
        return self._tables[panels]

    def moment(self, j: int) -> float:
        """int x^j phi(x) dx, the Hadamard finite part for j < -1: 0 for
        odd j, else 2 (delta1^{j+1}/(j+1) + int_{delta1}^{delta2} x^j phi),
        the glued part by the 64-panel rule."""
        if j not in self._moments:
            x, w = _gauss_rule(self.delta1, self.delta2, 64)
            glued = float(np.dot(w * self.at_nodes(64), x ** j))
            self._moments[j] = 0.0 if j % 2 else 2 * (
                self.delta1 ** (j + 1) / (j + 1) + glued)
        return self._moments[j]

    def derivative(self, j: int) -> Callable[[float], float]:
        """phi^{(j)} for an int j >= 0, by Taylor-mode arithmetic on the step
        s = 1/(1 + e^h), h = 1/t - 1/(1 - t) (Griewank-Walther, Evaluating
        Derivatives, ch. 13).  In tau = t - t0 the coefficients of h are
        geometric.  With g = +-h signed so that g0 <= 0, E = e^{g - g0}
        follows n E_n = sum_k k g_k E_{n-k}, r = 1/(1 + e^{g0} E) the
        reciprocal recurrence, and s is r or 1 - r: nothing overflows, and
        e^{g0} <= 1 damps E's large coefficients in the reciprocal."""
        if not isinstance(j, int) or j < 0:
            raise ValueError(f"derivative order must be an int >= 0: {j!r}")
        if j == 0:
            return self.__call__
        width = self.delta2 - self.delta1

        def deriv(x: float) -> float:
            t = (self.delta2 - abs(x)) / width
            if t <= self._GUARD or t >= 1 - self._GUARD:
                return 0.0
            a, b = 1 / t, 1 / (1 - t)
            sign = 1.0 if a <= b else -1.0
            kg = [sign * k * ((-a) ** k * a - b ** (k + 1))
                  for k in range(j + 1)]
            p = math.exp(-abs(a - b))
            E, r = [1.0], [1 / (1 + p)]
            for n in range(1, j + 1):
                E.append(sum(kg[k] * E[n - k] for k in range(1, n + 1)) / n)
                r.append(-p * r[0] * sum(E[k] * r[n - k]
                                         for k in range(1, n + 1)))
            # dtau/dx = -1/width for x > 0, and phi^{(j)} has parity (-1)^j
            value = sign * math.factorial(j) * r[j] / (-width) ** j
            return value if x >= 0 else (-1) ** j * value

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


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_MAX_PANELS = 4096


def _gauss_rule(a: float, b: float, panels: int) -> tuple:
    """Nodes and weights of the composite 16-point Gauss-Legendre rule on
    `panels` equal panels of [a, b]."""
    half = (b - a) / (2 * panels)
    x = a + half * (2 * np.arange(panels)[:, None] + 1 + _GL_NODES)
    return x.ravel(), np.tile(half * _GL_WEIGHTS, panels)


def complex_quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                 panels: int) -> complex:
    """int_a^b f(x) dx by `_gauss_rule`, with the panel count doubled until
    two levels agree within 1e-11 max(1, |value|); f takes the whole node
    array of a level at once.  A rule that has not settled by 4096 panels
    raises CancellationError."""
    last = diff = math.nan
    while panels <= _MAX_PANELS:
        x, w = _gauss_rule(a, b, panels)
        value = complex(np.dot(w, f(x)))
        diff = abs(value - last)
        if diff <= 1e-11 * max(1.0, abs(value)):
            return value
        last, panels = value, 2 * panels
    raise CancellationError(
        f"quadrature on [{a}, {b}] has not settled at {panels // 2} "
        f"panels: the last two levels differ by {diff:.3e}")


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

    The inner radius is m^{-1/2}/10, clipped to delta1/2.  The rows stop
    at the annulus order (`default_series_order` at delta2); on the disc
    their Taylor product with e^{mJu} runs to the inner order, grown until
    the oscillatory remainder is negligible.  It divides `character(p, m)`
    first (`NotAPolynomial`), as every command does: the integrand is
    chi_m(e^u) (Kirillov), so the disc then has no singular powers.  Its
    pathways must agree on the overlap annulus up to float error
    (`CancellationError`).
    The annulus eta < |x| < delta2 folds onto x > 0, where the integrand
    plus its value at -x is twice its real part, and splits at delta1:
    phi is 1 on [eta, delta1] and tabulated per panel count beyond.
    """
    if rho != "todd":
        raise ValueError(f"rho must be 'todd', got {rho!r}")
    if m < 0:
        raise ValueError("m must be nonnegative")
    character(p, m)
    eta = min(phi.delta1 / 2, m ** -0.5 / 10) if m else phi.delta1 / 2
    j_max = max((abs(F.moment) for F in p.components), default=0)
    max_pole = max((len(F.normal) for F in p.components), default=0)
    # the inner sum e^{mJu} L(u) runs to where (2 pi m J |x|)^n / n! dies
    rate = 2 * math.pi * m * j_max * (2 * eta)
    inner_order = _adaptive_taylor_order(rate, floor=max(max_pole, 4))
    annulus_order = default_series_order(p, phi.delta2)
    prepared = PreparedInner(p, m, annulus_order)
    K = inner_order + max_pole
    poly = prepared.laurent_sum(K, max(annulus_order, inner_order))
    # int_{-eta}^{eta} P(2 pi i x) dx with phi = 1 there: odd powers drop
    coeffs = [complex(poly.get(j, 0))
              for j in range(max(poly, default=-1) + 1)]
    inner = 0j
    for j, c in enumerate(coeffs):
        if j % 2 == 0 and c:
            inner += c * _TWO_PI_I ** j * 2 * eta ** (j + 1) / (j + 1)

    x0 = np.array([eta, 1.5 * eta])
    direct = prepared.evaluate(x0)
    series = np.polyval(coeffs[::-1], _TWO_PI_I * x0)
    for x, d, s in zip(x0, direct, series):
        if abs(d - s) > 1e-9 * max(1.0, abs(d)):
            raise CancellationError(
                f"evaluation pathways disagree at x = {x}: |{d} - {s}|; "
                "precision lost")

    def folded(x: np.ndarray) -> np.ndarray:
        # the rows are real, so the integrand at -x is the conjugate of
        # that at x, and phi is even
        return 2 * prepared.evaluate(x).real

    def glued(x: np.ndarray) -> np.ndarray:
        return folded(x) * phi.at_nodes(len(x) // len(_GL_NODES))

    # the first level follows the fastest oscillation e^{2 pi i m J x};
    # the bump's glue needs 4 panels whatever m is
    panels = max(1, round(m * j_max * phi.delta2 / 8))
    flat = complex_quad(folded, eta, phi.delta1, panels)
    return inner + flat + complex_quad(glued, phi.delta1, phi.delta2,
                                       max(panels, 4))


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
        cls = F.classification
        laurent = component_u_laurent(F, m, order)
        total += pair_u_laurent(laurent, cls.side, phi)
        if cls is Classification.INDEFINITE:
            total += complex(F.exceptional)
    return total


class WittenCheckReport(Record):
    m_values: list[int]
    lhs: list[complex]
    rhs: list[complex]
    diffs: list[float]
    exponent: float


def decay_check(p: ManifoldPresentation, phi: TestFunction,
                m_list: Sequence[int]) -> WittenCheckReport:
    """Fit the decay exponent of |pairing - expansion| over a geometric list
    of distinct m: the least-squares slope of log|diff| on log m.
    Differences below 1e-16 are clipped to it before fitting, so that an
    exact agreement does not take the logarithm of 0.  At each m the exact
    side, `expansion_rhs`, runs before the pairing."""
    if len(set(m_list)) < 4:
        raise ValueError("need at least four distinct m for a decay fit")
    lhs, rhs, diffs = [], [], []
    for m in m_list:
        right = expansion_rhs(p, phi, m)
        left = witten_pair(p, "todd", phi, m)
        lhs.append(left)
        rhs.append(right)
        diffs.append(max(abs(left - right), 1e-16))
    slope = linear_regression([math.log(m) for m in m_list],
                              [math.log(d) for d in diffs]).slope
    return WittenCheckReport(list(m_list), lhs, rhs, diffs, slope)
