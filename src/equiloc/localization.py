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
(`FixedComponent.chi_pieces`): by the Eulerian identity, scalars
int_F Td omega^j/j! prod b^t/t! times integer rows, of which the t = 0
term alone is left where the roots b vanish: a closed form that points of
one weight multiset and volume share, kept per process like `normal_todd`.
Components of one moment J, which share z^{mJ}, keep them summed as int
rows over one scale and one denominator D, the least (1 - z^k) product
that every denominator divides (`ManifoldPresentation.moment_groups`), so
one m adds those rows times powers of m at their shifts mJ and divides
once by D.

The pairing's u-series are `useries`, which the exact commands never load;
the normal Todd product (`normal_todd`) stays here for `quantize`.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .model import FixedComponent, ManifoldPresentation, MomentGroup
from .ring import todd_coefficient
from .zrational import (LaurentPolynomial, ZRational, linear_sum, over_lcm,
                        over_one_denominator)


# ---------------------------------------------------------------------------
# exact character


def chi_tilde_pieces(F: FixedComponent) -> tuple[ZRational, ...]:
    """The m-free pieces P_0..P_d of chi_tilde_F, d = dim_F/2 at most, over
    one denominator and scale (`over_one_denominator`):

        P_j = int_F Td(F) omega_F^j/j! prod_{k,i} 1/(1 - z^k e^{a_ki}).

    With x = z^|k|, and b = a, s = 0 for k > 0 or b = -a, s = 1 and a sign
    -1 for k < 0 (1 - z^k e^a is -z^k e^a times 1 - z^|k| e^{-a}), a factor
    is +-sum_{n >= s} x^n e^{nb} = +-sum_t (b^t/t!) R_t(x) / (1 - x)^{t+1}
    by the Eulerian identity (`_eulerian_row`), ending where b^t vanishes.
    So P_j sums, over one power t per normal direction, the scalar
    int_F Td omega_F^j/j! prod b^t/t! times the int row prod R_t(z^|k|) over
    prod (1 - z^|k|)^{t+1} (`_eulerian_term`), all over one denominator.
    Where every root vanishes (at a point, say), t = 0 alone is left, with
    R_0 = x^s: a closed form in the weights and volumes (`_closed_form`).
    """
    if not any(root for _, root in F.normal):
        return _closed_form(tuple(sorted(F.weights())), tuple(
            v.as_integer_ratio() for v in F.volume_pieces))
    # Td prod b^t/t! per choice of t, 0 just where prod b^t is (Td a unit)
    products = {(): F.todd}
    for k, root in F.normal:
        powers = (root if k > 0 else -root).divided_powers()
        products = {ts + (t,): q for ts, p in products.items()
                    for t, b in enumerate(powers) if (q := p * b if t else p)}
    omegas = F.omega.divided_powers()
    scalars = {ts: cs for ts, p in products.items()
               if any(cs := [p.pair(w) for w in omegas])}
    nums, scale = over_lcm(c for cs in scalars.values() for c in cs)
    terms = (_eulerian_term(tuple(sorted(zip(F.weights(), ts))))
             for ts in scalars)
    rows = over_one_denominator(ZRational.from_row(0, row, scale, den)
                                for row, den in terms)
    return tuple(linear_sum((nums[i * len(omegas) + j], 0, q)
                            for i, q in enumerate(rows))
                 for j in range(len(omegas)))


@lru_cache(maxsize=None)
def _closed_form(weights: tuple[int, ...], volumes: tuple) -> tuple:
    """z^shift sign v_j / prod_k (1 - z^|k|), k from the largest down, per
    sorted weights and v_j as (n, d): ints hash in C, Fractions in Python."""
    sign, shift, den = 1, 0, {}
    for k in sorted(weights, key=abs, reverse=True):
        if k < 0:
            sign, shift = -sign, shift - k
        den[abs(k)] = den.get(abs(k), 0) + 1
    scale = lcm(*(d for _, d in volumes))
    return tuple(ZRational.from_row(shift, (sign * n * (scale // d),), scale,
                                    den) for n, d in volumes)


@lru_cache(maxsize=None)
def _eulerian_term(choice: tuple[tuple[int, int], ...]) -> tuple:
    """(row, den) of one power t per normal weight k, the (k, t) sorted:
    the int row prod R_t(z^|k|), negated per k < 0, lowest power first,
    and the denominator prod (1 - z^|k|)^{t+1}, largest |k| first."""
    row, den = [1], {}
    for k, t in choice:
        r = _eulerian_row(t, k < 0)
        spread = [0] * (abs(k) * (len(r) - 1) + 1)
        spread[::abs(k)] = r if k > 0 else [-c for c in r]
        row = _cauchy(row, spread, len(row) + len(spread) - 1)
        den[abs(k)] = den.get(abs(k), 0) + t + 1
    return tuple(row), dict(sorted(den.items(), reverse=True))


@lru_cache(maxsize=None)
def _eulerian_row(t: int, start: int) -> tuple[int, ...]:
    """R_t with sum_{n >= start} n^t x^n = R_t(x)/(1 - x)^{t+1}, lowest power
    first: R_0 = x^start, and for t >= 1 x d/dx, which kills the n = 0 term
    where the starts differ, gives R_t = x (1 - x) R_{t-1}' + t x R_{t-1}."""
    if t == 0:
        return (0,) * start + (1,)
    r = (0, *_eulerian_row(t - 1, 0), 0)
    return tuple(n * r[n + 1] + (t - n + 1) * r[n] for n in range(len(r) - 1))


def chi_tilde(F: FixedComponent | MomentGroup, m: int) -> ZRational:
    """The character function sum_j m^j P_j as a scalar ZRational, from
    the pieces kept on a component (`FixedComponent.chi_pieces`) or summed
    over a moment level (`MomentGroup.chi_pieces`), which share one
    denominator and scale: their rows times the powers of m, added."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    pieces = F.chi_pieces
    if len(pieces) == 1:
        return pieces[0]
    return linear_sum((m ** j, 0, P) for j, P in enumerate(pieces))


def character(p: ManifoldPresentation, m: int) -> LaurentPolynomial:
    """Exact Laurent-polynomial character of the index representation,
    summing one chi_tilde per moment level (`moment_groups`).

    Raises NotAPolynomial when the per-component poles fail to cancel,
    which certifies the fixed-point data inconsistent.
    """
    return linear_sum((1, m * G.moment, chi_tilde(G, m))
                      for G in p.moment_groups).to_laurent_polynomial()


# ---------------------------------------------------------------------------
# the normal Todd product


def _cauchy(a: list[int], b: list[int], size: int) -> list[int]:
    """The first `size` coefficients of the product of the integer
    polynomials a and b (lowest power first), at most all of them."""
    rb = b[::-1]
    return [sum(map(mul, a[max(0, n + 1 - len(b)):n + 1],
                    rb[max(0, len(b) - 1 - n):]))
            for n in range(min(size, len(a) + len(b) - 1))]


@lru_cache(maxsize=None)
def _todd_row(size: int) -> tuple[int, tuple[int, ...]]:
    """(D, P) with P[n] / D the u^n coefficient of td(u) for n < size: a
    constant, kept per power-of-two size."""
    row, den = over_lcm(map(todd_coefficient, range(size)))
    return den, row


def _reduced(den: int, row: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """den and row divided by their gcd."""
    g = gcd(den, *row)
    return den // g, tuple(c // g for c in row)


@lru_cache(maxsize=None)
def normal_todd(weights: tuple[int, ...],
                top: int) -> tuple[int, tuple[int, ...]]:
    """(d, R) with R[n] / d the u^n coefficient, n <= top, of prod_k td(-k u)
    over sorted normal weights k with vanishing roots: per weight k, the
    row of td(u) (`_todd_row`) scaled by (-k)^n, Cauchy multiplied."""
    tden, todd = _todd_row(1 << top.bit_length())
    row = [1]
    for k in weights:
        scaled = [c * (-k) ** n for n, c in enumerate(todd[:top + 1])]
        row = _cauchy(row, scaled, top + 1)
    return _reduced(tden ** len(weights), row)


# perfbench's tracer still names these localization's; the forward goes
# when its TARGETS point at `useries` (ROADMAP item 16, step b)
_FORWARDED = ("equivariant_todd_at_F", "component_u_laurent", "_rho_series",
              "PreparedInner")


def __getattr__(name):    # PEP 562: `useries` loads on first use
    if name not in _FORWARDED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import useries
    return getattr(useries, name)
