"""Brute-force ground truth: weight enumeration for toric-style builders.

For the linear actions on projective space shipped as builders, higher
cohomology of L^m vanishes, so the multiset of section weights *is* the
virtual character.  Enumeration is exact and naive; hard limits keep it at
desk scale (n <= 4 projective factors, m*d <= 60).
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .zrational import LaurentPolynomial

MAX_N = 4
MAX_DEGREE = 60


class OracleLimit(ValueError):
    """Requested enumeration exceeds the documented desk-scale caps."""


class WeightMultiset(LaurentPolynomial):
    """Finite multiset of integer weights: the character it is, with
    `counts` its {weight: multiplicity} view."""

    __slots__ = ()
    counts = LaurentPolynomial.coeffs


def cpn_weights(weights: list[int], d: int, m: int,
                shift: int = 0) -> WeightMultiset:
    """Weights of the section space of L^m for cpn_linear(weights, d).

    Enumerates exponent vectors (a_0..a_n) with sum m*d; each contributes
    weight sum(a_i w_i) - m*d*w_min, matching the builder's normalization,
    plus m*shift when the builder was shifted.
    """
    n = len(weights) - 1
    if n > MAX_N:
        raise OracleLimit(f"n = {n} exceeds the documented cap {MAX_N}")
    degree = m * d
    if degree > MAX_DEGREE:
        raise OracleLimit(
            f"m*d = {degree} exceeds the documented cap {MAX_DEGREE}")
    if degree < 0:
        raise OracleLimit("m*d must be nonnegative")
    w_min = min(weights)
    counts: dict[int, int] = {}
    for combo in combinations_with_replacement(range(n + 1), degree):
        w = sum(weights[i] for i in combo) - degree * w_min + m * shift
        counts[w] = counts.get(w, 0) + 1
    return WeightMultiset(counts)


def convolve(a: WeightMultiset, b: WeightMultiset) -> WeightMultiset:
    """Additive convolution (the character of a product)."""
    counts: dict[int, int] = {}
    for w1, c1 in a.counts.items():
        for w2, c2 in b.counts.items():
            counts[w1 + w2] = counts.get(w1 + w2, 0) + c1 * c2
    return WeightMultiset(counts)


def add(a: WeightMultiset, b: WeightMultiset) -> WeightMultiset:
    """Multiset sum (the character of a disjoint union)."""
    counts = dict(a.counts)
    for w, c in b.counts.items():
        counts[w] = counts.get(w, 0) + c
    return WeightMultiset(counts)
