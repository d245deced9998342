"""The localized inner Witten integrand evaluated on its own, as the tests
use it: the library evaluates it only inside the pairing, through
`equiloc.useries.PreparedInner`."""

from math import cos, pi, sin
from typing import Optional, Sequence

from equiloc.localization import character
from equiloc.model import ManifoldPresentation
from equiloc.useries import PreparedInner, default_series_order


def dh_inner(p: ManifoldPresentation, m: int, x: float,
             order: Optional[int] = None) -> complex:
    """One-shot evaluation of the localized inner Witten integrand."""
    if x == 0:
        raise ValueError("the localized integrand is singular at x = 0")
    if order is None:
        order = default_series_order(p, abs(x))
    return complex(PreparedInner(p, m, order).evaluate(x))


def kirillov_check(p: ManifoldPresentation, m: int,
                   x_samples: Sequence[float]) -> float:
    """Max deviation between the character at e^{2 pi i x} and the localized
    equivariant integral, over the given samples (which must avoid 0 and the
    circles where some e^{2 pi i k x} degenerates)."""
    chi = character(p, m)
    order = default_series_order(p, max(abs(x) for x in x_samples))
    prepared = PreparedInner(p, m, order)
    rhs = prepared.evaluate(x_samples)
    return max(abs(chi.evaluate(complex(cos(2 * pi * x), sin(2 * pi * x)))
                   - r) for x, r in zip(x_samples, rhs))
