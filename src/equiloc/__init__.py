"""equiloc: exact fixed-point localization for invariant Riemann-Roch
numbers of prequantized Hamiltonian circle-manifolds.

The package computes, from fixed-point data alone: the full equivariant
index character as an exact Laurent polynomial, the invariant Riemann-Roch
number, every computable term of the singular reduction formula (residue
prescriptions, exceptional contributions of isolated indefinite components,
the reduced-space term from supplied quotient data), and the asymptotic
expansion of the associated oscillatory pairing, cross-verified numerically.
"""

from .model import (FixedComponent, ManifoldPresentation, NormalBlock,
                    QuotientData, parse, serialize, validate)
from .ring import GradedElement, RingSpec, todd_from_roots
from .zrational import LaurentPolynomial, NotAPolynomial, ZRational
from .localization import character, chi_tilde
from .quantize import (Classification, exceptional_term, main_formula_report,
                       regular_term, residue_term, rr_invariant)
from .builtins import builtin, builtin_names, builtin_oracle

__version__ = "0.1.0"

__all__ = [
    "FixedComponent", "ManifoldPresentation", "NormalBlock", "QuotientData",
    "GradedElement", "RingSpec", "LaurentPolynomial", "NotAPolynomial",
    "ZRational", "builtin", "builtin_names", "builtin_oracle", "character",
    "chi_tilde", "Classification", "cpn_linear",
    "disjoint_union", "exceptional_term", "main_formula_report", "parse",
    "product", "regular_term", "residue_term", "rr_invariant", "serialize",
    "shift_moment", "todd_from_roots", "trivial_cp1", "validate",
]


def __getattr__(name):    # PEP 562: no command calls the builders
    if name not in ("cpn_linear", "disjoint_union", "product",
                    "shift_moment", "trivial_cp1"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import builders
    return getattr(builders, name)
