"""equiloc: exact fixed-point localization for invariant Riemann-Roch
numbers of prequantized Hamiltonian circle-manifolds.

The package computes, from fixed-point data alone: the full equivariant
index character as an exact Laurent polynomial, the invariant Riemann-Roch
number, every computable term of the singular reduction formula (residue
prescriptions, exceptional contributions of isolated indefinite components,
the reduced-space term from supplied quotient data), and the asymptotic
expansion of the associated oscillatory pairing, cross-verified numerically.
"""

from .model import (Classification, FixedComponent, ManifoldPresentation,
                    NormalBlock, QuotientData, parse, serialize, validate)
from .ring import GradedElement, RingSpec, todd_from_roots
from .zrational import LaurentPolynomial, NotAPolynomial, ZRational
from .localization import character, chi_tilde

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

# name -> module, for the modules that not every command runs: each loads
# on first use of one of its names or of the module itself (PEP 562)
_LAZY = {name: module for module, names in (
    ("quantize", ("exceptional_term", "main_formula_report", "regular_term",
                  "residue_term", "rr_invariant")),
    ("builtins", ("builtin", "builtin_names", "builtin_oracle")),
    ("builders", ("cpn_linear", "disjoint_union", "product", "shift_moment",
                  "trivial_cp1"))) for name in (module, *names)}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{_LAZY[name]}")    # -X importtime logs this path
    module = globals()[_LAZY[name]]    # the import bound it here
    return module if name == _LAZY[name] else getattr(module, name)
