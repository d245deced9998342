"""Named example presentations and their enumeration oracles.

Each builtin is the document shipped as data/<name>.json, parsed afresh on
every call.  The tests keep the recipes that wrote these documents from the
`builders` and pin the two against each other.  Each entry also knows how
to produce its ground-truth weight multiset by monomial enumeration, so
the acceptance suite can compare characters coefficient by coefficient.
"""

from __future__ import annotations

from pathlib import Path

from .model import InputError, ManifoldPresentation, parse
from .ring import brief

_DATA = Path(__file__).parent / "data"

_NAMES = ("cp1", "cp001", "cp012", "prod11", "dgmw", "dim6", "dim6b",
          "regval")


def builtin_names() -> tuple[str, ...]:
    return _NAMES


def builtin(name: str) -> ManifoldPresentation:
    """A presentation parsed afresh from data/<name>.json."""
    if name not in _NAMES:
        raise InputError(
            f"unknown builtin {brief(repr(name))}; available: "
            f"{', '.join(_NAMES)}")
    return parse((_DATA / f"{name}.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# enumeration oracles


def builtin_oracle(name: str, m: int):
    """Ground-truth `oracle.WeightMultiset` of a builtin's section space."""
    from . import oracle
    cpw = oracle.cpn_weights
    conv = oracle.convolve
    if name == "cp1":
        return cpw([0, 1], 1, m)
    if name == "cp001":
        return cpw([0, 0, 1], 1, m)
    if name == "cp012":
        return cpw([0, 1, 2], 1, m)
    if name == "prod11":
        return conv(cpw([0, 1], 1, m), cpw([0, 1], 1, m, shift=-1))
    if name == "dgmw":
        piece1 = cpw([0, 0, 1], 1, m)
        piece2 = conv(cpw([0, 2], 1, m), cpw([0, 0], 1, m))
        piece3 = conv(cpw([0, 3], 1, m, shift=-3), cpw([0, 0], 1, m))
        return oracle.add(oracle.add(piece1, piece2), piece3)
    if name == "dim6":
        two = conv(cpw([0, 1], 1, m), cpw([0, 1], 1, m))
        return conv(two, cpw([0, 1], 1, m, shift=-1))
    if name == "dim6b":
        two = conv(cpw([0, 1], 1, m), cpw([0, 1], 1, m, shift=-1))
        return conv(two, cpw([0, 1], 1, m, shift=-1))
    if name == "regval":
        return cpw([0, 1], 2, m, shift=-1)
    raise KeyError(f"no oracle for builtin {name!r}")
