"""Data model for fixed-point presentations of prequantized circle-manifolds.

A presentation records, for each connected component F of the fixed-point
set: its moment value (an integer, by prequantization), its cohomology ring
with integration table, its Todd class and symplectic class, and the
isotypic blocks of its normal bundle as (weight, Chern roots) pairs.

Sign convention for stored Chern roots: a root `a` is defined so that the
fixed-point character factor is 1/(1 - z^k e^a).  Builders therefore emit
the *negated* usual Chern roots of each block; the convention is pinned by
the requirement that the character of cpn_linear([0,0,1],1) is a Laurent
polynomial matching the monomial enumeration oracle (see tests).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .expressions import (ExpressionError, element_to_string,
                          monomial_to_string, string_to_element,
                          string_to_monomial)
from .ring import GradedElement, RingError, RingSpec, todd_from_roots


class ParseError(ValueError):
    """Malformed document: syntax error or failed validation."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


@dataclass(frozen=True)
class Diagnostic:
    code: str
    where: str
    message: str

    def __str__(self):
        return f"[{self.code}] {self.where}: {self.message}"


@dataclass(frozen=True)
class NormalBlock:
    """One isotypic block of the normal bundle: nonzero weight, rank >= 1."""
    weight: int
    chern_roots: list[GradedElement]

    @property
    def rank(self) -> int:
        return len(self.chern_roots)


@dataclass(frozen=True)
class FixedComponent:
    """One fixed component.  It is frozen, so the m-free pieces below are
    computed on first use and kept on the instance; a perturbed copy
    (`dataclasses.replace`) starts without them."""
    name: str
    dim_F: int
    moment: int
    ring: RingSpec
    todd: GradedElement
    omega: GradedElement
    blocks: list[NormalBlock]

    def normal_rank(self) -> int:
        return sum(b.rank for b in self.blocks)

    def weights(self) -> list[int]:
        out = []
        for b in self.blocks:
            out.extend([b.weight] * b.rank)
        return out

    @cached_property
    def chi_pieces(self) -> tuple:
        """P_0..P_d with chi_tilde(F, m) = sum_j m^j P_j."""
        from .localization import chi_tilde_pieces
        return chi_tilde_pieces(self)

    @cached_property
    def residue_pieces(self) -> tuple[Fraction, ...]:
        """The residue prescription applied to each of `chi_pieces`."""
        from .quantize import residue_pieces
        return residue_pieces(self)

    @cached_property
    def exceptional(self) -> Fraction:
        """The exceptional term with the equivariant Todd class; m-free."""
        from .quantize import exceptional_term
        return exceptional_term(self)


@dataclass(frozen=True)
class QuotientData:
    """User-supplied geometry of the regular stratum of the quotient."""
    ring: RingSpec
    omega0: GradedElement
    kappa_todd: GradedElement

    @cached_property
    def regular_pieces(self) -> tuple[Fraction, ...]:
        """int kappa omega0^j / j! for j = 0..d, so that the regular term
        int e^{m omega0} kappa is sum_j m^j times the j-th entry."""
        return tuple((self.kappa_todd * w).integrate()
                     for w in self.omega0.divided_powers())


@dataclass
class ManifoldPresentation:
    name: str
    dim_M: int
    components: list[FixedComponent]
    free_on_regular: bool = True
    quotient: Optional[QuotientData] = None

    def f_zero(self) -> list[FixedComponent]:
        """Components sitting inside the zero level of the moment map."""
        return [F for F in self.components if F.moment == 0]

    def component(self, name: str) -> FixedComponent:
        for F in self.components:
            if F.name == name:
                return F
        raise KeyError(name)

    def max_weight(self) -> int:
        return max((abs(b.weight) for F in self.components
                    for b in F.blocks), default=1)


# ---------------------------------------------------------------------------
# validation


def validate(p: ManifoldPresentation) -> list[Diagnostic]:
    """Check every structural invariant; empty list means valid."""
    out: list[Diagnostic] = []

    def bad(code, where, message):
        out.append(Diagnostic(code, where, message))

    if p.dim_M < 0 or p.dim_M % 2 != 0:
        bad("DimensionOdd", p.name, f"dim_M = {p.dim_M} must be even and >= 0")
    if not p.components:
        bad("NoComponents", p.name, "presentation has no fixed components")
    for F in p.components:
        where = f"{p.name}/{F.name}"
        if F.dim_F < 0 or F.dim_F % 2 != 0:
            bad("DimensionOdd", where, f"dim_F = {F.dim_F}")
        if F.dim_F != F.ring.truncation_degree:
            bad("RingTruncationMismatch", where,
                f"dim_F = {F.dim_F} but ring truncation is "
                f"{F.ring.truncation_degree}")
        if F.dim_F + 2 * F.normal_rank() != p.dim_M:
            bad("DimensionMismatch", where,
                f"dim_F + 2*rank = {F.dim_F + 2 * F.normal_rank()} "
                f"!= dim_M = {p.dim_M}")
        if not isinstance(F.moment, int):
            bad("MomentNotInteger", where, f"moment = {F.moment!r}")
        for elem, label in ((F.todd, "todd"), (F.omega, "omega")):
            if elem.ring != F.ring:
                bad("WrongRing", where, f"{label} lives in a foreign ring")
        for mono in F.omega.terms:
            if F.ring.monomial_degree(mono) != 2:
                bad("OmegaNotDegree2", where,
                    "omega must be of pure degree 2")
        if F.dim_F == 0:
            if F.ring.generators:
                bad("PointRingNotTrivial", where,
                    "zero-dimensional component must carry the point ring")
            if F.todd != F.ring.one():
                bad("PointToddNotOne", where, "todd must equal 1 at a point")
            if not F.omega.is_zero():
                bad("PointOmegaNotZero", where, "omega must vanish at a point")
        for i, b in enumerate(F.blocks):
            bwhere = f"{where}/block{i}"
            if b.weight == 0:
                bad("WeightZero", bwhere, "normal weight must be nonzero")
            if b.rank < 1:
                bad("RankZero", bwhere, "block must have rank >= 1")
            for r in b.chern_roots:
                if r.ring != F.ring:
                    bad("WrongRing", bwhere, "chern root in a foreign ring")
                    continue
                if any(F.ring.monomial_degree(m) != 2 for m in r.terms):
                    bad("RootNotDegree2", bwhere,
                        "chern roots must be of pure degree 2")
    if p.quotient is not None:
        q = p.quotient
        where = f"{p.name}/quotient"
        for mono in q.omega0.terms:
            if q.ring.monomial_degree(mono) != 2:
                bad("OmegaNotDegree2", where, "omega0 must be of pure degree 2")
        for elem, label in ((q.omega0, "omega0"), (q.kappa_todd, "kappa_todd")):
            if elem.ring != q.ring:
                bad("WrongRing", where, f"{label} lives in a foreign ring")
    return out


# ---------------------------------------------------------------------------
# document format


def _ring_to_doc(ring: RingSpec) -> dict:
    return {
        "generators": [{"name": n, "degree": d} for n, d in ring.generators],
        "truncation": ring.truncation_degree,
        "integrals": {monomial_to_string(ring, m): str(v)
                      for m, v in sorted(ring.integration_table.items())},
    }


def _ring_from_doc(doc: dict, where: str) -> RingSpec:
    _typed(doc, dict, f"{where}: ring")
    gens_doc = _typed(doc.get("generators", []), list, f"{where}: generators")
    integrals = _typed(doc.get("integrals", {}), dict, f"{where}: integrals")
    try:
        gens = [(_typed(g["name"], str, "generator name"),
                 _typed(g["degree"], int, "generator degree"))
                for g in gens_doc]
        trunc = _typed(doc["truncation"], int, "truncation")
        probe = RingSpec(gens, trunc, {})
        table = {}
        for key, val in integrals.items():
            table[string_to_monomial(probe, key)] = Fraction(val)
        return RingSpec(gens, trunc, table)
    except (KeyError, TypeError, ValueError, ZeroDivisionError, RingError,
            ExpressionError) as e:
        raise ParseError(f"{where}: bad ring: {e}") from e


def serialize(p: ManifoldPresentation) -> str:
    """Bit-exact canonical serialization: sorted keys, reduced rationals,
    graded-lex term order in polynomial strings."""
    doc: dict = {
        "name": p.name,
        "dim_M": p.dim_M,
        "free_on_regular": p.free_on_regular,
        "components": [
            {
                "name": F.name,
                "dim_F": F.dim_F,
                "moment": F.moment,
                "ring": _ring_to_doc(F.ring),
                "todd": element_to_string(F.todd),
                "omega": element_to_string(F.omega),
                "blocks": [
                    {"weight": b.weight,
                     "chern_roots": [element_to_string(r)
                                     for r in b.chern_roots]}
                    for b in F.blocks
                ],
            }
            for F in p.components
        ],
    }
    if p.quotient is not None:
        doc["quotient"] = {
            "ring": _ring_to_doc(p.quotient.ring),
            "omega0": element_to_string(p.quotient.omega0),
            "kappa_todd": element_to_string(p.quotient.kappa_todd),
        }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _typed(value, kind: type, what: str):
    """`value` itself if its JSON type is `kind` (a bool is no integer,
    a number no string, a string no array)."""
    if type(value) is not kind:
        name = {str: "string", list: "array", dict: "object"}.get(
            kind, kind.__name__)
        raise ParseError(f"{what} must be {name}, got {value!r}")
    return value


def _expression(ring: RingSpec, value, what: str) -> GradedElement:
    """A class expression, which must be a JSON string."""
    return string_to_element(ring, _typed(value, str, what))


def parse(text: str) -> ManifoldPresentation:
    """Parse and validate a presentation document.

    Raises ParseError with line/column info on syntax errors and with the
    collected diagnostics when validation fails.  Names, integers,
    booleans, arrays and objects must have that JSON type: nothing is
    truncated or coerced.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(
            f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    try:
        name = _typed(doc["name"], str, "name")
        dim_M = _typed(doc["dim_M"], int, "dim_M")
        free = _typed(doc.get("free_on_regular", True), bool,
                      "free_on_regular")
        comps_doc = _typed(doc["components"], list, "components")
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"missing or malformed top-level field: {e}") from e
    components = []
    for idx, c in enumerate(comps_doc):
        where = f"components[{idx}]"
        try:
            ring = _ring_from_doc(c["ring"], where)
            todd = _expression(ring, c["todd"], f"{where}: todd")
            omega = _expression(ring, c["omega"], f"{where}: omega")
            blocks = []
            for b in _typed(c.get("blocks", []), list, f"{where}: blocks"):
                weight = _typed(b["weight"], int, f"{where}: weight")
                roots = _typed(b["chern_roots"], list, f"{where}: chern_roots")
                roots = [_expression(ring, r, f"{where}: chern root {i}")
                         for i, r in enumerate(roots)]
                blocks.append(NormalBlock(weight, roots))
            components.append(FixedComponent(
                name=_typed(c["name"], str, f"{where}: name"),
                dim_F=_typed(c["dim_F"], int, f"{where}: dim_F"),
                moment=_typed(c["moment"], int, f"{where}: moment"),
                ring=ring, todd=todd,
                omega=omega, blocks=blocks))
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError, ExpressionError,
                RingError) as e:
            raise ParseError(f"{where}: {e}") from e
    quotient = None
    q = doc.get("quotient")
    if q is not None:
        _typed(q, dict, "quotient")
        try:
            qring = _ring_from_doc(q["ring"], "quotient")
            quotient = QuotientData(
                ring=qring,
                omega0=_expression(qring, q["omega0"], "quotient: omega0"),
                kappa_todd=_expression(qring, q["kappa_todd"],
                                       "quotient: kappa_todd"))
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError, ExpressionError,
                RingError) as e:
            raise ParseError(f"quotient: {e}") from e
    p = ManifoldPresentation(name=name, dim_M=dim_M, components=components,
                             free_on_regular=free, quotient=quotient)
    diagnostics = validate(p)
    if diagnostics:
        raise ParseError(
            "document failed validation: "
            + "; ".join(str(d) for d in diagnostics),
            diagnostics=diagnostics)
    return p


# ---------------------------------------------------------------------------
# builders


def projective_ring(r: int) -> RingSpec:
    """Cohomology ring of CP^{r-1}: one generator h, h^{r-1} integrates to 1."""
    if r < 1:
        raise ValueError("need r >= 1")
    if r == 1:
        return RingSpec.point()
    mono = (r - 1,)
    return RingSpec((("h", 2),), 2 * (r - 1), {mono: Fraction(1)})


def cpn_linear(weights: list[int], d: int,
               shift: int = 0) -> ManifoldPresentation:
    """CP^n with the linear circle action of the given weights and L the
    d-th power of the hyperplane bundle.

    Components are the grouped coordinate subspaces for each distinct weight
    value; moments are normalized so the minimum is `shift` (default 0).
    """
    if len(weights) < 2:
        raise ValueError("need at least two weights (n >= 1)")
    if d < 1:
        raise ValueError("need d >= 1")
    n = len(weights) - 1
    w_min = min(weights)
    values = sorted(set(weights))
    components = []
    for w in values:
        r = weights.count(w)
        ring = projective_ring(r)
        if r > 1:
            h = ring.generator("h")
            todd = todd_from_roots(ring, [h] * r)
            omega = h * Fraction(d)
            # stored roots are the negated Chern roots of O(1)^{rank}
            root = -h
        else:
            todd = ring.one()
            omega = ring.zero()
            root = ring.zero()
        blocks = [NormalBlock(wp - w, [root] * weights.count(wp))
                  for wp in values if wp != w]
        components.append(FixedComponent(
            name=f"w{w}", dim_F=2 * (r - 1), moment=d * (w - w_min) + shift,
            ring=ring, todd=todd, omega=omega, blocks=blocks))
    wstr = ",".join(str(w) for w in weights)
    name = f"cpn[{wstr}]d{d}" + (f"s{shift}" if shift else "")
    return ManifoldPresentation(name=name, dim_M=2 * n, components=components)


def point_manifold() -> ManifoldPresentation:
    """The one-point manifold with the trivial action: the unit for
    products."""
    ring = RingSpec.point()
    comp = FixedComponent(name="pt", dim_F=0, moment=0, ring=ring,
                          todd=ring.one(), omega=ring.zero(), blocks=[])
    return ManifoldPresentation(name="point", dim_M=0, components=[comp])


def trivial_cp1(d: int = 1) -> ManifoldPresentation:
    """CP^1 with the trivial action: the whole manifold is one fixed
    component at moment 0, with no normal blocks."""
    ring = projective_ring(2)
    h = ring.generator("h")
    comp = FixedComponent(
        name="total", dim_F=2, moment=0, ring=ring,
        todd=todd_from_roots(ring, [h] * 2), omega=h * Fraction(d), blocks=[])
    return ManifoldPresentation(name=f"trivial_cp1_d{d}", dim_M=2,
                                components=[comp])


def shift_moment(p: ManifoldPresentation, s: int,
                 name: str | None = None) -> ManifoldPresentation:
    """Shift every moment value by the integer s (studying another level)."""
    comps = [replace(F, moment=F.moment + s) for F in p.components]
    return ManifoldPresentation(name=name or f"{p.name}+shift{s}",
                                dim_M=p.dim_M, components=comps,
                                free_on_regular=p.free_on_regular)


def bundle_power(p: ManifoldPresentation, k: int,
                 name: str | None = None) -> ManifoldPresentation:
    """Replace the prequantizing bundle by its k-th power: omega and the
    moment map both scale by k."""
    if k < 1:
        raise ValueError("need k >= 1")
    comps = [replace(F, moment=F.moment * k, omega=F.omega * Fraction(k))
             for F in p.components]
    return ManifoldPresentation(name=name or f"{p.name}^pow{k}",
                                dim_M=p.dim_M, components=comps,
                                free_on_regular=p.free_on_regular)


def _embed(elem: GradedElement, ring: RingSpec, offset: int,
           total: int) -> GradedElement:
    terms = {}
    for mono, c in elem.terms.items():
        key = (0,) * offset + mono + (0,) * (total - offset - len(mono))
        terms[key] = c
    return GradedElement(ring, terms)


def _tensor_rings(r1: RingSpec, r2: RingSpec) -> RingSpec:
    used = {n for n, _ in r1.generators}
    gens2 = []
    for n, deg in r2.generators:
        new = n
        i = 2
        while new in used:
            new = f"{n}_{i}"
            i += 1
        used.add(new)
        gens2.append((new, deg))
    return RingSpec(tuple(r1.generators) + tuple(gens2),
                    r1.truncation_degree + r2.truncation_degree,
                    {m1 + m2: v1 * v2
                     for m1, v1 in r1.integration_table.items()
                     for m2, v2 in r2.integration_table.items()})


def product(p: ManifoldPresentation,
            q: ManifoldPresentation) -> ManifoldPresentation:
    """Product presentation: components are pairs, moments add, rings tensor,
    Todd/omega/blocks pull back and merge."""
    components = []
    for F in p.components:
        for G in q.components:
            ring = _tensor_rings(F.ring, G.ring)
            n1, n2 = len(F.ring.generators), len(G.ring.generators)
            total = n1 + n2
            liftF = lambda e: _embed(e, ring, 0, total)
            liftG = lambda e: _embed(e, ring, n1, total)
            blocks = [NormalBlock(b.weight, [liftF(r) for r in b.chern_roots])
                      for b in F.blocks]
            blocks += [NormalBlock(b.weight, [liftG(r) for r in b.chern_roots])
                       for b in G.blocks]
            components.append(FixedComponent(
                name=f"{F.name}*{G.name}", dim_F=F.dim_F + G.dim_F,
                moment=F.moment + G.moment, ring=ring,
                todd=liftF(F.todd) * liftG(G.todd),
                omega=liftF(F.omega) + liftG(G.omega), blocks=blocks))
    return ManifoldPresentation(
        name=f"({p.name})x({q.name})", dim_M=p.dim_M + q.dim_M,
        components=components,
        free_on_regular=p.free_on_regular and q.free_on_regular)


def disjoint_union(*ps: ManifoldPresentation,
                   name: str | None = None) -> ManifoldPresentation:
    """Union of presentations of equal dimension (component lists merge)."""
    if not ps:
        raise ValueError("need at least one presentation")
    dim = ps[0].dim_M
    if any(p.dim_M != dim for p in ps):
        raise ValueError("disjoint union requires equal dim_M")
    comps = [replace(F, name=f"p{i}.{F.name}")
             for i, p in enumerate(ps) for F in p.components]
    return ManifoldPresentation(
        name=name or "+".join(p.name for p in ps), dim_M=dim,
        components=comps,
        free_on_regular=all(p.free_on_regular for p in ps))
