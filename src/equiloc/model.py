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
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .expressions import (brief, element_to_string, monomial_to_string,
                          string_to_element, string_to_monomial)
from .ring import GradedElement, RingError, RingSpec, todd_from_roots
from .zrational import linear_sum, over_one_denominator


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
    chern_roots: tuple[GradedElement, ...]

    @property
    def rank(self) -> int:
        return len(self.chern_roots)


@dataclass(frozen=True)
class FixedComponent:
    """One fixed component.  It is frozen, so the m-free pieces below are
    computed on first use and kept on the instance; a perturbed copy
    (`dataclasses.replace`) starts without them."""
    name: str
    moment: int
    ring: RingSpec
    todd: GradedElement
    omega: GradedElement
    blocks: tuple[NormalBlock, ...]

    @property
    def dim_F(self) -> int:
        """The real dimension of F, the truncation degree of its ring."""
        return self.ring.truncation_degree

    def normal_rank(self) -> int:
        return sum(b.rank for b in self.blocks)

    def weights(self) -> list[int]:
        out = []
        for b in self.blocks:
            out.extend([b.weight] * b.rank)
        return out

    @cached_property
    def volume_pieces(self) -> tuple[Fraction, ...]:
        """v_j = int_F Td omega^j/j!: int_F Td e^{m omega} = sum_j m^j v_j."""
        if not self.omega:    # every point: one piece, and no ring products
            return (self.todd.integrate(),)
        return tuple((self.todd * w).integrate()
                     for w in self.omega.divided_powers())

    @cached_property
    def chi_pieces(self) -> tuple:
        """P_0..P_d with chi_tilde(F, m) = sum_j m^j P_j."""
        from .localization import chi_tilde_pieces
        return chi_tilde_pieces(self)

    @cached_property
    def classification(self):
        """`quantize.classify` of this component."""
        from .quantize import classify
        return classify(self)

    @cached_property
    def residue_pieces(self) -> tuple[tuple[int, ...], int]:
        """(n, d), m-free: the residue term is sum_j m^j n_j / d."""
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
    def regular_pieces(self) -> tuple[tuple[int, ...], int]:
        """(n, d) with n_j / d = int kappa omega0^j / j!, so that the regular
        term int e^{m omega0} kappa is sum_j m^j n_j / d."""
        from .quantize import over_lcm
        return over_lcm((self.kappa_todd * w).integrate()
                        for w in self.omega0.divided_powers())


@dataclass(frozen=True)
class MomentGroup:
    """The components at one moment: chi_pieces[j] sums their P_j."""
    moment: int
    chi_pieces: tuple


@dataclass(frozen=True)
class ManifoldPresentation:
    name: str
    dim_M: int
    components: tuple[FixedComponent, ...]
    quotient: Optional[QuotientData] = None

    @cached_property
    def moment_groups(self) -> tuple[MomentGroup, ...]:
        """One group per distinct moment, ascending, kept on first use (a
        `dataclasses.replace` copy starts without); all pieces share one
        denominator and scale (`over_one_denominator`)."""
        rows = iter(over_one_denominator(
            P for F in self.components for P in F.chi_pieces))
        sums: dict[int, dict[int, list]] = {}    # J -> j -> terms, j ascending
        for F in self.components:
            level = sums.setdefault(F.moment, {})
            for j, P in zip(range(len(F.chi_pieces)), rows):
                level.setdefault(j, []).append((1, 0, P))
        return tuple(MomentGroup(J, tuple(map(linear_sum, level.values())))
                     for J, level in sorted(sums.items()))

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

    def off_degree_2(c, ring):    # the terms of c not of degree 2
        return [x for x in c.terms if ring.monomial_degree(x) != 2]

    if p.dim_M < 0 or p.dim_M % 2 != 0:
        bad("DimensionOdd", p.name, f"dim_M = {p.dim_M} must be even and >= 0")
    if not p.components:
        bad("NoComponents", p.name, "presentation has no fixed components")
    seen = set()
    for F in p.components:
        where = f"{p.name}/{F.name}"
        if F.name in seen:
            bad("DuplicateName", where, "an earlier component has this name")
        seen.add(F.name)
        if F.dim_F + 2 * F.normal_rank() != p.dim_M:
            bad("DimensionMismatch", where,
                f"dim_F + 2*rank = {F.dim_F + 2 * F.normal_rank()} "
                f"!= dim_M = {p.dim_M}")
        if not isinstance(F.moment, int):
            bad("MomentNotInteger", where, f"moment = {F.moment!r}")
        for elem, label in ((F.todd, "todd"), (F.omega, "omega")):
            if elem.ring != F.ring:
                bad("WrongRing", where, f"{label} lives in a foreign ring")
        for _ in off_degree_2(F.omega, F.ring):
            bad("OmegaNotDegree2", where, "omega must be of pure degree 2")
        if F.dim_F == 0:
            if F.ring.generators:
                bad("PointRingNotTrivial", where,
                    "zero-dimensional component must carry the point ring")
            if F.todd != F.ring.one():
                bad("PointToddNotOne", where, "todd must equal 1 at a point")
            if F.omega:
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
                elif off_degree_2(r, F.ring):
                    bad("RootNotDegree2", bwhere,
                        "chern roots must be of pure degree 2")
    if p.quotient is not None:
        q = p.quotient
        where = f"{p.name}/quotient"
        for _ in off_degree_2(q.omega0, q.ring):
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


def _ring_from_doc(doc, where: str, memo: dict) -> RingSpec:
    """The ring block of the object at `where`, parsed once per JSON text
    (false, 0, "0" differ)."""
    text = json.dumps(doc)
    if text in memo:
        return memo[text]
    where += ": ring"
    gens_doc, truncation, integrals = _read(doc, "ring", where)
    gens = [_read(g, "generator", f"{where}: generators[{i}]")
            for i, g in enumerate(gens_doc)]
    names = [name for name, _ in gens]
    table = {}
    for key, val in integrals.items():
        key_text = brief(repr(key))
        value = _expression(RingSpec.point(), val,
                            f"{where}: integral {key_text}", memo)
        try:
            mono = string_to_monomial(names, key)
        except ValueError as e:
            raise ParseError(f"{where}: integral key {key_text}: {e}") from e
        table[mono] = value.scalar_part()
    if len(table) < len(integrals):
        raise ParseError(f"{where}: two integral keys name the same monomial")
    try:
        memo[text] = RingSpec(gens, truncation, table)
    except RingError as e:
        raise ParseError(f"{where}: {e}") from e
    return memo[text]


def serialize(p: ManifoldPresentation) -> str:
    """Bit-exact canonical serialization: sorted keys, reduced rationals,
    graded-lex term order in polynomial strings."""
    doc: dict = {
        "name": p.name,
        "dim_M": p.dim_M,
        "components": [
            {
                "name": F.name,
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
        raise ParseError(f"{what} must be {name}, got {brief(repr(value))}")
    return value


# The document format: for each kind of object, the keys `parse` reads, in
# order, with each key's JSON type, or (type, default) for an optional key.
# Any other key is an error.
_FIELDS = {
    "document": {"name": str, "dim_M": int, "components": list,
                 "quotient": (dict, None)},
    "component": {"name": str, "moment": int, "ring": dict, "todd": str,
                  "omega": str, "blocks": (list, [])},
    "block": {"weight": int, "chern_roots": list},
    "generator": {"name": str, "degree": int},
    "ring": {"generators": (list, []), "truncation": int,
             "integrals": (dict, {})},
    "quotient": {"ring": dict, "omega0": str, "kappa_todd": str}}
_ABSENT = object()    # the value `_read` sees for a key the object lacks


def _read(doc, kind: str, where: str) -> list:
    """The values of a `kind` object's keys in `_FIELDS` order, an absent
    optional key (or a null one whose default is null) as its default; an
    unknown key, a missing key or a mistyped value names its path."""
    fields = _FIELDS[kind]
    if type(doc) is not dict or not fields.keys() >= doc.keys():
        _typed(doc, dict, where or kind)
        raise ParseError(
            f"{where or kind} has unknown key "
            f"{brief(repr(min(doc.keys() - fields.keys())))} "
            f"(a {kind} reads {', '.join(sorted(fields))})")
    values = []
    for key, spec in fields.items():
        value = doc.get(key, _ABSENT)
        if type(value) is not spec:    # optional, absent or mistyped
            want, default = spec if type(spec) is tuple else (spec, _ABSENT)
            if value is _ABSENT or (value is None and default is None):
                if default is _ABSENT:
                    raise ParseError(f"{where or kind} has no key {key!r}")
                value = default
            elif type(value) is not want:
                _typed(value, want, f"{where}: {key}" if where else key)
        values.append(value)
    return values


def _expression(ring: RingSpec, value, what: str,
                memo: dict) -> GradedElement:
    """A class expression, which must be a JSON string, parsed once per
    (ring, string) in `memo`; its errors name the field."""
    key = (id(ring), _typed(value, str, what))
    if key not in memo:
        try:
            memo[key] = string_to_element(ring, value)
        except ValueError as e:
            raise ParseError(f"{what}: {e}") from e
    return memo[key]


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object; a key repeated within it is an error."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ParseError(f"repeated key {brief(repr(key))}")
        doc[key] = value
    return doc


def parse(text: str) -> ManifoldPresentation:
    """Parse and validate a presentation document.

    Raises ParseError with line/column info on syntax errors and with the
    collected diagnostics when validation fails.  Each object is read
    through `_FIELDS`: an unknown or missing key, or a value of another
    JSON type, is an error that names its path; nothing is coerced.  A
    repeated key and a class term above its ring's truncation degree are
    errors too.  Each distinct ring block and class string is parsed once.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ParseError(
            f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    except ParseError:    # a repeated key, from `_unique_keys`
        raise
    except RecursionError as e:
        raise ParseError("syntax error: nested too deeply") from e
    except ValueError as e:    # an integer literal past int()'s digit limit
        raise ParseError(f"an integer has more than "
                         f"{sys.get_int_max_str_digits()} digits") from e
    name, dim_M, comps_doc, q = _read(doc, "document", "")
    memo: dict = {}    # rings and class expressions, for this call only
    components = []
    for idx, c in enumerate(comps_doc):
        where = f"components[{idx}]"
        cname, moment, ring, todd, omega, blocks_doc = _read(
            c, "component", where)
        ring = _ring_from_doc(ring, where, memo)
        blocks = []
        for j, b in enumerate(blocks_doc):
            weight, roots = _read(b, "block", f"{where}: blocks[{j}]")
            blocks.append(NormalBlock(weight, tuple(
                _expression(ring, r, f"{where}: chern root {i}", memo)
                for i, r in enumerate(roots))))
        components.append(FixedComponent(
            cname, moment, ring,
            _expression(ring, todd, f"{where}: todd", memo),
            _expression(ring, omega, f"{where}: omega", memo), tuple(blocks)))
    quotient = None
    if q is not None:
        ring, omega0, kappa_todd = _read(q, "quotient", "quotient")
        ring = _ring_from_doc(ring, "quotient", memo)
        quotient = QuotientData(
            ring, _expression(ring, omega0, "quotient: omega0", memo),
            _expression(ring, kappa_todd, "quotient: kappa_todd", memo))
    p = ManifoldPresentation(name, dim_M, tuple(components), quotient)
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
        h = ring.generator("h") if r > 1 else ring.zero()
        # stored roots are the negated Chern roots of O(1)^{rank}
        blocks = tuple(NormalBlock(wp - w, (-h,) * weights.count(wp))
                       for wp in values if wp != w)
        components.append(FixedComponent(
            name=f"w{w}", moment=d * (w - w_min) + shift, ring=ring,
            todd=todd_from_roots(ring, [h] * r), omega=h * Fraction(d),
            blocks=blocks))
    wstr = ",".join(str(w) for w in weights)
    name = f"cpn[{wstr}]d{d}" + (f"s{shift}" if shift else "")
    return ManifoldPresentation(name=name, dim_M=2 * n,
                                components=tuple(components))


def point_manifold() -> ManifoldPresentation:
    """The one-point manifold with the trivial action: the unit for
    products."""
    ring = RingSpec.point()
    comp = FixedComponent(name="pt", moment=0, ring=ring,
                          todd=ring.one(), omega=ring.zero(), blocks=())
    return ManifoldPresentation(name="point", dim_M=0, components=(comp,))


def trivial_cp1(d: int = 1) -> ManifoldPresentation:
    """CP^1 with the trivial action: the whole manifold is one fixed
    component at moment 0, with no normal blocks."""
    ring = projective_ring(2)
    h = ring.generator("h")
    comp = FixedComponent(
        name="total", moment=0, ring=ring,
        todd=todd_from_roots(ring, [h] * 2), omega=h * Fraction(d), blocks=())
    return ManifoldPresentation(name=f"trivial_cp1_d{d}", dim_M=2,
                                components=(comp,))


def shift_moment(p: ManifoldPresentation, s: int) -> ManifoldPresentation:
    """Shift every moment value by the integer s (studying another level)."""
    comps = tuple(replace(F, moment=F.moment + s) for F in p.components)
    return ManifoldPresentation(name=f"{p.name}+shift{s}",
                                dim_M=p.dim_M, components=comps)


def bundle_power(p: ManifoldPresentation, k: int) -> ManifoldPresentation:
    """Replace the prequantizing bundle by its k-th power: omega and the
    moment map both scale by k."""
    if k < 1:
        raise ValueError("need k >= 1")
    comps = tuple(replace(F, moment=F.moment * k, omega=F.omega * Fraction(k))
                  for F in p.components)
    return ManifoldPresentation(name=f"{p.name}^pow{k}",
                                dim_M=p.dim_M, components=comps)


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
            blocks = [NormalBlock(b.weight, tuple(map(liftF, b.chern_roots)))
                      for b in F.blocks]
            blocks += [NormalBlock(b.weight, tuple(map(liftG, b.chern_roots)))
                       for b in G.blocks]
            components.append(FixedComponent(
                name=f"{F.name}*{G.name}",
                moment=F.moment + G.moment, ring=ring,
                todd=liftF(F.todd) * liftG(G.todd),
                omega=liftF(F.omega) + liftG(G.omega), blocks=tuple(blocks)))
    return ManifoldPresentation(
        name=f"({p.name})x({q.name})", dim_M=p.dim_M + q.dim_M,
        components=tuple(components))


def disjoint_union(*ps: ManifoldPresentation) -> ManifoldPresentation:
    """Union of presentations of equal dimension (component lists merge)."""
    if not ps:
        raise ValueError("need at least one presentation")
    dim = ps[0].dim_M
    if any(p.dim_M != dim for p in ps):
        raise ValueError("disjoint union requires equal dim_M")
    comps = tuple(replace(F, name=f"p{i}.{F.name}")
                  for i, p in enumerate(ps) for F in p.components)
    return ManifoldPresentation(name="+".join(p.name for p in ps), dim_M=dim,
                                components=comps)
