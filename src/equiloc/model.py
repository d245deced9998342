"""Data model for fixed-point presentations of prequantized circle-manifolds.

A presentation records, for each connected component F of the fixed-point
set: its moment value (an integer, by prequantization), its cohomology ring
with integration table, its Todd class and symplectic class, and the
isotypic blocks of its normal bundle as (weight, Chern roots) pairs.

Sign convention for stored Chern roots: a root `a` is defined so that the
fixed-point character factor is 1/(1 - z^k e^a).  The `builders` therefore
emit the *negated* usual Chern roots of each block; the convention is pinned
by the requirement that the character of cpn_linear([0,0,1],1) is a Laurent
polynomial matching the monomial enumeration oracle (see tests).
"""

from __future__ import annotations

import enum
import json
import sys
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .ring import (GradedElement, RingError, RingSpec, brief,
                   element_to_string, monomial_to_string, string_to_element,
                   string_to_monomial)
from .zrational import linear_sum, over_lcm, over_one_denominator


class InputError(ValueError):
    """Input that no command can compute with: the cli's exit 2."""


class ParseError(InputError):
    """Malformed document: syntax error or failed validation."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class Unsupported(NotImplementedError):
    """Exceptional data for a positive-dimensional indefinite component is
    not representable in a flat presentation."""


class CancellationError(ArithmeticError):
    """The pairing lost precision to float error, never proof of bad data."""


class Record:
    """A frozen value record: a subclass lists its fields as annotations, in
    order, a default as the annotation's value, and compares and prints by
    them; records are not hashable.  `__dict__` also keeps `cached_property`
    pieces, which a `replace` copy starts without."""

    def __init_subclass__(cls):
        own = vars(cls)
        cls._fields = tuple(own.get("__annotations__", ()))
        cls._defaults = {f: own[f] for f in cls._fields if f in own}

    def __init__(self, *values, **named):
        state = vars(self)
        state.update(zip(self._fields, values))
        if named or len(values) != len(self._fields):    # names or defaults
            clash = len(state) < len(values) or state.keys() & named
            state.update(self._defaults | state | named)
            if clash or state.keys() != set(self._fields):
                raise TypeError(f"{type(self).__name__} takes {self._fields}")

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")
    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return ([getattr(self, f) for f in self._fields]
                == [getattr(other, f) for f in self._fields])

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


def replace(record: Record, **changes) -> Record:
    """A copy of `record` with `changes`; an unknown field is a TypeError."""
    fields = {f: getattr(record, f) for f in record._fields}
    return type(record)(**(fields | changes))


class Diagnostic(Record):
    code: str
    where: str
    message: str

    def __str__(self):
        return f"[{self.code}] {brief(self.where)}: {self.message}"


class NormalBlock(Record):
    """One isotypic block of the normal bundle: a nonzero weight and at
    least one Chern root.  The engine reads `FixedComponent.normal`."""
    weight: int
    chern_roots: tuple[GradedElement, ...]


class Classification(enum.Enum):
    POSITIVE_DEFINITE = "positive-definite"
    NEGATIVE_DEFINITE = "negative-definite"
    INDEFINITE = "indefinite"

    @property
    def side(self) -> str:
        """The residue, and the boundary value of the Witten expansion:
        plus (at z = 0, x^{-k}_+), minus (at infinity, x^{-k}_-) or avg."""
        return {"positive-definite": "plus",
                "negative-definite": "minus"}.get(self.value, "avg")


class FixedComponent(Record):
    """One fixed component.  It is frozen, so the m-free pieces below are
    computed on first use and kept on the instance; a perturbed copy
    (`replace`) starts without them."""
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

    @cached_property
    def normal(self) -> tuple[tuple[int, GradedElement], ...]:
        """(weight, stored root) per normal direction, in block order: every
        term of the formula is a product over these."""
        return tuple((b.weight, root) for b in self.blocks
                     for root in b.chern_roots)

    def weights(self) -> list[int]:
        return [k for k, _ in self.normal]

    @cached_property
    def volume_pieces(self) -> tuple[Fraction, ...]:
        """v_j = int_F Td omega^j/j!: int_F Td e^{m omega} = sum_j m^j v_j."""
        if not self.omega:    # every point: one piece, and no ring walk
            return (self.todd.integrate(),)
        return tuple(map(self.todd.pair, self.omega.divided_powers()))

    @cached_property
    def chi_pieces(self) -> tuple:
        """P_0..P_d with chi_tilde(F, m) = sum_j m^j P_j."""
        from .localization import chi_tilde_pieces
        return chi_tilde_pieces(self)

    @cached_property
    def classification(self) -> Classification:
        """Positive- or negative-definite when every weight is positive or
        every weight is negative, otherwise indefinite."""
        ws = self.weights()
        if all(w > 0 for w in ws):
            return Classification.POSITIVE_DEFINITE
        if all(w < 0 for w in ws):
            return Classification.NEGATIVE_DEFINITE
        return Classification.INDEFINITE

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


class QuotientData(Record):
    """User-supplied geometry of the regular stratum of the quotient."""
    ring: RingSpec
    omega0: GradedElement
    kappa_todd: GradedElement

    @cached_property
    def regular_pieces(self) -> tuple[tuple[int, ...], int]:
        """(n, d) with n_j / d = int kappa omega0^j / j!, so that the regular
        term int e^{m omega0} kappa is sum_j m^j n_j / d."""
        return over_lcm(map(self.kappa_todd.pair,
                            self.omega0.divided_powers()))


class MomentGroup(Record):
    """The components at one moment: chi_pieces[j] sums their P_j."""
    moment: int
    chi_pieces: tuple


class ManifoldPresentation(Record):
    name: str
    dim_M: int
    components: tuple[FixedComponent, ...]
    quotient: Optional[QuotientData] = None

    @cached_property
    def moment_groups(self) -> tuple[MomentGroup, ...]:
        """One group per distinct moment, ascending, kept on first use (a
        `replace` copy starts without); all pieces share one
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


# ---------------------------------------------------------------------------
# validation


def validate(p: ManifoldPresentation) -> list[Diagnostic]:
    """Check every structural invariant; empty list means valid."""
    out: list[Diagnostic] = []

    def bad(code, where, message):
        out.append(Diagnostic(code, where, message))

    def off_degree_2(c, ring):    # the terms of c not of degree 2
        return [x for x in c.terms if ring.monomial_degree(x) != 2]

    dim_M = brief(p.dim_M)
    if p.dim_M < 0 or p.dim_M % 2 != 0:
        bad("DimensionOdd", p.name, f"dim_M = {dim_M} must be even and >= 0")
    if not p.components:
        bad("NoComponents", p.name, "presentation has no fixed components")
    seen = set()
    for F in p.components:
        where = f"{p.name}/{F.name}"
        if F.name in seen:
            bad("DuplicateName", where, "an earlier component has this name")
        seen.add(F.name)
        if (dim := F.dim_F + 2 * len(F.normal)) != p.dim_M:
            bad("DimensionMismatch", where,
                f"dim_F + 2*rank = {brief(dim)} != dim_M = {dim_M}")
        if not isinstance(F.moment, int):
            bad("MomentNotInteger", where, f"moment = {brief(repr(F.moment))}")
        for elem, label in ((F.todd, "todd"), (F.omega, "omega")):
            if elem.ring != F.ring:
                bad("WrongRing", where, f"{label} lives in a foreign ring")
        for _ in off_degree_2(F.omega, F.ring):
            bad("OmegaNotDegree2", where, "omega must be of pure degree 2")
        if not any(F.ring.integration_table.values()):
            bad("IntegralsZero", where, "the ring integrates everything to 0")
        if F.dim_F == 0:
            if F.ring != RingSpec.point():
                bad("PointRingNotTrivial", where, "zero-dimensional component "
                    "must carry the point ring, whose integral is 1")
            if F.todd != F.ring.one():
                bad("PointToddNotOne", where, "todd must equal 1 at a point")
            if F.omega:
                bad("PointOmegaNotZero", where, "omega must vanish at a point")
        for i, b in enumerate(F.blocks):
            bwhere = f"{where}/block{i}"
            if b.weight == 0:
                bad("WeightZero", bwhere, "normal weight must be nonzero")
            if not b.chern_roots:
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
        if not any(q.ring.integration_table.values()):
            bad("IntegralsZero", where, "the ring integrates everything to 0")
        for _ in off_degree_2(q.omega0, q.ring):
            bad("OmegaNotDegree2", where, "omega0 must be of pure degree 2")
        for elem, label in ((q.omega0, "omega0"), (q.kappa_todd, "kappa_todd")):
            if elem.ring != q.ring:
                bad("WrongRing", where, f"{label} lives in a foreign ring")
    return out


# ---------------------------------------------------------------------------
# document format


def _ring_to_doc(ring: RingSpec) -> dict:
    """A ring's object, keyed by `_FIELDS["ring"]` and each generator's by
    `_FIELDS["generator"]`, in order."""
    integrals = {monomial_to_string(ring, m): str(v)
                 for m, v in sorted(ring.integration_table.items())}
    return dict(zip(_FIELDS["ring"], (
        [dict(zip(_FIELDS["generator"], g)) for g in ring.generators],
        ring.truncation_degree, integrals)))


def _ring_from_doc(doc, where: str, memo: dict) -> RingSpec:
    """The ring block of the object at `where`, parsed once per repr of
    its JSON value (false, 0, "0" differ)."""
    text = repr(doc)
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


def _to_doc(value):
    """The JSON value `serialize` writes for a record (its fields, a None
    one left out), a class or a ring; tuples are JSON arrays already."""
    if isinstance(value, GradedElement):
        return element_to_string(value)
    if isinstance(value, RingSpec):
        return _ring_to_doc(value)
    return {f: getattr(value, f) for f in value._fields
            if getattr(value, f) is not None}


def serialize(p: ManifoldPresentation) -> str:
    """Bit-exact canonical serialization: each record an object of its
    fields (`_FIELDS` reads the same keys), sorted keys, reduced rationals,
    graded-lex term order in polynomial strings."""
    return json.dumps(p, default=_to_doc, sort_keys=True, indent=2) + "\n"


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
    "ring": {"generators": (list, []), "truncation": int, "integrals": dict},
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
    """A JSON object; a repeated key is an error naming its first repeat."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ParseError(f"repeated key {brief(repr(key))}")
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
    if diagnostics:    # the first, and a count of the others
        more = len(diagnostics) - 1
        raise ParseError(f"document failed validation: {diagnostics[0]}"
                         + (f" (and {more} more)" if more else ""),
                         diagnostics=diagnostics)
    return p
