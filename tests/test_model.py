"""Data model: validation diagnostics, document round-trips, builders."""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from equiloc.builders import (bundle_power, cpn_linear, disjoint_union,
                              product, projective_ring, shift_moment,
                              trivial_cp1)
from equiloc.model import (_FIELDS, Diagnostic, FixedComponent,
                           ManifoldPresentation, NormalBlock, ParseError,
                           QuotientData, Record, _ring_to_doc, parse,
                           replace, serialize, validate)
from equiloc.quantize import main_formula_report, polynomiality_check
from equiloc.witten import WittenCheckReport
from equiloc.ring import RingSpec, todd_from_roots
from equiloc import builtin, builtin_names

DATA = Path(__file__).resolve().parents[1] / "src" / "equiloc" / "data"
CP001 = serialize(builtin("cp001"))


def test_builders_validate_clean():
    for name in builtin_names():
        assert validate(builtin(name)) == []


def test_weight_zero_diagnostic():
    p = cpn_linear([0, 1], 1)
    F, *rest = p.components
    G = replace(F, blocks=(replace(F.blocks[0], weight=0), *F.blocks[1:]))
    p = replace(p, components=(G, *rest))
    codes = [d.code for d in validate(p)]
    assert "WeightZero" in codes


def test_dimension_mismatch_diagnostic():
    p = replace(cpn_linear([0, 1], 1), dim_M=4)
    codes = [d.code for d in validate(p)]
    assert "DimensionMismatch" in codes


def test_point_component_constraints():
    ring = RingSpec.point()
    comp = FixedComponent("pt", 0, ring, ring.one(), ring.zero(),
                          [NormalBlock(1, (ring.zero(),))])
    p = ManifoldPresentation("x", 2, (comp,))
    assert validate(p) == []
    p = replace(p, components=(replace(comp, todd=ring.scalar(2)),))
    assert any(d.code == "PointToddNotOne" for d in validate(p))


def no_components(doc):
    doc["components"] = []


def rank_zero_block(doc):
    doc["components"][0]["blocks"][0]["chern_roots"] = []


def generator_at_a_point(doc):
    # w1 is a point: its truncation-0 ring may carry no generator
    doc["components"][1]["ring"]["generators"] = [{"name": "h", "degree": 2}]


@pytest.mark.parametrize("edit, code", [
    (no_components, "NoComponents"), (rank_zero_block, "RankZero"),
    (generator_at_a_point, "PointRingNotTrivial")])
def test_parse_reports_structural_diagnostics(edit, code):
    doc = json.loads(CP001)
    edit(doc)
    with pytest.raises(ParseError) as err:
        parse(json.dumps(doc))
    assert code in [d.code for d in err.value.diagnostics]


def test_moment_not_integer_diagnostic():
    p = shift_moment(builtin("cp001"), Fraction(1, 2))
    assert [d.code for d in validate(p)] == ["MomentNotInteger"] * 2


def test_shared_bad_classes_are_reported_per_component():
    # each bad class is held by two components (a ring, a root, an omega
    # and a Todd class shared as `parse` shares them) and is reported for
    # both, in component order, as one check per component would
    ring = projective_ring(3)
    h = ring.generator("h")
    foreign = RingSpec.point().zero()
    F = FixedComponent("a", 0, ring, ring.one(), h + h * h,
                       (NormalBlock(1, (h * h,)), NormalBlock(2, (foreign,))))
    pt = RingSpec.point()
    P = FixedComponent("p", 1, pt, pt.scalar(2), pt.zero(),
                       (NormalBlock(-1, (pt.zero(),) * 4),))
    p = ManifoldPresentation("x", 8, (F, replace(F, name="b"), P,
                                      replace(P, name="q")))
    assert [(d.code, d.where) for d in validate(p)] == [
        ("OmegaNotDegree2", "x/a"), ("RootNotDegree2", "x/a/block0"),
        ("WrongRing", "x/a/block1"),
        ("OmegaNotDegree2", "x/b"), ("RootNotDegree2", "x/b/block0"),
        ("WrongRing", "x/b/block1"),
        ("PointToddNotOne", "x/p"), ("PointToddNotOne", "x/q")]
    # through parse: every point of dim6 holds the one class "1"
    text = serialize(builtin("dim6")).replace('"todd": "1"', '"todd": "2"')
    with pytest.raises(ParseError) as err:
        parse(text)
    assert [d.code for d in err.value.diagnostics] \
        == ["PointToddNotOne"] * 8
    assert [d.where for d in err.value.diagnostics] \
        == [f"{builtin('dim6').name}/{F.name}"
            for F in builtin("dim6").components]


def test_round_trip_stability():
    for name in builtin_names():
        text = serialize(builtin(name))
        assert serialize(parse(text)) == text


# The recipes that wrote the shipped documents: the documents are the
# builtins' only source, and these keep the model builders they came from
# from drifting.

def zero_quotient() -> QuotientData:
    """An empty regular stratum: everything integrates to 0."""
    ring = RingSpec.point()
    return QuotientData(ring=ring, omega0=ring.zero(), kappa_todd=ring.zero())


def point_quotient() -> QuotientData:
    """A reduced space that is a single free point with trivial bundle."""
    ring = RingSpec.point()
    return QuotientData(ring=ring, omega0=ring.zero(), kappa_todd=ring.one())


def cp2_quotient() -> QuotientData:
    """The projective plane with its hyperplane class and Todd class."""
    ring = projective_ring(3)
    h = ring.generator("h")
    return QuotientData(ring=ring, omega0=h,
                        kappa_todd=todd_from_roots(ring, [h, h, h]))


def cp1_pos() -> ManifoldPresentation:
    return cpn_linear([0, 1], 1)


def cp1_neg() -> ManifoldPresentation:
    return shift_moment(cpn_linear([0, 1], 1), -1)


def named(p: ManifoldPresentation, name: str,
          quotient=None) -> ManifoldPresentation:
    return replace(p, name=name, quotient=quotient)


RECIPES = {
    "cp1": lambda: named(cp1_pos(), "cp1", zero_quotient()),
    "cp001": lambda: named(cpn_linear([0, 0, 1], 1), "cp001",
                           zero_quotient()),
    "cp012": lambda: named(cpn_linear([0, 1, 2], 1), "cp012",
                           zero_quotient()),
    "prod11": lambda: named(product(cp1_pos(), cp1_neg()), "prod11"),
    # moment-zero locus equal to the fixed-point set, in three pieces: a
    # projective plane whose minimum is a sphere, plus two sphere-times-
    # trivial-sphere pieces placing weights +2 and -3 at moment zero
    "dgmw": lambda: named(disjoint_union(
        cpn_linear([0, 0, 1], 1),
        product(cpn_linear([0, 2], 1), trivial_cp1(1)),
        product(shift_moment(cpn_linear([0, 3], 1), -3), trivial_cp1(1))),
        "dgmw", zero_quotient()),
    "dim6": lambda: named(product(product(cp1_pos(), cp1_pos()), cp1_neg()),
                          "dim6", cp2_quotient()),
    "dim6b": lambda: named(product(product(cp1_pos(), cp1_neg()), cp1_neg()),
                           "dim6b", cp2_quotient()),
    # zero is a regular value: the square of the hyperplane bundle on the
    # rotation sphere, with the moment interval shifted to [-1, 1]
    "regval": lambda: named(shift_moment(cpn_linear([0, 1], 2), -1),
                            "regval", point_quotient()),
}


def test_shipped_documents_match_builders():
    assert list(RECIPES) == list(builtin_names())
    for name, recipe in RECIPES.items():
        doc = (DATA / f"{name}.json").read_text()
        assert doc == serialize(recipe())
        assert serialize(parse(doc)) == doc


def test_builtin_names_are_the_shipped_documents():
    # no document is orphaned and none is missing
    assert set(builtin_names()) == {path.stem
                                    for path in DATA.glob("*.json")}
    assert len(set(builtin_names())) == len(builtin_names())


def test_builtin_calls_return_independent_presentations():
    for name in builtin_names():
        want = serialize(builtin(name))
        p = replace(builtin(name), name="renamed")
        p = replace(p, components=(replace(p.components[0], moment=99),
                                   *p.components[1:]))
        assert serialize(builtin(name)) == want
        q = builtin(name)
        assert q is not p and q.components[0] is not p.components[0]


def test_parse_reads_each_distinct_block_once_per_call():
    # one RingSpec per distinct ring block and one element per distinct
    # (ring, class string) within a call; nothing shared between calls
    text = serialize(builtin("dim6"))
    p, q = parse(text), parse(text)
    rings = {id(F.ring) for F in p.components}
    assert len(rings) == 1 and id(p.quotient.ring) not in rings
    roots = {id(r) for F in p.components for b in F.blocks
             for r in b.chern_roots}
    assert len(roots) == 1
    assert p.components[0].todd is p.components[1].todd

    def objects(p):
        out = []
        for F in p.components:
            out += [F.ring, F.todd, F.omega]
            out += [r for b in F.blocks for r in b.chern_roots]
        return out + [p.quotient.ring, p.quotient.omega0,
                      p.quotient.kappa_todd]

    assert not {id(x) for x in objects(p)} & {id(x) for x in objects(q)}
    assert serialize(p) == serialize(q) == text


def test_parse_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse("{ not json }")
    assert "line 1" in str(err.value)


def test_parse_rejects_semantic_errors():
    text = serialize(builtin("cp1")).replace('"weight": 1', '"weight": 0')
    with pytest.raises(ParseError) as err:
        parse(text)
    assert any(d.code == "WeightZero" for d in err.value.diagnostics)


def test_parse_rejects_fractional_weight():
    text = serialize(builtin("cp1")).replace('"weight": 1', '"weight": "x"')
    with pytest.raises(ParseError):
        parse(text)


# Each field keeps its JSON type: a float, a string or a boolean where an
# integer belongs (and a number for a name) is rejected, and so is anything
# but a string for an integral.
MISTYPED = [('"moment": 1,', '"moment": 1.7,'),
            ('"name": "w0"', '"name": 0'),
            ('"weight": 1', '"weight": true'),
            ('"dim_M": 2', '"dim_M": 2.0'),
            ('"truncation": 0', '"truncation": false'),
            ('"1": "1"', '"1": 0.1'),
            ('"1": "1"', '"1": true'),
            ('"1": "1"', '"1": 1')]


@pytest.mark.parametrize("old, new", MISTYPED)
def test_parse_rejects_mistyped_fields(old, new):
    text = serialize(builtin("cp1"))
    assert old in text
    with pytest.raises(ParseError, match="must be"):
        parse(text.replace(old, new))


# A zero denominator in a class expression or in an integral is an input
# error, not an arithmetic one.  So is a number outside the grammar's ASCII
# `p` and `p/q`, a `*` with no factor after it, or a second integral key
# for one monomial: nothing is coerced and nothing silently overwritten.
ZERO_DENOMINATOR = [('"omega": "1 * h^1"', '"omega": "1/0 * h^1"'),
                    ('"todd": "1 + 1 * h^1"', '"todd": "1 + 1/00 * h^1"'),
                    ('"h^1": "1"', '"h^1": "1/0"'),
                    ('"h^1": "1"', '"h^1": "1.5"'),
                    ('"h^1": "1"', '"h^1": "1e0"'),
                    ('"h^1": "1"', '"h^1": "1_0"'),
                    ('"h^1": "1"', '"h^1": "\u0663"'),
                    ('"h^1": "1"', '"h^1": "1", "h * 1": "1"'),
                    ('"omega": "1 * h^1"', '"omega": "h *"'),
                    ('"omega": "1 * h^1"', '"omega": "1 * h^1 * * 1"'),
                    ('"omega": "1 * h^1"', '"omega": "\u0663 * h^1"')]


@pytest.mark.parametrize("old, new", ZERO_DENOMINATOR)
def test_parse_rejects_zero_denominator(old, new):
    text = serialize(builtin("cp001"))
    assert old in text
    with pytest.raises(ParseError, match="components\\[0\\]"):
        parse(text.replace(old, new))


# A class term above the ring's truncation degree is an input error that
# names its field, never dropped; cp001's w0 is truncated at degree 2.
ABOVE_TRUNCATION = [
    ('"omega": "1 * h^1"', '"omega": "1 * h^1 + 7 * h^3"',
     "omega: term h^3 of degree 6"),
    ('"todd": "1 + 1 * h^1"', '"todd": "1 + 1 * h^1 + 4 * h^2"',
     "todd: term h^2 of degree 4"),
    ('"-1 * h^1"', '"-1 * h^1 + 1 * h^2"',
     "chern root 0: term h^2 of degree 4")]


@pytest.mark.parametrize("old, new, message", ABOVE_TRUNCATION)
def test_parse_rejects_terms_above_truncation(old, new, message):
    text = serialize(builtin("cp001"))
    assert text.count(old) == 1
    with pytest.raises(ParseError, match=re.escape(
            f"components[0]: {message} is above the truncation degree 2")):
        parse(text.replace(old, new))


def test_parse_keeps_terms_that_cancel_above_truncation():
    text = serialize(builtin("cp001")).replace(
        '"omega": "1 * h^1"', '"omega": "1 * h^1 + 1 * h^3 - 1 * h^3"')
    assert parse(text).components[0].omega == \
        builtin("cp001").components[0].omega


# A key repeated within one JSON object is an input error that names the
# key; the last value never silently wins.
REPEATED_KEYS = [('"h^1": "1"', '"h^1": "1", "h^1": "5"', "h^1"),
                 ('"moment": 0,', '"moment": 0, "moment": 1,', "moment"),
                 ('"weight": 1', '"weight": 1, "weight": 1', "weight")]


@pytest.mark.parametrize("old, new, key", REPEATED_KEYS)
def test_parse_rejects_repeated_keys(old, new, key):
    text = serialize(builtin("cp001"))
    assert old in text
    with pytest.raises(ParseError, match=re.escape(f"repeated key '{key}'")):
        parse(text.replace(old, new, 1))


# Each array and object keeps its JSON shape: a container of the wrong
# kind, or a string where an array belongs, is rejected, never iterated;
# and a name, ring integer or class expression of the wrong type is not
# converted.
MISSHAPEN = [(("components",), 3),
             (("components", 0, "ring"), []),
             (("components", 0, "ring", "integrals"), []),
             (("components", 0, "blocks", 0, "chern_roots"), "0"),
             (("components", 0, "blocks"), {}),
             (("components", 0, "ring", "generators"), {}),
             (("quotient",), []),
             (("quotient", "ring"), "h"),
             (("components", 0, "ring", "truncation"), "2"),
             (("components", 0, "ring", "generators", 0, "degree"), "2"),
             (("components", 0, "ring", "generators", 0, "name"), 5),
             (("components", 0, "name"), ["w0"]),
             (("name",), None),
             (("components", 0, "todd"), 3),
             (("components", 0, "omega"), None),
             (("components", 0, "blocks", 0, "chern_roots", 0), 0),
             (("quotient", "omega0"), []),
             (("quotient", "kappa_todd"), 1),
             (("components", 0, "blocks"), None)]


def misshapen(path, value):
    """cp001's document with the field at `path` set to `value`."""
    doc = json.loads(serialize(builtin("cp001")))
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = value
    return json.dumps(doc)


@pytest.mark.parametrize("path, value", MISSHAPEN)
def test_parse_rejects_misshapen_fields(path, value):
    with pytest.raises(ParseError, match=f"{path[-1]} must be "):
        parse(misshapen(path, value))


def node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# One object of each kind in cp001's document, and the path that names it.
OBJECTS = [((), "document"),
           (("components", 0), "components[0]"),
           (("components", 0, "blocks", 0), "components[0]: blocks[0]"),
           (("components", 0, "ring"), "components[0]: ring"),
           (("components", 0, "ring", "generators", 0),
            "components[0]: ring: generators[0]"),
           (("quotient",), "quotient")]
# The optional keys, each at a place where its default is valid but for
# the blocks, and that default.
OPTIONAL = [((), "quotient", None),
            (("components", 0), "blocks", []),
            (("components", 1, "ring"), "generators", []),
            (("quotient", "ring"), "generators", [])]
REQUIRED = [(path, where, key) for path, where in OBJECTS
            for key in sorted(node(json.loads(CP001), path))
            if key not in {key for _, key, _ in OPTIONAL}]


@pytest.mark.parametrize("path, where, key", REQUIRED,
                         ids=[f"{where}-{key}" for _, where, key in REQUIRED])
def test_parse_names_a_missing_required_key(path, where, key):
    doc = json.loads(CP001)
    del node(doc, path)[key]
    with pytest.raises(ParseError) as err:
        parse(json.dumps(doc))
    assert str(err.value) == f"{where} has no key {key!r}"


def outcome(doc):
    """The canonical document `parse` reads from `doc`, or its error."""
    try:
        return serialize(parse(json.dumps(doc)))
    except ParseError as e:
        return f"ParseError: {e}"


@pytest.mark.parametrize("path, key, default", OPTIONAL,
                         ids=[".".join(map(str, path + (key,)))
                              for path, key, _ in OPTIONAL])
def test_absent_optional_key_reads_as_its_default(path, key, default):
    doc = json.loads(CP001)
    node(doc, path)[key] = default
    written = outcome(doc)
    del node(doc, path)[key]
    assert outcome(doc) == written
    # only a component without blocks is invalid in cp001
    assert written.startswith("ParseError") == (key == "blocks")


def test_readme_lists_the_keys_parse_reads():
    # the README sentence "The keys read are: ..." against `_FIELDS`: each
    # kind's keys in order, an optional one with its default
    text = " ".join((DATA.parents[2] / "README.md").read_text().split())
    sentence = re.search(r"The keys read are: (.*?)\. ", text).group(1)
    listed = {}
    for clause in sentence.split("; "):
        keys, kind = re.fullmatch(r"(.*) in (?:a|the) (\w+)", clause).groups()
        listed[kind] = [
            (key, json.loads(default) if default else "required")
            for key, default in re.findall(
                r"`(\w+)`(?: \(default `([^`]*)`\))?", keys)]
    assert listed == {
        kind: [(key, spec[1] if type(spec) is tuple else "required")
               for key, spec in fields.items()]
        for kind, fields in _FIELDS.items()}


def test_document_keys_are_the_record_fields():
    # `serialize` writes each record's fields as its object's keys, and
    # `parse` reads `_FIELDS`: the two lists are the same, in order
    for kind, cls in (("document", ManifoldPresentation),
                      ("component", FixedComponent), ("block", NormalBlock),
                      ("quotient", QuotientData)):
        assert tuple(_FIELDS[kind]) == cls._fields


def test_serialized_ring_keys_are_the_fields():
    # a ring is no record: `serialize` writes its object and each
    # generator's with the keys `parse` reads, in `_FIELDS` order
    p = builtin("dim6")
    rings = [F.ring for F in p.components] + [p.quotient.ring]
    assert any(ring.generators for ring in rings)
    for ring in rings:
        doc = _ring_to_doc(ring)
        assert tuple(doc) == tuple(_FIELDS["ring"])
        for gen in doc["generators"]:
            assert tuple(gen) == tuple(_FIELDS["generator"])
    text = json.loads(serialize(p))
    for obj in [c["ring"] for c in text["components"]] + [
            text["quotient"]["ring"]]:
        assert obj.keys() == _FIELDS["ring"].keys()
        assert all(g.keys() == _FIELDS["generator"].keys()
                   for g in obj["generators"])


# One instance of every record class, by class name.
RECORDS = {
    "Diagnostic": lambda: Diagnostic("WeightZero", "cp1/w0", "bad weight"),
    "NormalBlock": lambda: builtin("cp1").components[0].blocks[0],
    "FixedComponent": lambda: builtin("cp1").components[0],
    "QuotientData": lambda: builtin("dim6").quotient,
    "MomentGroup": lambda: builtin("cp1").moment_groups[0],
    "ManifoldPresentation": lambda: builtin("cp1"),
    "MainFormulaReport": lambda: main_formula_report(builtin("dim6"), 2),
    "PolynomialFit": lambda: polynomiality_check(builtin("cp1"), 0, 4),
    "WittenCheckReport": lambda: WittenCheckReport(
        [8, 16], [1j, 2j], [1j, 2j], [1e-16, 1e-16], 0.0)}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_frozen(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in record._fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value
    copy = replace(record)
    assert copy == record and copy is not record
    assert repr(copy) == repr(record) and repr(record).startswith(name + "(")


def test_every_record_class_is_checked():
    assert {cls.__name__ for cls in Record.__subclasses__()} == RECORDS.keys()
    # every record is built by `Record.__init__` and none is hashable
    for cls in Record.__subclasses__():
        assert not vars(cls).keys() & {"__init__", "__hash__"}, cls


def test_record_equality_and_hash_follow_the_fields():
    a = NormalBlock(1, (RingSpec.point().zero(),))
    assert a == NormalBlock(1, (RingSpec.point().zero(),))
    assert a != NormalBlock(2, a.chern_roots) and a != (1, a.chern_roots)
    d = Diagnostic("c", "w", "m")
    assert d == Diagnostic(code="c", where="w", message="m")
    assert d != Diagnostic("c", "w", "n")
    for make in RECORDS.values():
        with pytest.raises(TypeError, match="unhashable"):
            hash(make())


def test_replace_rejects_unknown_or_missing_fields():
    F = builtin("dim6").f_zero()[0]
    F.exceptional, F.residue_pieces
    with pytest.raises(TypeError):
        replace(F, weight=2)
    with pytest.raises(TypeError):
        replace(Diagnostic("c", "w", "m"), severity="high")
    with pytest.raises(TypeError):
        Diagnostic("c", "w")
    with pytest.raises(TypeError):
        Diagnostic("c", "w", "m", code="d")
    with pytest.raises(TypeError):
        Diagnostic("c", "w", "m", "extra")
    p = builtin("dim6")
    assert ManifoldPresentation(p.name, p.dim_M, p.components).quotient is None
    with pytest.raises(TypeError):
        ManifoldPresentation(p.name, p.dim_M, p.components, p.quotient,
                             quotient=p.quotient)
    G = replace(F, name="moved")
    assert G.name == "moved" and G.blocks is F.blocks
    assert vars(G).keys() == set(G._fields)
    assert G.exceptional == F.exceptional


def test_transformed_copies_start_without_pieces():
    # dim6's moment-zero points are indefinite; their pieces are kept on F
    p = builtin("dim6")
    F = p.f_zero()[0]
    F.exceptional, F.chi_pieces
    assert {"exceptional", "chi_pieces"} <= vars(F).keys()
    moved = shift_moment(p, 1).component(F.name)
    assert "exceptional" not in vars(moved)
    with pytest.raises(ValueError, match="moment zero"):
        moved.exceptional
    for q in (bundle_power(p, 2), disjoint_union(p, p)):
        assert all(not vars(G).keys() & {"chi_pieces", "exceptional"}
                   for G in q.components)


def test_replaced_component_recomputes_volume_pieces():
    # int_F Td omega^j/j! on the sphere with omega = d h: (1, d)
    F = trivial_cp1().components[0]
    assert F.volume_pieces == (1, 1) and "volume_pieces" in vars(F)
    G = replace(F, omega=F.omega * 3)
    assert "volume_pieces" not in vars(G)
    assert G.volume_pieces == (1, 3)
    for m in range(4):
        assert sum(m ** j * v for j, v in enumerate(G.volume_pieces)) \
            == (G.todd * (G.omega * m).exp_nilpotent()).integrate()


def test_minimal_point_document():
    text = """
    {"name": "pt", "dim_M": 2,
     "components": [{"name": "p", "moment": 0,
       "ring": {"generators": [], "truncation": 0, "integrals": {"1": "1"}},
       "todd": "1", "omega": "0",
       "blocks": [{"weight": 2, "chern_roots": ["0"]}]}]}
    """
    p = parse(text)
    assert len(p.components) == 1 and p.components[0].dim_F == 0


def test_cpn_linear_structure():
    p = cpn_linear([0, 1], 1)
    assert [F.moment for F in p.components] == [0, 1]
    assert p.components[0].weights() == [1]
    assert p.components[1].weights() == [-1]
    q = cpn_linear([0, 0, 1], 1)
    cp1_comp = q.component("w0")
    assert cp1_comp.dim_F == 2 and cp1_comp.weights() == [1]
    h = cp1_comp.ring.generator("h")
    assert cp1_comp.blocks[0].chern_roots == (-h,)
    point = q.component("w1")
    assert point.weights() == [-1, -1]
    with pytest.raises(ValueError):
        cpn_linear([0], 1)


def test_chern_roots_cannot_be_edited_in_place():
    # an edit in place would leave the pieces kept on the frozen
    # component stale
    p = cpn_linear([0, 0, 1], 1)
    for q in (p, parse(serialize(p)), product(p, p)):
        F = q.components[0]
        with pytest.raises(TypeError):
            F.blocks[0].chern_roots[0] = F.ring.zero()


def test_cpn_linear_moment_normalization():
    p = cpn_linear([3, 7], 2)
    assert sorted(F.moment for F in p.components) == [0, 8]


def test_product_structure():
    a = cpn_linear([0, 1], 1)
    b = shift_moment(cpn_linear([0, 1], 1), -1)
    p = product(a, b)
    assert p.dim_M == 4
    assert sorted(F.moment for F in p.components) == [-1, 0, 0, 1]
    indef = [F for F in p.components if sorted(F.weights()) == [-1, 1]]
    assert len(indef) == 2
    assert validate(p) == []


def test_product_with_trivial_factor_keeps_ring():
    piece = product(cpn_linear([0, 2], 1), trivial_cp1(1))
    F = piece.components[0]
    assert F.dim_F == 2 and F.weights() == [2]
    assert F.omega == F.ring.generator("h")
    assert validate(piece) == []


def test_disjoint_union_requires_equal_dim():
    with pytest.raises(ValueError):
        disjoint_union(cpn_linear([0, 1], 1), cpn_linear([0, 1, 2], 1))


def test_product_unit_and_associativity():
    from equiloc.localization import character
    from equiloc.builders import point_manifold
    x = cpn_linear([0, 1, 2], 1)
    unit = product(x, point_manifold())
    assert unit.dim_M == x.dim_M
    for m in (0, 1, 3):
        assert character(unit, m) == character(x, m)
    a, b, c = (cpn_linear([0, 1], 1),
               shift_moment(cpn_linear([0, 1], 1), -1),
               cpn_linear([0, 2], 1))
    left = product(product(a, b), c)
    right = product(a, product(b, c))
    assert left.dim_M == right.dim_M == 6
    for m in (0, 1, 2):
        assert character(left, m) == character(right, m)


def test_dim_adds_in_products():
    p = product(cpn_linear([0, 1], 1), cpn_linear([0, 1], 1))
    assert p.dim_M == 4


def test_projective_ring_integrals():
    r3 = projective_ring(3)
    h = r3.generator("h")
    assert (h * h).integrate() == 1
    assert h.integrate() == 0
