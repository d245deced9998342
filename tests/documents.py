"""Every document `parse` rejects, with the message it raises: the one
table that the parser's tests (`test_model`) and the command line's
(`test_cli`: exit 2, no output, one `error:` line) both read.  A change to
what `parse` accepts adds its row here.

A row's message is a part of the ParseError's message, or all of it for a
row marked `whole`."""

import json
from typing import NamedTuple

from equiloc.builders import cpn_linear, trivial_cp1
from equiloc.builtins import builtin
from equiloc.model import ManifoldPresentation, serialize


class Rejected(NamedTuple):
    id: str
    text: str
    message: str
    whole: bool = False


MISSING = object()


def node(doc, path):
    """The value at `path` in the decoded document `doc`."""
    for key in path:
        doc = doc[key]
    return doc


def edited(p: ManifoldPresentation, *changes) -> str:
    """`p`'s document with each (path, value) of `changes` made in turn:
    the field at `path` set to `value`, or removed where it is MISSING."""
    doc = json.loads(serialize(p))
    for (*head, last), value in changes:
        if value is MISSING:
            del node(doc, head)[last]
        else:
            node(doc, head)[last] = value
    return json.dumps(doc)


def substituted(p: ManifoldPresentation, old: str, new: str) -> str:
    """`p`'s document text with every `old` in it replaced by `new`."""
    text = serialize(p)
    assert old in text, old
    return text.replace(old, new)


CP1, CP001 = builtin("cp1"), builtin("cp001")


def rows(p, message, substitutions):
    """A row for each (old, new, *args) in `substitutions`: `p`'s document
    with `old` replaced by `new`, and `message` formatted with `args`.  Its
    id joins old, new and args, as pytest named such a tuple."""
    return [Rejected("-".join((old, new, *args)),
                     substituted(p, old, new), message.format(*args))
            for old, new, *args in substitutions]


# Each field keeps its JSON type: a float, a string or a boolean where an
# integer belongs (and a number for a name) is rejected, and so is anything
# but a string for an integral.
MISTYPED = rows(CP1, "must be", [
    ('"moment": 1,', '"moment": 1.7,'), ('"name": "w0"', '"name": 0'),
    ('"weight": 1', '"weight": true'), ('"weight": 1', '"weight": "x"'),
    ('"dim_M": 2', '"dim_M": 2.0'),
    ('"truncation": 0', '"truncation": false'), ('"1": "1"', '"1": 0.1'),
    ('"1": "1"', '"1": true'), ('"1": "1"', '"1": 1')])

# A zero denominator in a class expression or in an integral is an input
# error, not an arithmetic one.  So is a number outside the grammar's ASCII
# `p` and `p/q`, a `*` with no factor after it, or a second integral key
# for one monomial: nothing is coerced and nothing silently overwritten.
ZERO_DENOMINATOR = rows(CP001, "components[0]", [
    ('"omega": "1 * h^1"', '"omega": "1/0 * h^1"'),
    ('"todd": "1 + 1 * h^1"', '"todd": "1 + 1/00 * h^1"'),
    ('"h^1": "1"', '"h^1": "1/0"'), ('"h^1": "1"', '"h^1": "1.5"'),
    ('"h^1": "1"', '"h^1": "1e0"'), ('"h^1": "1"', '"h^1": "1_0"'),
    ('"h^1": "1"', '"h^1": "\u0663"'),
    ('"h^1": "1"', '"h^1": "1", "h * 1": "1"'),
    ('"omega": "1 * h^1"', '"omega": "h *"'),
    ('"omega": "1 * h^1"', '"omega": "1 * h^1 * * 1"'),
    ('"omega": "1 * h^1"', '"omega": "\u0663 * h^1"')])

# A class term above the ring's truncation degree is an input error that
# names its field, never dropped; cp001's w0 is truncated at degree 2.
ABOVE_TRUNCATION = rows(
    CP001, "components[0]: {} is above the truncation degree 2", [
        ('"omega": "1 * h^1"', '"omega": "1 * h^1 + 7 * h^3"',
         "omega: term h^3 of degree 6"),
        ('"todd": "1 + 1 * h^1"', '"todd": "1 + 1 * h^1 + 4 * h^2"',
         "todd: term h^2 of degree 4"),
        ('"-1 * h^1"', '"-1 * h^1 + 1 * h^2"',
         "chern root 0: term h^2 of degree 4")])

# A key repeated within one JSON object is an input error that names the
# key, the first repeat in document order when there are two; the last
# value never silently wins.
REPEATED_KEYS = rows(CP001, "repeated key '{}'", [
    ('"h^1": "1"', '"h^1": "1", "h^1": "5"', "h^1"),
    ('"moment": 0,', '"moment": 0, "moment": 1,', "moment"),
    ('"weight": 1', '"weight": 1, "weight": 1', "weight"),
    ('"h^1": "1"', '"h^1": "1", "1": "0", "1": "0", "h^1": "1"', "1")])

# Each array and object keeps its JSON shape: a container of the wrong
# kind, or a string where an array belongs, is rejected, never iterated;
# and a name, ring integer or class expression of the wrong type is not
# converted.  A row's id is the one pytest gave its (path, value) pair.
MISSHAPEN = [
    Rejected(f"path{i}-" + (str(value) if isinstance(value, (str, int))
                            or value is None else f"value{i}"),
             edited(CP001, (path, value)), f"{path[-1]} must be ")
    for i, (path, value) in enumerate([
        (("components",), 3), (("components", 0, "ring"), []),
        (("components", 0, "ring", "integrals"), []),
        (("components", 0, "blocks", 0, "chern_roots"), "0"),
        (("components", 0, "blocks"), {}),
        (("components", 0, "ring", "generators"), {}),
        (("quotient",), []), (("quotient", "ring"), "h"),
        (("components", 0, "ring", "truncation"), "2"),
        (("components", 0, "ring", "generators", 0, "degree"), "2"),
        (("components", 0, "ring", "generators", 0, "name"), 5),
        (("components", 0, "name"), ["w0"]), (("name",), None),
        (("components", 0, "todd"), 3), (("components", 0, "omega"), None),
        (("components", 0, "blocks", 0, "chern_roots", 0), 0),
        (("quotient", "omega0"), []), (("quotient", "kappa_todd"), 1),
        (("components", 0, "blocks"), None)])]

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
REQUIRED = [
    Rejected(f"{where}-{key}", edited(CP001, (path + (key,), MISSING)),
             f"{where} has no key {key!r}", whole=True)
    for path, where in OBJECTS
    for key in sorted(node(json.loads(serialize(CP001)), path))
    if key not in {key for _, key, _ in OPTIONAL}]

# A key parse does not read is an input error that names the key and the
# object holding it, never silently dropped: a misspelt "quotient" would
# otherwise turn the supplied regular term into a diagnostic.
UNKNOWN_KEYS = [
    Rejected(f"unknown {key}", edited(CP1, *changes),
             f"{where} has unknown key '{key}' (a ")
    for where, key, changes in [
        ("document", "free_on_regular", [(("free_on_regular",), True)]),
        ("components[1]", "dim_F", [(("components", 1, "dim_F"), 0)]),
        ("document", "quotent", [
            (("quotient",), MISSING),
            (("quotent",), json.loads(serialize(CP1))["quotient"])]),
        ("components[0]: blocks[0]", "comment", [
            (("components", 0, "blocks", 0, "comment"),
             "the weight-1 line")])]]

# A later component repeats an earlier ring block, retyped: a parse that
# reused the earlier ring for an equal-looking block (False == 0, True == 1)
# would accept it.
TWO_SPHERES = cpn_linear([0, 0, 1, 1], 1)
RING = ("components", 1, "ring")
assert node(json.loads(serialize(TWO_SPHERES)), RING) \
    == node(json.loads(serialize(TWO_SPHERES)), ("components", 0, "ring"))
RETYPED_RING = [
    Rejected(f"retyped {key[0]}", edited(TWO_SPHERES, (RING + key, value)),
             f"components[1]: ring: {message}", whole=True)
    for key, value, message in [
        (("truncation",), False, "truncation must be int, got False"),
        (("generators", 0, "degree"), True,
         "generators[0]: degree must be int, got True"),
        (("integrals", "h^1"), 1, "integral 'h^1' must be string, got 1")]]

# Rings that integrate wrongly used to parse and give wrong numbers: cp1
# with both point integrals "2" read rr_invariant 2 at m = 1 (it is 1),
# with both "0" read 0, and trivial_cp1 without integrals read 0 at m = 3
# (it is 4).  So did two components of one name, whose residue terms are
# keyed by it: dgmw with a second p0.w0 dropped a term and reported
# balance=FALSE.
DUPLICATE_NAME = Rejected("duplicate name", edited(
    builtin("dgmw"), (("components", 5, "name"), "p0.w0")),
    "[DuplicateName] dgmw/p0.w0")
POINTS = [("components", i, "ring", "integrals") for i in (0, 1)]
SPHERE = ("components", 0, "ring", "integrals")
W0_RING = ("components", 0, "ring")    # the sphere of cp001
INVALID = [
    Rejected("points integrate to 2", edited(
        CP1, *((path, {"1": "2"}) for path in POINTS)),
        "[PointRingNotTrivial] cp1/w0: "),
    Rejected("points integrate to 0", edited(
        CP1, *((path, {"1": "0"}) for path in POINTS)),
        "[IntegralsZero] cp1/w0: "),
    Rejected("sphere integrates to 0", edited(trivial_cp1(), (SPHERE, {})),
             "[IntegralsZero] trivial_cp1_d1/total: "),
    Rejected("sphere without integrals", edited(
        trivial_cp1(), (SPHERE, MISSING)),
        "components[0]: ring has no key 'integrals'", whole=True),
    Rejected("quotient integrates to 0", edited(
        builtin("regval"), (("quotient", "ring", "integrals"), {})),
        "[IntegralsZero] regval/quotient: "),
    DUPLICATE_NAME,
    Rejected("no components", edited(CP001, (("components",), [])),
             "[NoComponents]"),
    # beside w0's own block, so that its dimensions still add up
    Rejected("rank-zero block", edited(
        CP001, (("components", 0, "blocks"), [
            {"chern_roots": ["-1 * h^1"], "weight": 1},
            {"chern_roots": [], "weight": 2}])),
        "[RankZero] cp001/w0/block1: "),
    # w1 is a point: its truncation-0 ring may carry no generator
    Rejected("generator at a point", edited(
        CP001, (("components", 1, "ring", "generators"),
                [{"name": "h", "degree": 2}])), "[PointRingNotTrivial]"),
    Rejected("weight 0", substituted(CP1, '"weight": 1', '"weight": 0'),
             "[WeightZero]"),
    # omega of degree 0: off degree 2 on the quotient, and at a point also
    # nonzero, which is a second diagnostic
    Rejected("quotient omega0 1", edited(
        builtin("regval"), (("quotient", "omega0"), "1")),
        "[OmegaNotDegree2] regval/quotient: omega0 must be of pure degree 2"),
    Rejected("point omega 1", edited(CP1, (("components", 0, "omega"), "1")),
             "[OmegaNotDegree2] cp1/w0: omega must be of pure degree 2 (and "
             "1 more)"),
    # the ring's own rules: one name per generator, and a key of
    # coefficient 1
    Rejected("duplicate generator", edited(
        CP001, (W0_RING + ("generators",), [{"name": "h", "degree": 2}] * 2)),
        "components[0]: ring: duplicate generator names", whole=True),
    Rejected("integral key coefficient", substituted(
        CP001, '"h^1": "1"', '"2 * h^1": "1"'),
        "integral key '2 * h^1': monomial '2 * h^1' has a coefficient other "
        "than 1"),
    # every point of dim6 holds the one class "1", read once and reported
    # for each of its 8 points, in component order: the message names the
    # first and counts the others
    Rejected("points todd 2", substituted(
        builtin("dim6"), '"todd": "1"', '"todd": "2"'),
        "document failed validation: [PointToddNotOne] dim6/w0*w0*w0: todd "
        "must equal 1 at a point (and 7 more)", whole=True),
    # four diagnostics, of three kinds
    Rejected("two diagnostics", edited(
        CP1, (("dim_M",), 3), (("components", 0, "blocks", 0, "weight"), 0)),
        "document failed validation: [DimensionOdd] cp1: dim_M = 3 must be "
        "even and >= 0 (and 3 more)", whole=True)]

LONG = 5000
# Text that cannot be read as JSON or nests too deeply, and an integer past
# int()'s default limit of 4,300 digits.
UNREADABLE = [
    Rejected("syntax", "{ not json }", "line 1"),
    Rejected("unterminated", "{ definitely not json", "syntax error"),
    Rejected("deep", "[" * 100_000, "syntax error: nested too deeply",
             whole=True),
    Rejected("long-integer", substituted(
        CP001, '"moment": 1,', '"moment": 1' + "0" * (LONG - 1) + ","),
        "an integer has more than 4300 digits", whole=True)]

TRUNCATION, NINES = int("9" * 4299 + "8"), "9" * 4300
GENERATOR = '{\n            "degree": 2,\n            "name": "h"\n          }'
# Values too long to quote: a value longer than 32 characters is quoted by
# its first 32 and its length, and a number past int()'s digit limit by its
# digit count; so are a diagnostic's place and numbers.
LONG_VALUES = [
    Rejected("coefficient-digits", substituted(
        CP001, '"1 * h^1"', '"1' + "0" * (LONG - 1) + ' * h^1"'),
        "components[0]: omega: a number has 5000 digits, more than 4300",
        whole=True),
    Rejected("integral-key-digits", substituted(
        CP001, '"h^1": "1"', '"h^1' + "0" * (LONG - 1) + '": "1"'),
        "... (5004 characters): a number has 5000 digits, more than 4300"),
    Rejected("string-document", json.dumps("\n" * LONG),
             "... (10002 characters)"),
    Rejected("unknown-key", substituted(
        CP001, '"dim_M": 4', '"dim_M": 4, "' + "k" * LONG + '": 1'),
        "... (5002 characters) (a document reads"),
    Rejected("unknown-generator", substituted(
        CP001, '"1 * h^1"', '"1 * ' + "g" * LONG + '"'),
        "... (5002 characters)"),
    Rejected("string-moment", substituted(
        CP001, '"moment": 1', '"moment": "' + "1" * LONG + '"'),
        "... (5002 characters)"),
    Rejected("nested-generator", substituted(
        CP001, GENERATOR, "[" * 900 + "]" * 900), "... (1800 characters)"),
    Rejected("repeated-key", substituted(
        CP001, '"dim_M": 4', 2 * ('"' + "k" * LONG + '": 1, ') + '"dim_M": 4'),
        "... (5002 characters)"),
    Rejected("integral-key-degree", substituted(
        CP001, '"h^1": "1"', '"h^' + "1" * 4000 + '": "1"'),
        "key h^111111111111111111111111111111... (4002 characters) does not "
        "have top degree"),
    Rejected("term-degree", substituted(
        CP001, '"1 * h^1"', '"1 * h^' + "1" * 4000 + '"'),
        "... (4000 characters) is above the truncation degree 2"),
    Rejected("term-degree-digits", substituted(
        CP001, '"1 * h^1"', '"1 * h^' + "9" * 4300 + '"'),
        "... (4301 characters) is above the truncation degree 2"),
    Rejected("diagnostic-name", substituted(
        CP1, '"name": "cp1"', '"name": "' + "n" * LONG + '"').replace(
        '"weight": 1', '"weight": 0'),
        "... (5010 characters): normal weight must be nonzero"),
    Rejected("diagnostic-dim_M", substituted(
        CP1, '"dim_M": 2', '"dim_M": 1' + "0" * 4000),
        "dim_M = 10000000000000000000000000000000... (4001 characters) "
        "(and 1 more)"),
    # a number that the document holds within the digit limit but that a
    # dimension, key or term doubles past it: a sum of a 4,300-digit
    # truncation, and a power h^N * h^N with N of 4,300 nines
    Rejected("dimension-digits", edited(
        CP001, (W0_RING + ("truncation",), TRUNCATION),
        (W0_RING + ("integrals",), {f"h^{TRUNCATION // 2}": "1"})),
        "[DimensionMismatch] cp001/w0: dim_F + 2*rank = 10000000000000000000"
        "000000000000... (4301 characters) != dim_M = 4"),
    Rejected("integral-key-product", substituted(
        CP001, '"h^1": "1"', f'"h^{NINES} * h^{NINES}": "1"'),
        "components[0]: ring: integration table key h^1999999999999999999999"
        "99999999... (4303 characters) does not have top degree", whole=True),
    Rejected("term-product", substituted(
        CP001, '"1 * h^1"', f'"1 * h^{NINES} * h^{NINES}"'),
        "components[0]: omega: term h^199999999999999999999999999999... "
        "(4303 characters) of degree 39999999999999999999999999999999... "
        "(4301 characters) is above the truncation degree 2", whole=True)]

REJECTED = (MISTYPED + ZERO_DENOMINATOR + ABOVE_TRUNCATION + REPEATED_KEYS
            + MISSHAPEN + REQUIRED + UNKNOWN_KEYS + RETYPED_RING + INVALID
            + UNREADABLE + LONG_VALUES)
