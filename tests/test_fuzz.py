"""Mutated builtin documents: the parser accepts or rejects them cleanly,
and the exact commands answer them with an exit code, never a traceback.
Documents rewritten in an equivalent form give the same results."""

import contextlib
import copy
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiloc import (builtin, builtin_names, character,
                     main_formula_report, parse, serialize)
from equiloc.builders import cpn_linear, product, trivial_cp1
from equiloc.cli import main
from equiloc.model import ParseError
from equiloc.quantize import Unsupported
import families
from documents import node

DOCS = {name: json.loads(serialize(builtin(name)))
        for name in builtin_names()}

# 10**30 is past any index-sized length; no value here is large enough to
# make a series that fits in memory but takes long to build
INTS = (0, 1, -1, 2, 3, 10 ** 30, -10 ** 30)
STRINGS = ("", "x", "0", "1/0", "h^1", "1 + h", "2 * h^1")
VALUES = INTS + STRINGS + (1.5, True, None, [], {}, [1], {"h^1": "1"})


def node_paths(node, prefix=()):
    """The path of every node below `node`, containers included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from node_paths(child, prefix + (key,))


@st.composite
def mutated_documents(draw):
    """A builtin document with one to three nodes deleted or replaced, an
    int or a string most often by another of its JSON type, so that many
    mutants pass validation."""
    doc = copy.deepcopy(DOCS[draw(st.sampled_from(sorted(DOCS)))])
    for _ in range(draw(st.sampled_from((1, 1, 1, 2, 3)))):
        *head, last = draw(st.sampled_from(list(node_paths(doc))))
        parent = node(doc, head)
        kind = draw(st.sampled_from(("like", "like", "any", "delete")))
        if kind == "delete":
            del parent[last]
            continue
        pool = {int: INTS, str: STRINGS}.get(type(parent[last]), VALUES)
        parent[last] = copy.deepcopy(
            draw(st.sampled_from(pool if kind == "like" else VALUES)))
    return json.dumps(doc)


@settings(max_examples=200, deadline=None)
@given(mutated_documents())
def test_mutated_document_round_trips_or_is_rejected(text):
    try:
        canonical = serialize(parse(text))
    except ParseError as e:
        # exit 2, as for the rows of `tests/documents.py`
        expected, line = (2,), f"error: {e}\n"
    else:
        assert serialize(parse(canonical)) == canonical
        # 3: poles that fail to cancel; 2: a number too large, or an
        # unsupported exceptional term
        expected, line = (0, 2, 3), None
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        codes = {}
        for command in ("rr", "character", "main-formula"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main([command, "--input", path, "--m", "2"])
            assert code in expected, (command, code)
            if line:
                assert (out.getvalue(), err.getvalue()) == ("", line), command
            codes[command] = code
    finally:
        os.unlink(path)
    # all three divide the same character first
    assert codes["rr"] == codes["character"], codes
    assert (codes["main-formula"] == 3) == (codes["rr"] == 3), codes


# the builtins; a product whose classes and keys have two generators; and
# a repeated weight times a trivially acted CP^1, whose indefinite
# component at moment 0 has positive dimension
PRESENTATIONS = {name: builtin(name) for name in builtin_names()}
PRESENTATIONS["cp001^2"] = product(builtin("cp001"), builtin("cp001"))
PRESENTATIONS["cp0112xS2"] = product(cpn_linear([0, 1, 1, 2], 1, shift=-1),
                                     trivial_cp1())


def space(r):
    return r.choice(("", " ", "  "))


def factor(r, text):
    """`g^e` with whitespace around `^`, or `g` for `g^1`."""
    if text.endswith("^1") and r.random() < 0.5:
        return text[:-2]
    return text.replace("^", space(r) + "^" + space(r))


def rewrite(r, canonical):
    """A canonical class string in an equal form: terms and factors
    reordered, whitespace around every token, a coefficient p/q written
    kp/kq, a coefficient 1 or a power 1 left out, and a term c * x split
    into c/2 * x + c/2 * x (so `2 * h^1` may read `h + h` or `4/2 * h`)."""
    terms = []
    for term in canonical.replace(" - ", " + -").split(" + "):
        coef, *factors = term.split(" * ")
        coef = Fraction(coef)
        for c in [coef / 2] * 2 if r.random() < 0.3 else [coef]:
            k = r.choice((1, 1, 2, 3))
            tokens = [f"{abs(c.numerator) * k}/{c.denominator * k}"
                      if k > 1 else str(abs(c))]
            if abs(c) == 1 and factors and r.random() < 0.5:
                tokens = []
            tokens += [factor(r, f) for f in factors]
            r.shuffle(tokens)
            terms.append(("-" if c < 0 else "+",
                          (space(r) + "*" + space(r)).join(tokens)))
    r.shuffle(terms)
    text = ""
    for i, (sign, body) in enumerate(terms):
        if i or sign == "-" or r.random() < 0.3:
            text += space(r) + sign
        text += space(r) + body
    return text + space(r)


def rewrite_ring(r, ring):
    items = []
    for key, value in ring["integrals"].items():
        factors = [factor(r, f) for f in key.split("*")]
        r.shuffle(factors)
        items.append(((space(r) + "*" + space(r)).join(factors),
                      rewrite(r, value)))
    r.shuffle(items)
    ring["integrals"] = dict(items)
    if not ring["generators"] and r.random() < 0.5:
        del ring["generators"]    # a point ring's, read as its default


@st.composite
def equivalent_documents(draw):
    """A presentation of `PRESENTATIONS` or a composed case of `families`,
    and its document with its components, blocks and roots reordered, a
    block of rank 2 or more at times split in two of the same weight that
    divide its roots, its components renamed, every class, key and
    integral rewritten in an equal form and at times a point ring's empty
    `generators` left out; with the new-to-old name map."""
    r = draw(st.randoms(use_true_random=False))
    p = draw(st.sampled_from(sorted(PRESENTATIONS)).map(PRESENTATIONS.get)
             | families.cases().map(lambda case: case.presentation))
    doc = json.loads(serialize(p))
    components = doc["components"]
    fresh = [f"c{i}" for i in range(len(components))]
    r.shuffle(fresh)
    names = {}
    for c, new in zip(components, fresh):
        names[new], c["name"] = c["name"], new
        c["todd"], c["omega"] = rewrite(r, c["todd"]), rewrite(r, c["omega"])
        rewrite_ring(r, c["ring"])
        for b in c["blocks"]:
            b["chern_roots"] = [rewrite(r, x) for x in b["chern_roots"]]
            r.shuffle(b["chern_roots"])
        for b in list(c["blocks"]):
            roots = b["chern_roots"]
            if len(roots) > 1 and r.random() < 0.5:
                cut = r.randrange(1, len(roots))
                b["chern_roots"] = roots[:cut]
                c["blocks"].append({"weight": b["weight"],
                                    "chern_roots": roots[cut:]})
        r.shuffle(c["blocks"])
    r.shuffle(components)
    if "quotient" in doc:
        q = doc["quotient"]
        q["omega0"], q["kappa_todd"] = (rewrite(r, q["omega0"]),
                                        rewrite(r, q["kappa_todd"]))
        rewrite_ring(r, q["ring"])
    return p, json.dumps(doc), names


@settings(max_examples=60, deadline=None)
@given(equivalent_documents())
def test_equivalent_document_gives_the_same_results(case):
    p, text, names = case
    q = parse(text)
    for F in q.components:
        G = p.component(names[F.name])
        assert (F.ring, F.todd, F.omega) == (G.ring, G.todd, G.omega)
    for m in range(4):
        assert character(q, m) == character(p, m), m
        try:
            a = main_formula_report(p, m)
        except Unsupported:    # an indefinite component of positive
            with pytest.raises(Unsupported):    # dimension at moment 0
                main_formula_report(q, m)
            continue
        b = main_formula_report(q, m)
        assert (b.rr, b.regular, b.regular_tag, b.balance) \
            == (a.rr, a.regular, a.regular_tag, a.balance), m
        for terms in ("residue_terms", "exceptional_terms"):
            renamed = {names[k]: v for k, v in getattr(b, terms).items()}
            assert renamed == getattr(a, terms), (m, terms)
