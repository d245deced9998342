"""Mutated builtin documents: the parser accepts or rejects them cleanly,
and the exact commands answer them with an exit code, never a traceback."""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from equiloc import builtin, builtin_names, parse, serialize
from equiloc.cli import main
from equiloc.model import ParseError

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
        parent = doc
        for key in head:
            parent = parent[key]
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
    except ParseError:
        expected = (2,)
    else:
        assert serialize(parse(canonical)) == canonical
        # 3: poles that fail to cancel; 2: a number too large, or an
        # unsupported exceptional term
        expected = (0, 2, 3)
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in ("rr", "character", "main-formula"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([command, "--input", path, "--m", "2"])
            assert code in expected, (command, code)
    finally:
        os.unlink(path)
