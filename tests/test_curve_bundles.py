"""Projective bundles over curves (`curve_bundles`) against their
enumerated characters: fixed surfaces with nonzero normal roots of both
signs, moments measured from a level anywhere between the least and the
greatest surface moment, orbifold levels between two surfaces included."""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from equiloc.cli import EXIT_MATH, EXIT_OK, main
from equiloc.localization import character
from equiloc.model import replace, serialize
import families


def run(*argv) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(list(argv))


def bumped(p, i):
    """p with the first normal root of its i-th surface raised by h."""
    F = p.components[i]
    b, *rest = F.blocks
    b = replace(b, chern_roots=(b.chern_roots[0] + F.ring.generator("h"),))
    return replace(p, components=p.components[:i]
                   + (replace(F, blocks=(b, *rest)),) + p.components[i + 1:])


@settings(max_examples=60, deadline=None)
@given(families.bundles, st.data())
def test_curve_bundle_matches_its_enumeration(case, data):
    p = case.presentation
    for m in range(5):
        assert character(p, m) == case.oracle(m), m
    i = data.draw(st.integers(0, len(p.components) - 1))
    with tempfile.TemporaryDirectory() as tmp:
        good, bad = Path(tmp, "bundle.json"), Path(tmp, "bumped.json")
        good.write_text(serialize(p))
        bad.write_text(serialize(bumped(p, i)))
        assert run("verify", "--input", str(good)) == EXIT_OK
        # a root raised by h leaves a pole at z = 1 in one component only
        assert run("character", "--input", str(bad), "--m", "0:6") \
            == EXIT_MATH
