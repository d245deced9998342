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

from curve_bundles import document, enumerated_character
from equiloc.cli import EXIT_MATH, EXIT_OK, main
from equiloc.localization import character
from equiloc.model import parse, serialize


@st.composite
def bundles(draw):
    """(g, weights, degrees, D, t) and the surface whose root to bump."""
    weights = draw(st.lists(st.integers(-4, 4), min_size=2, max_size=4,
                            unique=True))
    r = len(weights)
    case = (draw(st.integers(0, 4)), weights,
            draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r)),
            draw(st.integers(0, 3)),
            draw(st.integers(min(weights), max(weights))))
    return case, draw(st.integers(0, r - 1))


def run(*argv) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(list(argv))


@settings(max_examples=60, deadline=None)
@given(bundles())
def test_curve_bundle_matches_its_enumeration(drawn):
    case, bump = drawn
    p = parse(document(*case))
    for m in range(5):
        assert character(p, m).coeffs == enumerated_character(*case, m), m
    with tempfile.TemporaryDirectory() as tmp:
        good, bumped = Path(tmp, "bundle.json"), Path(tmp, "bumped.json")
        good.write_text(serialize(p))
        bumped.write_text(document(*case, bump=bump))
        assert run("verify", "--input", str(good)) == EXIT_OK
        # a root raised by h leaves a pole at z = 1 in one component only
        assert run("character", "--input", str(bumped), "--m", "0:6") \
            == EXIT_MATH
