"""Projective bundles over curves: an oracle family with fixed surfaces and
nonzero normal roots.

M = P(L_0 + ... + L_n) over a curve of genus g, with deg L_i = n_i and the
circle acting on L_i with the distinct weight w_i; the line bundle is O(1)
twisted by a degree-D bundle from the curve.  The sections of its m-th
power are Sym^m of the dual sum, so by Riemann-Roch on the curve the
character is

    sum over a in N^{n+1}, |a| = m, of z^{sum a_i w_i - m t}
    (m D + sum a_i n_i + 1 - g),

with the level moved to t, an integer in [min w, max w]: a fixed surface's
moment, or one strictly between two, where the reduced space is an
orbifold (Grothendieck's P(E); Hartshorne, Algebraic Geometry, II.7 and
IV.1).  The fixed components are n + 1 copies of the curve.  F_i has
moment w_i - t, ring h (degree 2,
int h = 1), Todd class 1 + (1 - g) h, omega (D + n_i) h, and one block
per j != i of weight w_j - w_i and stored root (n_j - n_i) h.
"""

from __future__ import annotations

import json
from itertools import combinations

from equiloc.oracle import WeightMultiset


def _linear(a: int, b: int) -> str:
    """a + b h in the document grammar, a negative b as `a - |b| * h^1`."""
    return f"{a} {'-' if b < 0 else '+'} {abs(b)} * h^1" if b else str(a)


def document(g: int, weights, degrees, D: int, t: int) -> str:
    """The presentation of the bundle as a document, moments measured from
    the level t."""
    ring = {"generators": [{"degree": 2, "name": "h"}], "truncation": 2,
            "integrals": {"h^1": "1"}}
    components = []
    for i, (w, n) in enumerate(zip(weights, degrees)):
        blocks = []
        for j, (wj, nj) in enumerate(zip(weights, degrees)):
            if j != i:
                blocks.append({"weight": wj - w,
                               "chern_roots": [_linear(0, nj - n)]})
        components.append({
            "name": f"s{i}", "moment": w - t, "ring": ring,
            "todd": _linear(1, 1 - g), "omega": _linear(0, D + n),
            "blocks": blocks})
    return json.dumps({"name": f"bundle_g{g}", "dim_M": 2 * len(weights),
                       "components": components})


def enumerated_character(g: int, weights, degrees, D: int, t: int,
                         m: int) -> WeightMultiset:
    """The character at m, by summing Riemann-Roch on the curve over the
    monomials of degree m."""
    out: dict[int, int] = {}
    r = len(weights)
    # compositions of m into r parts, as bars among m + r - 1 places
    for bars in combinations(range(m + r - 1), r - 1):
        edges = (-1, *bars, m + r - 1)
        a = [edges[i + 1] - edges[i] - 1 for i in range(r)]
        e = sum(x * w for x, w in zip(a, weights)) - m * t
        out[e] = out.get(e, 0) + m * D + sum(
            x * n for x, n in zip(a, degrees)) + 1 - g
    return WeightMultiset(out)
