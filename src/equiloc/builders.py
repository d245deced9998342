"""Builders of presentations, which `equiloc` re-exports lazily: no command
calls them.  Stored Chern roots follow `model`'s sign convention."""

from __future__ import annotations

from fractions import Fraction

from .model import FixedComponent, ManifoldPresentation, NormalBlock, replace
from .ring import GradedElement, RingSpec, todd_from_roots


def projective_ring(r: int) -> RingSpec:
    """Cohomology ring of CP^{r-1}: one generator h, h^{r-1} integrates to 1."""
    if r < 1:
        raise ValueError("need r >= 1")
    if r == 1:
        return RingSpec.point()
    return RingSpec((("h", 2),), 2 * (r - 1), {(r - 1,): Fraction(1)})


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
            f"w{w}", d * (w - w_min) + shift, ring,
            todd_from_roots(ring, [h] * r), h * Fraction(d), blocks))
    name = f"cpn[{','.join(map(str, weights))}]d{d}" + (
        f"s{shift}" if shift else "")
    return ManifoldPresentation(name, 2 * len(weights) - 2, tuple(components))


def trivial_cp1(d: int = 1) -> ManifoldPresentation:
    """CP^1 with the trivial action: the one component of
    cpn_linear([0, 0], d), renamed `total`, at moment 0 with no normal
    blocks."""
    [F] = cpn_linear([0, 0], d).components
    return ManifoldPresentation(f"trivial_cp1_d{d}", 2,
                                (replace(F, name="total"),))


def shift_moment(p: ManifoldPresentation, s: int) -> ManifoldPresentation:
    """Shift every moment value by the integer s (studying another level)."""
    comps = tuple(replace(F, moment=F.moment + s) for F in p.components)
    return ManifoldPresentation(f"{p.name}+shift{s}", p.dim_M, comps)


def bundle_power(p: ManifoldPresentation, k: int) -> ManifoldPresentation:
    """Replace the prequantizing bundle by its k-th power: omega and the
    moment map both scale by k."""
    if k < 1:
        raise ValueError("need k >= 1")
    comps = tuple(replace(F, moment=F.moment * k, omega=F.omega * Fraction(k))
                  for F in p.components)
    return ManifoldPresentation(f"{p.name}^pow{k}", p.dim_M, comps)


def _embed(elem: GradedElement, ring: RingSpec, offset: int,
           total: int) -> GradedElement:
    return GradedElement(ring, {
        (0,) * offset + mono + (0,) * (total - offset - len(mono)): c
        for mono, c in elem.terms.items()})


def _tensor_rings(r1: RingSpec, r2: RingSpec) -> RingSpec:
    if r2 == RingSpec.point():
        return r1
    used = {n for n, _ in r1.generators}
    gens2 = []
    for n, deg in r2.generators:
        new, i = n, 2
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


def _lift(C: FixedComponent, ring: RingSpec, offset: int) -> tuple:
    """C's todd, omega and normal blocks in `ring`, C's generators placed
    from `offset` on; a component already in `ring` is its own lift."""
    if C.ring is ring:
        return C.todd, C.omega, tuple(C.blocks)
    up = lambda e: _embed(e, ring, offset, len(ring.generators))
    return up(C.todd), up(C.omega), tuple(
        NormalBlock(b.weight, tuple(map(up, b.chern_roots))) for b in C.blocks)


def product(p: ManifoldPresentation,
            q: ManifoldPresentation) -> ManifoldPresentation:
    """Product presentation: components are pairs, moments add, rings tensor,
    Todd/omega/blocks pull back and merge.  A ring tensored with the point
    is the ring itself, so a pair with a point component keeps the other
    component's ring and its (immutable) classes rather than copies."""
    components = []
    for F in p.components:
        for G in q.components:
            ring = _tensor_rings(F.ring, G.ring)
            todd_f, omega_f, blocks_f = _lift(F, ring, 0)
            todd_g, omega_g, blocks_g = _lift(G, ring, len(F.ring.generators))
            components.append(FixedComponent(
                f"{F.name}*{G.name}", F.moment + G.moment, ring,
                todd_f * todd_g, omega_f + omega_g, blocks_f + blocks_g))
    return ManifoldPresentation(f"({p.name})x({q.name})", p.dim_M + q.dim_M,
                                tuple(components))


def disjoint_union(*ps: ManifoldPresentation) -> ManifoldPresentation:
    """Union of presentations of equal dimension (component lists merge)."""
    if not ps:
        raise ValueError("need at least one presentation")
    dim = ps[0].dim_M
    if any(p.dim_M != dim for p in ps):
        raise ValueError("disjoint union requires equal dim_M")
    comps = tuple(replace(F, name=f"p{i}.{F.name}")
                  for i, p in enumerate(ps) for F in p.components)
    return ManifoldPresentation("+".join(p.name for p in ps), dim, comps)
