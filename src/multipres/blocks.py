"""Interlevel-set blocks and their finitely presented rectangle extensions.

A block is one of four interval shapes on the half-plane poset, written
oo/co/oc/cc for (a,b), [a,b), (a,b], [a,b].  Each extends to a product
rectangle in the plane with one generator and at most two relations:

    oo (a,b)  ->  [-b,-a) x [a, b)
    co [a,b)  ->  [-b, oo) x [a, b)
    oc (a,b]  ->  [-b, a ) x [a, oo)
    cc [a,b]  ->  [-b, oo) x [a, oo)

Lists of blocks become direct sums of rectangle presentations, and the
block-matching interleaving distance pairs same-kind blocks with a closed
form per pair (corner distance capped by deletion radii), solved with the
same threshold-feasibility matching as the bottleneck distance, whose
perfect matchings also give shift/deletion witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .grades import Grade, rat, rat_str
from .metrics import min_max_assignment, saturates
from .presentation import Generator, Presentation, PresentationError, Relation, direct_sum

INF = math.inf

KINDS = ("oo", "co", "oc", "cc")


@dataclass(frozen=True)
class Block:
    kind: str
    a: Fraction
    b: Fraction

    def __init__(self, kind: str, a, b):
        if kind not in KINDS:
            raise ValueError(f"unknown block kind {kind!r}")
        if a == INF or a == -INF or b == INF or b == -INF:
            raise ValueError("block endpoints must be finite (the extensions' lower corner is (-b, a))")
        aq, bq = rat(a), rat(b)
        if aq > bq:
            raise ValueError(f"block endpoints out of order: {rat_str(aq)} > {rat_str(bq)}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "a", aq)
        object.__setattr__(self, "b", bq)

    def __str__(self) -> str:
        return f"{self.kind}({rat_str(self.a)}, {rat_str(self.b)})"


@dataclass(frozen=True)
class ExtendedRectangle:
    """Product interval [l1,u1) x [l2,u2) with l < u and u possibly infinite."""

    lower: Grade
    upper: tuple[object, object]

    def __post_init__(self):
        if self.lower.n != 2:
            raise ValueError("extended rectangles are 2-parameter")
        for l, u in zip(self.lower.coords, self.upper):
            if not l < u:
                raise ValueError("rectangle sides must have positive length")

    def sides(self) -> tuple[object, object]:
        return tuple(u - l if u != INF else INF for l, u in zip(self.lower.coords, self.upper))

    def radius(self):
        """Half the shortest finite side; INF for a quadrant."""
        finite = [s for s in self.sides() if s != INF]
        return min(finite) / 2 if finite else INF


def extend_block(blk: Block) -> ExtendedRectangle:
    a, b = blk.a, blk.b
    if blk.kind == "oo":
        return ExtendedRectangle(Grade([-b, a]), (-a, b))
    if blk.kind == "co":
        return ExtendedRectangle(Grade([-b, a]), (INF, b))
    if blk.kind == "oc":
        return ExtendedRectangle(Grade([-b, a]), (a, INF))
    return ExtendedRectangle(Grade([-b, a]), (INF, INF))


def rectangle_presentation(rect: ExtendedRectangle, p: int = 2, label: str = "g") -> Presentation:
    """One generator at the lower corner, one relation per finite upper side."""
    gens = (Generator(label, rect.lower),)
    rels = []
    l1, l2 = rect.lower.coords
    u1, u2 = rect.upper
    if u1 != INF:
        rels.append(Relation(Grade([u1, l2]), ((0, 1),)))
    if u2 != INF:
        rels.append(Relation(Grade([l1, u2]), ((0, 1),)))
    return Presentation(2, p, gens, tuple(rels))


def block_presentation(blocks: list[Block], p: int = 2) -> Presentation:
    """Direct sum of the extended-rectangle presentations."""
    if not blocks:
        raise PresentationError("block list is empty")
    out = None
    for i, blk in enumerate(blocks):
        piece = rectangle_presentation(extend_block(blk), p=p, label=f"blk{i}")
        out = piece if out is None else direct_sum(out, piece)
    return out


def rectangle_shift(r1: ExtendedRectangle, r2: ExtendedRectangle):
    """Largest corner distance; INF unless the same sides are infinite (same kind)."""

    def coord_gap(u, v):
        if (u == INF) != (v == INF):
            return INF
        return Fraction(0) if u == INF else abs(u - v)

    return max(
        r1.lower.linf(r2.lower),
        coord_gap(r1.upper[0], r2.upper[0]),
        coord_gap(r1.upper[1], r2.upper[1]),
    )


def rectangle_distance(r1: ExtendedRectangle, r2: ExtendedRectangle):
    """Closed-form interleaving distance: slide one onto the other, or delete both."""
    return min(rectangle_shift(r1, r2), max(r1.radius(), r2.radius()))


def block_distance(x: Block, y: Block):
    """Per-pair matching cost; only same-kind blocks may match."""
    if x.kind != y.kind:
        return INF
    return rectangle_distance(extend_block(x), extend_block(y))


def block_deletion(x: Block):
    return extend_block(x).radius()


def block_matching_distance(A: list[Block], B: list[Block]):
    """Bottleneck assignment over extended rectangles, same-kind edges only."""
    cost = [[block_distance(x, y) for y in B] for x in A]
    return min_max_assignment(cost, [block_deletion(x) for x in A], [block_deletion(y) for y in B])


def unextended_block_distance(x: Block, y: Block):
    """Closed-form same-kind distance before extension (test/report oracle).

    Matching the endpoint pairs in the l-infinity metric, capped by the
    deletion radii, which are half the longest diagonal run inside each
    block on the half-plane: (b-a)/2 for oo/co/oc deaths bounded in one
    direction, (a+b)/2 for oc strips, infinite for cc quadrants.
    """
    if x.kind != y.kind:
        return INF
    corner = max(abs(x.a - y.a), abs(x.b - y.b))
    if x.kind == "cc":
        return corner

    def radius(blk: Block):
        if blk.kind == "oc":
            return (blk.a + blk.b) / 2
        return (blk.b - blk.a) / 2

    return min(corner, max(radius(x), radius(y)))


def matched_pairs_witness_entries(A: list[Block], B: list[Block], eps):
    """Identity entries for a shift/deletion witness at threshold eps.

    A perfect matching of A plus one slot per B against B plus one slot per
    A: A[i] meets B[j] when their rectangles shift onto each other within
    eps (a pair within block_distance only by the radii is two deletions),
    a block meets its own slot when its deletion is <= eps, and slots meet
    slots.  None when there is none, i.e. eps < block_matching_distance.
    """
    m, k = len(A), len(B)
    rects = [extend_block(y) for y in B]
    rows = []
    for i, x in enumerate(A):
        rx = extend_block(x)
        rows.append([j for j, r in enumerate(rects) if rectangle_shift(rx, r) <= eps]
                    + ([k + i] if rx.radius() <= eps else []))
    slots = list(range(k, k + m))
    rows += [([j] if r.radius() <= eps else []) + slots for j, r in enumerate(rects)]
    match = saturates(rows, m + k, [len(row) for row in rows], range(m + k))
    if match is None:
        return None
    pairs = [(match[j], j) for j in range(k) if match[j] < m]
    return {(i, j): 1 for i, j in pairs}, {(j, i): 1 for i, j in pairs}
