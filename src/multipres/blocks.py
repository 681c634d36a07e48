"""Interlevel-set blocks and their finitely presented rectangle extensions.

A block is one of four interval shapes on the half-plane poset, written
oo/co/oc/cc for (a,b), [a,b), (a,b], [a,b].  Each extends to a product
rectangle in the plane with one generator and at most two relations:

    oo (a,b)  ->  [-b,-a) x [a, b)
    co [a,b)  ->  [-b, oo) x [a, b)
    oc (a,b]  ->  [-b, a ) x [a, oo)
    cc [a,b]  ->  [-b, oo) x [a, oo)

The block-matching interleaving distance pairs same-kind blocks that shift
onto each other and deletes the rest at their rectangles' radii.  The distance
bisects the bottleneck probe over the blocks' endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .grades import Grade, rat, rat_str
from .metrics import cover_within, least
from .presentation import common_scale

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
        # the extension's finite sides are b - a (oo, co) and a + b (oc)
        if kind in ("oo", "co") and aq == bq or kind == "oc" and aq + bq <= 0:
            need = "a + b > 0" if kind == "oc" else "a < b"
            raise ValueError(f"empty block {kind}({rat_str(aq)}, {rat_str(bq)}): its extension needs {need}")
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
    upper = {"oo": (-a, b), "co": (INF, b), "oc": (a, INF), "cc": (INF, INF)}[blk.kind]
    return ExtendedRectangle(Grade([-b, a]), upper)


def block_matching_distance(A: list[Block], B: list[Block]):
    """Least eps at which each list's blocks of radius > eps can be shifted
    within eps onto distinct blocks of the other list; INF when never.

    By the Mendelsohn-Dulmage theorem the two one-sided matchings join into
    one that deletes only blocks of radius <= eps.  Blocks of one kind shift
    by the l-infinity distance of their endpoints (a, b), and never onto
    another kind, so the probe is metrics.cover_within on each kind's
    endpoints times S, every block a bar of count 1: one copy to place,
    room for one.  The distance is 0, a shift or a radius: an integer in
    units of 1/S, at most the largest finite radius or endpoint gap.
    """
    scale = 2 * common_scale(c for x in A + B for c in (x.a, x.b))

    def points(blocks, kind):
        """The kind's blocks in order of a: scaled endpoints (a's, b's), a count of 1 each, and radii."""
        own = sorted((x for x in blocks if x.kind == kind), key=lambda x: x.a)
        return (([int(x.a * scale) for x in own], [int(x.b * scale) for x in own], [1] * len(own)),
                [r if r == INF else int(r * scale) for r in (extend_block(x).radius() for x in own)])

    sides = [[points(blocks, kind) for kind in KINDS] for blocks in (A, B)]

    def feasible(e: int) -> bool:
        return all(cover_within(side, [u for u, r in enumerate(radii) if r > e], near, e)
                   for one, other in (sides, sides[::-1]) for (side, radii), (near, _) in zip(one, other))

    ends = [c for per in sides for (a, b, _), _ in per for c in a + b]
    hi = max([r for per in sides for _, radii in per for r in radii if r != INF]
             + [max(ends, default=0) - min(ends, default=0)])
    return Fraction(least(feasible, 0, hi), scale) if feasible(hi) else INF


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
