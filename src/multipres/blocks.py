"""Interlevel-set blocks and their finitely presented rectangle extensions.

A block is one of four interval shapes on the half-plane poset, written
oo/co/oc/cc for (a,b), [a,b), (a,b], [a,b].  Each extends to a product
rectangle in the plane with one generator and at most two relations:

    oo (a,b)  ->  [-b,-a) x [a, b)
    co [a,b)  ->  [-b, oo) x [a, b)
    oc (a,b]  ->  [-b, a ) x [a, oo)
    cc [a,b]  ->  [-b, oo) x [a, oo)

Lists of blocks become direct sums of rectangle presentations.  The
block-matching interleaving distance pairs same-kind blocks that shift onto
each other and deletes the rest at their rectangles' radii.  One probe, a
perfect matching with deletion slots at a threshold, gives both the
distance (the least threshold it accepts) and the shift/deletion witness
at a threshold (its matched pairs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .grades import Grade, rat, rat_str
from .metrics import saturates
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


class _SlotMatching:
    """Perfect matchings of two block lists with deletion slots, by threshold.

    Left vertices are A's blocks and one slot per B block; right vertices
    are B's blocks and one slot per A block.  At eps, A[i] meets B[j] when
    their rectangles shift onto each other within eps, a block meets its
    own slot when its deletion radius is <= eps, and slots meet slots.  A
    pair within rectangle_distance only by the radii is two deletions, so a
    perfect matching exists exactly when eps >= block_matching_distance.
    The shifts and radii are computed once.
    """

    def __init__(self, A: list[Block], B: list[Block]):
        ra, rb = [extend_block(x) for x in A], [extend_block(y) for y in B]
        self.shifts = [[rectangle_shift(x, y) for y in rb] for x in ra]
        self.radii = [r.radius() for r in ra], [r.radius() for r in rb]

    def matching(self, eps) -> list[int] | None:
        """The left vertex matched to each right vertex at eps, or None."""
        left, right = self.radii
        m, k = len(left), len(right)
        rows = [[j for j, s in enumerate(row) if s <= eps] + ([k + i] if left[i] <= eps else [])
                for i, row in enumerate(self.shifts)]
        slots = list(range(k, k + m))
        rows += [([j] if r <= eps else []) + slots for j, r in enumerate(right)]
        return saturates(rows, m + k, range(m + k))


def block_matching_distance(A: list[Block], B: list[Block]):
    """Least eps with a slot matching; INF when there is none.

    The distance is 0, a shift or a radius, so the probe bisects those.
    """
    probe = _SlotMatching(A, B)
    costs = [c for row in probe.shifts for c in row] + [r for side in probe.radii for r in side]
    cands = sorted({0} | {c for c in costs if c != INF})
    if probe.matching(cands[-1]) is None:
        return INF
    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if probe.matching(cands[mid]) is None:
            lo = mid + 1
        else:
            hi = mid
    return cands[lo]


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

    The block pairs of the slot matching at eps; None when there is none,
    i.e. eps < block_matching_distance.
    """
    match = _SlotMatching(A, B).matching(eps)
    if match is None:
        return None
    pairs = [(match[j], j) for j in range(len(B)) if match[j] < len(A)]
    return {(i, j): 1 for i, j in pairs}, {(j, i): 1 for i, j in pairs}
