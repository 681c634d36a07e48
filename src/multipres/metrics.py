"""Distances, interleaving checks and the local-equivalence experiment.

The exact bottleneck distance between barcodes is a min-max assignment with
deletions (infinite bars may only match infinite bars).  It is solved in
doubled units of the lcm of two Barcodes' scales, where a matched pair
costs 2 * l-infinity and a deletion d - b, on the distinct bars with their
counts.  One matcher tests feasibility at a threshold without a cost
matrix (cover_within), and the exact distance bisects the integer
thresholds with it; only the distance returned is a Fraction.  Bars come
in one canonical form, so two equal multisets are two equal lists, at
distance 0 with no matching.

The matching distance is approximated from below by sampling weighted
lines, always including the slope-1 lines through every Betti-grid point of
both modules, which witness diagonal translates exactly.  Each module is
minimized once (Presentation.minimal), and matching_distance scales the
minimal forms' grades to integers once.  Lines are held in integer units,
grouped by direction (fibered.LineSample), and a LineSpec is built only for
the reported argmax.  One loop, _best_line, evaluates every line: the
sample, and each adaptive round's refinement around the argmax
(_refine_near).  Per line it runs fibered.restrict, barcode and the probe
on Python ints in the line's own units, one pass from the pushes to the
bottleneck value; the two views' template memos reduce each generator and
relation order once per call.  A line is first probed at the floor of
best * 2L / w(L): if the bottleneck is feasible there, the line cannot
raise the maximum and is skipped.  Only the reported value becomes a
Fraction again.

When both inputs have the same field, parameter count, generator count and
relation columns, the identity on generator indices is an eps-interleaving,
with eps the largest l-infinity gap between matching grades
(identity_bound).  Then d_0 <= d_I <= eps bounds every line, and the loop
stops once the maximum reaches eps: later lines could only tie it.  The
value and the argmax are those of the full walk; the lines row of the CLI
still counts the lines sampled, not the lines evaluated.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .fibered import Barcode, LineGroup, LineSample, barcode, integer_lines, restrict
from .functors import InterleavingWitness, apply_rows
from .grades import Grade, LineSpec, grade_text, rat, rat_dec, rat_str
from .presentation import (
    Presentation,
    PresentationError,
    ScaledModule,
    betti_and_grid,
    bits,
    common_scale,
    leq,
    minimal_elements,
    rescaled,
    scale_grade,
)

INF = math.inf


# -- min-max assignment with deletions ------------------------------------------


def _in_order_gap(xs, ys):
    """The largest |u - v| over two sorted multisets paired in order, each
    given as (value, count) runs; INF when their sizes differ."""
    gap, m, n, xs, ys = 0, 0, 0, iter(xs), iter(ys)
    while True:
        if not m:
            u, m = next(xs, (0, 0))
        if not n:
            v, n = next(ys, (0, 0))
        if not (m and n):
            return gap if m == n else INF
        gap, k = max(gap, abs(u - v)), min(m, n)
        m, n = m - k, n - k


def _augmenting_path(root, held, room, side, other, h: int):
    """A shortest path [root, v1, w1, ..., vk] to move copies along, or None:
    root takes copies on v1, each w_i moves copies from v_i (held[v_i][w_i])
    to v_(i+1), and vk has room.  Breadth first over cover_within's box
    query; every bar is reached once.
    """
    births, deaths, others, other_deaths = side[0], side[1], other[0], other[1]
    came = {}  # bar of other -> the must bar that reached it
    via = {root: None}  # must bar -> the full bar of other it was reached through
    queue = [root]
    for w in queue:
        b, d = births[w], deaths[w]
        for v in range(bisect_left(others, b - h), bisect_right(others, b + h)):
            if v in came or not d - h <= other_deaths[v] <= d + h:
                continue
            came[v] = w
            if room[v]:
                path = [v, w]
                while via[w] is not None:
                    v, w = via[w], came[via[w]]
                    path += (v, w)
                return path[::-1]
            for x, copies in held[v].items():
                if copies and x not in via:
                    via[x] = v
                    queue.append(x)
    return None


def cover_within(side, must, other, h: int) -> bool:
    """Can each bar u in must place its counts[u] copies on bars of other
    within h in both coordinates, each bar of other taking at most its
    count?  Bars are (births, deaths, counts) lists, other's sorted by birth.

    Each must bar first takes room on its neighbours, found by bisecting
    other's births past the prefix of full bars and filtering on the death.
    The rest moves along augmenting paths over the same box query, backed
    by the logged placements (_augmenting_path); a bar left with no path
    ends the probe, as the bars its search reached violate Hall's condition.
    """
    births, deaths, counts = side
    others, other_deaths = other[0], other[1]
    room = other[2] + [1]  # the last entry ends the prefix of full bars
    log, short, first = [], [], 0
    for u in must:
        b, d, r = births[u], deaths[u], counts[u]
        while not room[first]:
            first += 1
        v, stop = bisect_left(others, b - h, first), bisect_right(others, b + h)
        while v < stop:
            k = room[v]
            if k and d - h <= other_deaths[v] <= d + h:
                k = k if k < r else r
                room[v] -= k
                r -= k
                log.append((u, v, k))
                if not r:
                    break
            v += 1
        else:
            short.append((u, r))
    if not short:
        return True
    held = defaultdict(Counter)  # bar of other -> {must bar: copies on it}
    for u, v, k in log:
        held[v][u] = k
    for root, r in short:
        while r:
            path = _augmenting_path(root, held, room, side, other, h)
            if path is None:
                return False
            moves = list(zip(path[1:-1:2], path[2::2]))  # (v_i, w_i): w_i leaves v_i
            k = min([r, room[path[-1]]] + [held[v][w] for v, w in moves])
            room[path[-1]] -= k
            r -= k
            for w, v in zip(path[::2], path[1::2]):
                held[v][w] += k
            for v, w in moves:
                held[v][w] -= k
    return True


class _Bars:
    """The bottleneck problem of two integer bar lists, in doubled units.

    Each list comes as fibered.pair_bars returns it, the infinite births
    as (birth, count) runs.  Costs are 2 * l-infinity and a finite bar's
    deletion is d - b, so every candidate is an integer.  Infinite bars
    must match infinite bars, which on the line is optimal in sorted order
    and gives the lower bound low (INF when their totals differ).  The
    order among equal births only relabels bars.  Two equal lists are one
    multiset, feasible at every c >= 0 with no matching: pair_bars and
    Barcode keep their bars in one canonical form, so two fibers that agree
    and a barcode against itself cost one comparison.

    A threshold c is feasible when some partial matching uses only costs
    <= c and leaves unmatched only bars whose deletion is <= c.  By the
    Mendelsohn-Dulmage theorem that holds exactly when every copy of the
    first side's bars with deletion > c can be matched, and so can those of
    the second side, each side on its own: two cover_within probes with
    h = c // 2 (after Kerber, Morozov and Nigmetov, "Geometry helps to
    compare persistence diagrams", JEA 2017).  Feasibility is monotone in
    c, so least_above bisects it with the same probe.
    """

    def __init__(self, xs, ys):
        self.sides = (xs[:3], ys[:3])
        self.low = 2 * _in_order_gap(xs[3], ys[3])
        self.equal = self.sides[0] == self.sides[1] and xs[3] == ys[3]

    def at_most(self, c: int) -> bool:
        """Is the distance <= c?"""
        if self.low > c:
            return False
        if self.equal:
            return True
        for side, other in (self.sides, self.sides[::-1]):
            must = [u for u, b, d in zip(itertools.count(), side[0], side[1]) if d - b > c]
            if must and not cover_within(side, must, other, c // 2):
                return False
        return True

    def least_above(self, floor: int):
        """The distance, known to be > floor (floor -1 always holds)."""
        if self.low == INF:
            return INF
        lo = max(floor + 1, self.low)
        # deleting every finite bar is feasible once c covers each deletion
        hi = max([lo] + [d - b for births, deaths, _ in self.sides for b, d in zip(births, deaths)])
        return least(self.at_most, lo, hi)


def least(probe, lo: int, hi: int) -> int:
    """The least c in [lo, hi] at which a monotone probe holds; it holds at hi."""
    while lo < hi:
        mid = (lo + hi) // 2
        if probe(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _scaled_bars(B1: Barcode, B2: Barcode):
    """Both barcodes' distinct bars with their multiplicities, as integers at
    the lcm of their scales (an INF death times a factor stays INF)."""
    scale = math.lcm(B1.scale, B2.scale)
    sides = [[(b * f, d * f, m) for b, d, m in B.bars] for B, f in ((B1, scale // B1.scale), (B2, scale // B2.scale))]
    split = [[[bar[i] for bar in bars if bar[1] != INF] for i in range(3)] + [[(b, m) for b, d, m in bars if d == INF]]
             for bars in sides]
    return _Bars(*split), scale


def bottleneck(B1: Barcode, B2: Barcode):
    """Exact bottleneck distance between barcode multisets.

    Minimum over partial matchings of the max of matched l-infinity costs
    and unmatched half-lengths; infinite bars must match infinite bars, so
    mismatched infinite multiplicities give INF.  Solved in integer units.
    """
    bars, scale = _scaled_bars(B1, B2)
    c = bars.least_above(-1)
    return c if c == INF else Fraction(c, 2 * scale)


def bottleneck_at_most(B1: Barcode, B2: Barcode, c) -> bool:
    """Single feasibility probe: is the bottleneck distance <= c?"""
    if c == INF:
        return True
    bars, scale = _scaled_bars(B1, B2)
    return bars.at_most(math.floor(2 * scale * rat(c)))


# -- line sampling ----------------------------------------------------------------


def _mediant_slopes(count: int) -> list[Fraction]:
    """Log-spaced rational slopes in [1/16, 16] by mediant subdivision.

    Subdivides until at least `count` slopes exist (slope 1 always present).
    """
    if count <= 1:
        return [Fraction(1)]
    slopes = [Fraction(1, 16), Fraction(1), Fraction(16)]
    while len(slopes) < count:
        refined = [slopes[0]]
        for a, b in zip(slopes, slopes[1:]):
            refined.append(Fraction(a.numerator + b.numerator, a.denominator + b.denominator))
            refined.append(b)
        slopes = refined
    return slopes


def _direction_for_slope(m: Fraction) -> tuple[Fraction, Fraction]:
    if m >= 1:
        return (Fraction(1) / m, Fraction(1))
    return (Fraction(1), m)


def _anchor_points(minimal: Sequence[Presentation], scale: int, grid_limit: int) -> list[tuple[int, ...]]:
    """The Betti grades of minimal presentations, plus the points of each one's
    Betti grid with at most grid_limit points, times scale, in lex order."""
    pts: set[tuple[int, ...]] = set()
    for M in minimal:
        betti = set(rescaled(M.scaled_gens + M.scaled_rels, scale // M.scale))
        axes = [sorted({a[i] for a in betti}) for i in range(M.n)]
        pts |= betti
        if 0 < math.prod(map(len, axes)) <= grid_limit:
            pts |= set(itertools.product(*axes))
    return sorted(pts)


def sample_lines(P: Presentation, Q: Presentation, slopes: int = 64,
                 seed: int | None = None, extra: int = 0) -> LineSample:
    """Grid sample anchored at both modules' Betti data.

    Slope-1 lines through every Betti-grid point of both modules are always
    present (they witness diagonal translates exactly).  For 2-parameter
    modules a mediant-spaced slope grid is crossed with offsets through
    every Betti point, midpoints between consecutive offsets, and the
    padded bounding-box edges.  A seed appends extra jittered lines
    reproducibly; extra lines without a seed, and a seed without extra
    lines, are refused.  The Betti data come from P.minimal and Q.minimal,
    which matching_distance then reuses for its line loop.

    Every line is built in integer units.  With S the common scale of the
    anchors and X, Y their scaled coordinates, a line of slope a/b has the
    base offset x - y b/a, an integer 2(X a - Y b) in units of 1/(2 S a),
    and so are the midpoints and the padded edges; the slope-1 line through
    an anchor has base offsets 2(X_i - X_n) in units of 1/(2 S), and an
    extra line of direction r through a jittered anchor has them in units
    of 1/(128 S r_n).  A direction's lines share one denominator, the lcm
    of its units; they are deduplicated and sorted on these integers, and
    the directions are sorted, which is the order of (direction, base).
    """
    if P.n != Q.n or P.p != Q.p:
        raise PresentationError("matching distance needs matching dimension and field")
    if extra and seed is None:
        raise ValueError("extra jittered lines need a seed (--seed)")
    if seed is not None and not extra:
        raise ValueError("a seed needs extra jittered lines (--extra)")
    n, minimal = P.n, (P.minimal, Q.minimal)
    scale = math.lcm(P.minimal.scale, Q.minimal.scale)
    points = _anchor_points(minimal, scale, 0) or [(0,) * n]
    anchors = _anchor_points(minimal, scale, 64) or points
    # direction -> denominator -> integer bases
    found: dict[tuple, dict[int, set[tuple[int, ...]]]] = {}

    def add(direction, den: int, bases) -> None:
        found.setdefault(direction, {}).setdefault(den, set()).update(bases)

    add((Fraction(1),) * n, 2 * scale,
        {tuple(2 * (c - g[-1]) for c in g[:-1]) for g in anchors})
    if n == 2:
        # pad times the scale: the bounding box's l-infinity diameter, or 1
        pad = max(max(g[i] for g in points) - min(g[i] for g in points) for i in range(n)) or scale
        for m in _mediant_slopes(slopes):
            a, b = m.numerator, m.denominator
            offsets = sorted({2 * (x * a - y * b) for x, y in points})
            mids = [(u + v) // 2 for u, v in zip(offsets, offsets[1:])]
            edges = [offsets[0] - 2 * a * pad, offsets[-1] + 2 * a * pad]
            add(_direction_for_slope(m), 2 * scale * a, [(o,) for o in offsets + mids + edges])
    if extra:
        rng = random.Random(seed)
        for _ in range(extra):
            r = [rng.randint(1, 64) for _ in range(n)]
            anchor = points[rng.randrange(len(points))]
            # 128 S times the jittered anchor, and the line through it with direction r
            jitter = [128 * c + scale * rng.randint(-64, 64) for c in anchor]
            top = max(r)
            add(tuple(Fraction(c, top) for c in r), 128 * scale * r[-1],
                [tuple(jitter[i] * r[-1] - jitter[-1] * r[i] for i in range(n - 1))])
    groups = []
    for direction in sorted(found):
        by_den = found[direction]
        den = math.lcm(*by_den)
        bases: set[tuple[int, ...]] = set()
        for d, ks in by_den.items():
            f = den // d
            bases |= ks if f == 1 else {tuple(c * f for c in k) for k in ks}
        groups.append(LineGroup(direction, den, tuple(sorted(bases))))
    return LineSample(tuple(groups))


@dataclass(frozen=True)
class DistanceReport:
    value: object  # exact rational or INF
    argmax_line: LineSpec | None
    kind: str  # lower_bound


def identity_bound(P: Presentation, Q: Presentation) -> Fraction | None:
    """The eps of the identity interleaving of P and Q, or None when there is none.

    When P and Q have the same n, p, generator count and relation columns,
    the identity on generator indices, both ways, is an eps-interleaving for
    eps the largest l-infinity gap between matching generator grades and
    matching relation grades: each side's generator i and relation k lie
    within eps of the other's.  So d_0(P, Q) <= d_I(P, Q) <= eps, and no
    line gives w(L) * d_B > eps.
    """
    if (P.n, P.p, len(P.scaled_gens), P.cols) != (Q.n, Q.p, len(Q.scaled_gens), Q.cols):
        return None
    scale = math.lcm(P.scale, Q.scale)
    pairs = zip(rescaled(P.scaled_gens + P.scaled_rels, scale // P.scale),
                rescaled(Q.scaled_gens + Q.scaled_rels, scale // Q.scale))
    return Fraction(max((abs(x - y) for a, b in pairs for x, y in zip(a, b)), default=0), scale)


def _best_line(views: Sequence[ScaledModule], sample: LineSample, best, upper):
    """The maximum of best and w(L) * d_B over the sample's lines, with the
    first line that attains it as (group, base), or None when no line beats
    best.  upper, INF or identity_bound, bounds every line's value, so the
    walk returns as soon as best reaches it: no later line could beat best.

    This is the one place lines are evaluated.  views are two modules'
    minimal forms scaled by one S, and each line is evaluated as an
    IntegerLine of its group in the units of S, from the pushes to the
    bottleneck value in Python ints.  The bottleneck is first probed at
    floor(best * 2L / w(L)) in doubled units: if it is feasible there, the
    line cannot beat best and is skipped.  A group shares L and w, so the
    floor is computed once per group and is c after a line beats best with
    c.  Only the returned value is a Fraction.
    """
    top = None
    first, second = views
    if best >= upper:
        return best, None
    for group in sample.groups:
        w = min(group.direction)
        floor = None
        for k, units in zip(group.bases, integer_lines(group.direction, group.denominator,
                                                       group.bases, views[0].scale)):
            if floor is None:
                floor = best.numerator * 2 * units.unit * w.denominator // (best.denominator * w.numerator)
            bars = _Bars(barcode(restrict(first, units)), barcode(restrict(second, units)))
            if not bars.at_most(floor):
                floor = bars.least_above(floor)
                top = group, k
                best = INF if floor == INF else w * Fraction(floor, 2 * units.unit)
                if best >= upper:
                    return best, top
    return best, top


def _refine_near(group: LineGroup, k: tuple[int, ...], anchors, scale: int) -> list[LineGroup]:
    """Halved local slope/offset grid around the 2-d line (group, k).

    One group per slope 3/4, 7/8, 9/8 and 5/4 times the line's, of the lines
    through every anchor in order, then the line's own group moved by -1/2,
    -1/4, 1/4 and 1/2 along the first axis.  The anchors are integer points
    at scale S, so a line of slope a/b through one has the base offset
    X a - Y b in units of 1/(S a), as in sample_lines.
    """
    if len(group.direction) != 2:
        return []
    dx, dy = group.direction
    out = []
    for factor in (Fraction(3, 4), Fraction(7, 8), Fraction(9, 8), Fraction(5, 4)):
        m = dy / dx * factor
        a, b = m.numerator, m.denominator
        out.append(LineGroup(_direction_for_slope(m), scale * a, tuple((x * a - y * b,) for x, y in anchors)))
    den = group.denominator
    out.append(LineGroup(group.direction, 4 * den, tuple((4 * k[0] + s * den,) for s in (-2, -1, 1, 2))))
    return out


def matching_distance(P: Presentation, Q: Presentation, sample: LineSample | None = None,
                      slopes: int = 16, adaptive_rounds: int = 0) -> DistanceReport:
    """Sampled matching distance: max over lines of w(L) * d_B of restrictions.

    A lower bound for the true supremum (and hence for the interleaving
    distance); adding lines never decreases it.  The weighted bottleneck on
    a line is an invariant of the modules, so both minimal forms are scaled
    to integers once and _best_line evaluates the sample on them.  Each
    adaptive round evaluates the refinement around the current argmax in
    the same way, against the running maximum; the rounds stop early when
    there is no refinement (n != 2) or no refined line beats the maximum.

    When P and Q share their matrix, the identity interleaving bounds every
    line by eps = identity_bound(P, Q), since d_0 <= d_I <= eps.  The sample
    and each round then stop at the first line whose value reaches eps.
    The value and the argmax are those of evaluating every line; only the
    number of lines evaluated falls, and the lines row of the CLI still
    counts the lines sampled.
    """
    if P.n != Q.n or P.p != Q.p:
        raise PresentationError("matching distance needs matching dimension and field")
    if sample is None:
        sample = sample_lines(P, Q, slopes=slopes)
    scale = math.lcm(P.minimal.scale, Q.minimal.scale)
    views = (ScaledModule(P.minimal, scale), ScaledModule(Q.minimal, scale))
    upper = identity_bound(P, Q)
    upper = INF if upper is None else upper
    best, top = _best_line(views, sample, Fraction(0), upper)
    if adaptive_rounds and top is not None:
        anchors = _anchor_points((P.minimal, Q.minimal), scale, 0)
        for _ in range(adaptive_rounds):
            refined = _refine_near(*top, anchors, scale)
            if not refined:
                break
            best, line = _best_line(views, LineSample(tuple(refined)), best, upper)
            if line is None:
                break
            top = line
    return DistanceReport(best, None if top is None else top[0].line(top[1]), "lower_bound")


# -- witness verification -----------------------------------------------------------


@dataclass(frozen=True)
class VerifyReport:
    accepted: bool
    epsilon: Fraction
    reason: str | None = None

    def render(self) -> str:
        if self.accepted:
            return f"accept at epsilon {rat_str(self.epsilon)}"
        return f"reject at epsilon {rat_str(self.epsilon)}: {self.reason}"


def verify_interleaving(P: Presentation, Q: Presentation, w: InterleavingWitness) -> VerifyReport:
    """Accept iff w is a genuine epsilon-interleaving between P and Q.

    Checks, in order: entry sanity and grade compatibility, relations of
    each side landing in the other's relation submodule at the shifted
    grade, and both compositions agreeing with the 2-eps internal
    translation modulo relations.  The report names the first failure.
    Grades are compared as integer tuples under one scale that also clears
    eps, and each span test is its side's ScaledModule.in_span.
    """
    eps = rat(w.epsilon)
    if eps < 0:
        return VerifyReport(False, eps, "negative epsilon")
    if P.n != Q.n or P.p != Q.p:
        return VerifyReport(False, eps, "dimension or field mismatch")
    scale = math.lcm(eps.denominator, P.scale, Q.scale)
    VP, VQ = ScaledModule(P, scale), ScaledModule(Q, scale)
    e = (eps * scale).numerator

    def up(grade, times):
        return tuple(v + times * e for v in grade)

    sides = (("f", w.f, P, Q, VP, VQ), ("g", w.g, Q, P, VQ, VP))
    for name, rows, src, dst, vs, vd in sides:
        for i, row in rows.items():
            for j, c in row:
                if not (0 <= i < len(src.labels) and 0 <= j < len(dst.labels)):
                    return VerifyReport(False, eps, f"{name} entry ({i},{j}) out of range")
                if not 0 < c < P.p:
                    return VerifyReport(False, eps, f"{name} coefficient {c} out of range")
                if not leq(vd.gens[j], up(vs.gens[i], 1)):
                    return VerifyReport(False, eps, f"{name} entry {src.labels[i]} -> {dst.labels[j]} violates grades")
    for name, rows, src, dst, vs, vd in sides:
        for k, (a, col) in enumerate(vs.rels):
            image = apply_rows(rows, col, P.p)
            if not vd.in_span(image, up(a, 1)):
                (grade,) = grade_text([src.scaled_rels[k]], src.scale)
                return VerifyReport(False, eps,
                                    f"{name} sends relation {k} (grade {grade}) outside the relation submodule")
    for name, first, second, side, view in (("g.f", w.f, w.g, P, VP), ("f.g", w.g, w.f, Q, VQ)):
        for i, label in enumerate(side.labels):
            vec = apply_rows(second, apply_rows(first, {i: 1}, P.p), P.p)
            vec[i] = (vec.get(i, 0) - 1) % P.p
            if not vec[i]:
                del vec[i]
            if not view.in_span(vec, up(view.gens[i], 2)):
                return VerifyReport(False, eps, f"coherence {name} fails at generator {label}")
    return VerifyReport(True, eps)


# -- rank-condition lower bound ------------------------------------------------------


def _interval_probes(M: ScaledModule, top: tuple[int, int]) -> list[tuple[list, list]]:
    """Staircase intervals read off a minimal presentation, in scaled grades.

    One per block (ScaledModule.blocks) that has a relation on two or more
    generators: its births are the block's minimal generator grades, its
    deaths the minimal grades of its single-generator relations plus two
    corners that close it at top.
    """
    out = []
    for gens, rels in M.blocks:
        rels = [M.rels[k] for k in bits(rels)]
        if all(len(col) < 2 for _, col in rels):
            continue
        births = minimal_elements(M.gens[i] for i in bits(gens))
        x0, y0 = births[0][0], births[-1][1]
        singles = [g for g, col in rels if len(col) == 1]
        out.append((births, minimal_elements(singles + [(x0, top[1]), (top[0], y0)])))
    return out


def _rank_violation(views: Sequence[ScaledModule], points: Sequence[tuple[int, ...]],
                    intervals: Sequence[tuple], e: int) -> bool:
    """Does some probe rule out an interleaving at the scaled epsilon e?

    Point probes come first; the interval probes are consulted only when
    none of them violates.  rank(M_a -> M_{a+2e}) is at most #generators
    <= a and dim M_{a+2e}, so it is computed only when neither count
    settles the check against dim N_{a+e}.
    """
    for a in points:
        up = tuple(c + 2 * e for c in a)
        mid = tuple(c + e for c in a)
        for M, N in (views, views[::-1]):
            gens = M.gens_below(a).bit_count()
            if gens and gens > (bound := N.dim(mid)) and M.dim(up) > bound and M.rank_between(a, up) > bound:
                return True
    for src, births, deaths, r in intervals:
        eroded = views[1 - src].interval_rank([(x + e, y + e) for x, y in births],
                                              [(x - e, y - e) for x, y in deaths])
        if eroded is not None and r > eroded:
            return True
    return False


def rank_lower_bound(P: Presentation, Q: Presentation,
                     probes: Iterable[Grade] | None = None) -> DistanceReport:
    """Certified interleaving-distance lower bound from rank conditions.

    Point probes: an eps-interleaving forces rank(M_a -> M_{a+2eps}) <= dim
    N_{a+eps} and symmetrically.  The probe points a are the Betti grades of
    both minimal presentations (and their grid points when the grid is
    small), plus the given probes, if any.  These are functions of the rank
    invariant, so they cannot tell apart modules that share it.  Interval
    probes (2 parameters): for a staircase interval K, an eps-interleaving
    forces rk_M(K) <= rk_N(K eroded by eps) whenever the erosion
    up(B + eps) minus up(D - eps) is nonempty and connected, and
    symmetrically (generalized rank, see presentation.interval_rank).  The
    probes K are read off both minimal presentations (_interval_probes).
    On the incompleteness pair the union of the two rectangles is such a
    probe; the bound is 1, and with the shipped witness d_I(N, O) is
    certified in [1, 1].

    The bound is the largest eps0, from the halved and whole coordinate
    differences of both Betti grids and all probe corners, below which some
    probe violates its condition everywhere, scanned in increasing order as
    _differences streams them.  The sweep runs on the minimal forms
    (P.minimal, Q.minimal), with grades scaled to integers.
    """
    if P.n != Q.n or P.p != Q.p:
        raise PresentationError("rank bound needs matching dimension and field")
    probes = sorted(probes or (), key=lambda g: g.lex_key())
    for a in probes:
        if a.n != P.n:
            raise PresentationError(f"probe ({a}) has dimension {a.n}, expected {P.n}")
    # quarter units: candidates include halved differences, and their midpoints
    scale = 4 * math.lcm(P.minimal.scale, Q.minimal.scale, common_scale(c for a in probes for c in a.coords))
    views = [ScaledModule(M.minimal, scale) for M in (P, Q)]
    points = sorted(set(_anchor_points((P.minimal, Q.minimal), scale, 128)) | {scale_grade(a, scale) for a in probes})
    betti_points = [a for M in views for a in M.gens + [r for r, _ in M.rels]]
    intervals = []
    if P.n == 2 and betti_points:
        axes = list(zip(*betti_points))
        pad = max(max(x) - min(x) for x in axes) or scale
        top = tuple(max(x) + pad for x in axes)
        for src, M in enumerate(views):
            for births, deaths in _interval_probes(M, top):
                r = M.interval_rank(births, deaths)
                if r:
                    intervals.append((src, births, deaths, r))
    if not points and not intervals:
        return DistanceReport(Fraction(0), None, "lower_bound")
    corners = points + [q for _, births, deaths, _ in intervals for q in births + deaths]

    def report(e):
        return DistanceReport(e if e == INF else Fraction(e, scale), None, "lower_bound")

    if not _rank_violation(views, points, intervals, 0):
        return report(0)
    prev = 0
    for c in _differences(zip(*corners)):
        if not _rank_violation(views, points, intervals, (prev + c) // 2):
            return report(prev)
        if not _rank_violation(views, points, intervals, c):
            return report(c)
        prev = c
    if _rank_violation(views, points, intervals, prev + scale):
        return report(INF)
    return report(prev)


def _differences(axes: Iterable[Sequence[int]]):
    """Each positive w - v and (w - v) // 2 over values v < w of one axis, in increasing
    order, from a heap of one pair (v, w) per value v and kind (whole or halved)."""
    heap = [((xs[a + 1] - xs[a]) >> half, half, k, a, a + 1, xs)
            for k, xs in enumerate(sorted(set(axis)) for axis in axes) for a in range(len(xs) - 1) for half in (0, 1)]
    heapq.heapify(heap)
    last = 0
    while heap:
        c, half, k, a, b, xs = heap[0]
        if c > last:
            yield c
            last = c
        if b + 1 < len(xs):
            heapq.heapreplace(heap, ((xs[b + 1] - xs[a]) >> half, half, k, a, b + 1, xs))
        else:
            heapq.heappop(heap)


# -- intrinsic-metric estimate and the local equivalence experiment -------------------


def path_length_d0(path: Sequence[Presentation], slopes: int = 16) -> Fraction:
    """Sum of sampled matching distances over consecutive waypoints.

    A lower bound for the d0-length of any continuous path through them.
    """
    if len(path) < 2:
        raise ValueError("path length needs at least two modules")
    total = Fraction(0)
    for A, B in zip(path, path[1:]):
        total += matching_distance(A, B, slopes=slopes).value
    return total


KAPPA_MAX = Fraction(1, 34)


@dataclass(frozen=True)
class LocalEquivalenceReport:
    kappa: Fraction
    c_m: object
    eps_lower: object
    eps_upper: object
    eps_exact: object  # rational or None
    hypothesis_ok: bool
    hypothesis_note: str
    d0: object
    threshold: object  # kappa * eps-hat, or None
    strict_holds: object  # bool or None
    nonstrict_holds: object
    status: str  # PASS | FAIL | HYPOTHESIS-FAIL

    def render(self) -> str:
        def fmt(x):
            return "unknown" if x is None else rat_dec(x)

        lines = [
            f"kappa              {fmt(self.kappa)}",
            f"controlling const  {fmt(self.c_m)}",
            f"d_I lower bound    {fmt(self.eps_lower)}",
            f"d_I upper bound    {fmt(self.eps_upper)}",
            f"d_I exact          {fmt(self.eps_exact)}",
            f"hypothesis         {'holds' if self.hypothesis_ok else 'FAILS'} ({self.hypothesis_note})",
            f"d0 sampled         {fmt(self.d0)}",
            f"threshold kappa*e  {fmt(self.threshold)}",
            f"d0 >  kappa*eps    {self.strict_holds}",
            f"d0 >= kappa*eps    {self.nonstrict_holds}",
            f"status             {self.status}",
        ]
        return "\n".join(lines)


def local_equivalence_experiment(M: Presentation, N: Presentation, kappa, *,
                                 certified_eps=None, witness: InterleavingWitness | None = None,
                                 slopes: int = 16) -> LocalEquivalenceReport:
    """Check d0(M, N) > kappa * eps under eps < c_M / (2 (34 kappa + 1)).

    eps-hat is the certified value when one is supplied, and must lie in
    [rank lower bound, accepted witness's epsilon], else ValueError;
    otherwise that interval is used.  A hypothesis failure is reported,
    never silently passed.  The sampled d0 under-approximates the supremum,
    so PASS is sound while FAIL only means the sampling found no witness line.
    """
    k = rat(kappa)
    if not (0 <= k < KAPPA_MAX):
        raise ValueError(f"kappa must lie in [0, 1/34), got {k}")
    c_m = betti_and_grid(M).c
    lower = rank_lower_bound(M, N).value
    upper = None
    if witness is not None and verify_interleaving(M, N, witness).accepted:
        upper = rat(witness.epsilon)
    exact = None
    if certified_eps is not None:
        exact = rat(certified_eps)
        if exact < lower or upper is not None and exact > upper:
            raise ValueError(f"certified eps {rat_str(exact)} lies outside the verified interval "
                             f"[{rat_str(lower)}, {rat_str(INF if upper is None else upper)}]")
    elif upper is not None and upper == lower:
        exact = upper
    eps_hat = exact if exact is not None else upper
    if eps_hat is None:
        hyp_ok = False
        note = "no certified interleaving estimate; inequality not claimed for this pair"
    else:
        bound = c_m / (2 * (34 * k + 1)) if c_m != INF else INF
        hyp_ok = eps_hat < bound
        note = (
            f"eps {rat_str(eps_hat)} vs c_M/(2(34k+1)) {rat_str(bound)}"
            if c_m != INF else f"c_M infinite, any eps qualifies"
        )
    d0 = matching_distance(M, N, slopes=slopes).value
    threshold = None if eps_hat is None else k * eps_hat
    strict = None if threshold is None else d0 > threshold
    nonstrict = None if threshold is None else d0 >= threshold
    status = ("PASS" if strict else "FAIL") if hyp_ok else "HYPOTHESIS-FAIL"
    return LocalEquivalenceReport(
        kappa=k, c_m=c_m, eps_lower=lower, eps_upper=upper, eps_exact=exact,
        hypothesis_ok=hyp_ok, hypothesis_note=note, d0=d0, threshold=threshold,
        strict_holds=strict, nonstrict_holds=nonstrict, status=status,
    )
