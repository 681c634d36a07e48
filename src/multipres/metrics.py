"""Distances, interleaving checks and the local-equivalence experiment.

The exact bottleneck distance between barcodes is a min-max assignment with
deletions (infinite bars may only match infinite bars).  One routine solves
it in doubled integer units, where a matched pair costs 2 * l-infinity and
a deletion d - b: it builds the cost matrix once, tests feasibility at a
threshold by augmenting paths (a greedy pass, then an explicit stack), and
binary-searches the finite candidate costs.

The matching distance is approximated from below by sampling weighted
lines, always including the slope-1 lines through every Betti-grid point of
both modules, which witness diagonal translates exactly.  sample_lines
computes each module's Betti data once, and matching_distance scales each
module's grades to integers once; every line then runs on Python ints in
its own units (fibered.IntegerLine, with restrict and barcode in their
integer form), from the pushes through the bar pairing to the bottleneck
value.  A line is first probed at the floor of best * 2L / w(L):
if the bottleneck is feasible there, the line cannot raise the maximum and
is skipped.  Only the reported value becomes a Fraction again.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import kernels
from .fibered import Barcode, IntegerLine, barcode, restrict
from .functors import InterleavingWitness
from .grades import Grade, LineSpec, line_weight, rat, rat_str
from .presentation import (
    BettiData,
    Presentation,
    PresentationError,
    ScaledModule,
    _leq,
    betti_and_grid,
    betti_of_minimal,
    common_scale,
    minimal_elements,
    minimize,
    scale_grade,
)

INF = math.inf


# -- min-max assignment with deletions ------------------------------------------


def _saturates(rows, size: int, limits, must) -> list[int] | None:
    """A matching that covers every left vertex in must, or None if none does.

    rows[u] lists u's right neighbours by increasing cost and limits[u] is how
    many of them are admitted.  A greedy pass matches what it can, then
    augmenting paths are searched depth first with an explicit stack.  The
    matching is returned as match_right: the left vertex matched to each of
    the size right vertices, or -1.
    """
    match_right = [-1] * size
    free = []
    for u in must:
        row = rows[u]
        for k in range(limits[u]):
            v = row[k]
            if match_right[v] < 0:
                match_right[v] = u
                break
        else:
            free.append(u)
    for root in free:
        seen = [False] * size
        stack = [(root, 0)]
        path = []  # path[k]: the right vertex taken out of stack[k]
        while stack:
            u, k = stack[-1]
            row, limit = rows[u], limits[u]
            while k < limit and seen[row[k]]:
                k += 1
            if k == limit:
                stack.pop()
                if path:
                    path.pop()
                continue
            v = row[k]
            seen[v] = True
            stack[-1] = (u, k + 1)
            path.append(v)
            if match_right[v] < 0:
                for (w, _), x in zip(stack, path):
                    match_right[x] = w
                break
            stack.append((match_right[v], 0))
        else:
            return None
    return match_right


class _Assignment:
    """Threshold feasibility for min-max assignment with deletions.

    A threshold c is feasible when some partial matching of left items to
    right items uses only costs <= c and leaves unmatched only items whose
    deletion cost is <= c.  By the Mendelsohn-Dulmage theorem that holds
    exactly when the left items with deletion > c can all be matched, and
    so can the right items with deletion > c, each side on its own.  Every
    row and column is sorted by cost once, so a threshold admits a prefix.
    """

    def __init__(self, cost, del_left, del_right):
        cols = [[row[j] for row in cost] for j in range(len(del_right))]
        # per side: deletion costs, neighbours by increasing cost, those
        # costs, and the number of vertices on the other side
        self.sides = []
        for dels, rows, width in ((del_left, cost, len(del_right)), (del_right, cols, len(del_left))):
            orders = [sorted(range(width), key=row.__getitem__) for row in rows]
            costs = [[row[j] for j in order] for row, order in zip(rows, orders)]
            self.sides.append((dels, orders, costs, width))

    def candidates(self) -> list:
        """Every finite cost and deletion, and 0, in increasing order."""
        cands = {0}
        for dels, _, costs, _ in self.sides:
            cands |= {d for d in dels if d != INF}
            cands |= {c for row in costs for c in row if c != INF}
        return sorted(cands)

    def feasible(self, c) -> bool:
        for dels, orders, costs, width in self.sides:
            must = [i for i, d in enumerate(dels) if d > c]
            if _saturates(orders, width, {i: bisect_right(costs[i], c) for i in must}, must) is None:
                return False
        return True

    def least_feasible(self, ordered):
        """The first feasible threshold of an increasing list; the last must be feasible."""
        lo, hi = 0, len(ordered) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.feasible(ordered[mid]):
                hi = mid
            else:
                lo = mid + 1
        return ordered[lo]


def min_max_assignment(cost, del_left, del_right):
    """Least threshold admitting a partial matching; INF when none exists.

    cost[i][j], del_left[i], del_right[j] are exact rationals or INF.
    """
    problem = _Assignment(cost, del_left, del_right)
    ordered = problem.candidates()
    if not problem.feasible(ordered[-1]):
        return INF
    return problem.least_feasible(ordered)


class _Bars:
    """The bottleneck problem of two integer bar lists, in doubled units.

    Costs are 2 * l-infinity and a finite bar's deletion is d - b, so every
    candidate is an integer.  Infinite bars must match infinite bars, which
    on the line is optimal in sorted order and gives the lower bound low
    (INF when their counts differ); finite bars go through _Assignment, whose
    matrices are built once for a probe and the search after it.
    """

    def __init__(self, xs, ys):
        inf1 = sorted(b for b, d in xs if d == INF)
        inf2 = sorted(b for b, d in ys if d == INF)
        self.low = INF
        if len(inf1) == len(inf2):
            self.low = max((2 * abs(u - v) for u, v in zip(inf1, inf2)), default=0)
            fin1 = [bar for bar in xs if bar[1] != INF]
            fin2 = [bar for bar in ys if bar[1] != INF]
            cost = [[2 * max(abs(b1 - b2), abs(d1 - d2)) for b2, d2 in fin2] for b1, d1 in fin1]
            self.problem = _Assignment(cost, [d - b for b, d in fin1], [d - b for b, d in fin2])

    def at_most(self, c: int) -> bool:
        """Is the distance <= c?"""
        return self.low <= c and self.problem.feasible(c)

    def least_above(self, floor: int):
        """The distance, known to be > floor (floor -1 always holds)."""
        if self.low == INF:
            return INF
        least = max(floor + 1, self.low)
        return self.problem.least_feasible([least] + [c for c in self.problem.candidates() if c > least])


def _scaled_bars(B1: Barcode, B2: Barcode):
    """Both barcodes' bars as integers scaled by the lcm of their denominators."""
    xs, ys = B1.expand(), B2.expand()
    scale = common_scale(c for bar in xs + ys for c in bar if c != INF)

    def scaled(bars):
        return [(int(b * scale), d if d == INF else int(d * scale)) for b, d in bars]

    return _Bars(scaled(xs), scaled(ys)), scale


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


@dataclass(frozen=True)
class LineSample:
    lines: tuple[LineSpec, ...]
    bounds: tuple[Grade, Grade] | None = None

    def __post_init__(self):
        if not self.lines:
            raise ValueError("line sample is empty")


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


def _betti_points(data: Sequence[BettiData]) -> list[Grade]:
    pts: set[Grade] = set()
    for d in data:
        pts |= set(d.xi0) | set(d.xi1)
    return sorted(pts, key=lambda g: g.lex_key())


def sample_lines(P: Presentation, Q: Presentation, slopes: int = 64,
                 seed: int | None = None, extra: int = 0) -> LineSample:
    """Grid sample anchored at both modules' Betti data.

    Slope-1 lines through every Betti-grid point of both modules are always
    present (they witness diagonal translates exactly).  For 2-parameter
    modules a mediant-spaced slope grid is crossed with offsets through
    every Betti point, midpoints between consecutive offsets, and the
    padded bounding-box edges.  A seed appends extra jittered lines
    reproducibly.  Each module's Betti data is computed once.
    """
    data = (betti_and_grid(P), betti_and_grid(Q))
    pts = _betti_points(data)
    n = P.n
    if not pts:
        pts = [Grade([0] * n)]
    anchors = set(pts)
    for grid in (d.grid for d in data):
        if 0 < grid.image_size() <= 64:
            anchors |= set(grid.points())
    lines: dict[tuple, LineSpec] = {}

    def add(line: LineSpec):
        lines.setdefault((line.direction, line.base.coords), line)

    for g in sorted(anchors, key=lambda x: x.lex_key()):
        add(LineSpec.slope_one(g))
    lo = Grade([min(p.coords[i] for p in pts) for i in range(n)])
    hi = Grade([max(p.coords[i] for p in pts) for i in range(n)])
    diam = lo.linf(hi)
    pad = diam if diam else Fraction(1)
    bounds = (Grade([c - pad for c in lo.coords]), Grade([c + pad for c in hi.coords]))
    if n == 2:
        for m in _mediant_slopes(slopes):
            d = _direction_for_slope(m)
            offsets = sorted({p.coords[0] - p.coords[1] * d[0] / d[1] for p in pts})
            mids = [(a + b) / 2 for a, b in zip(offsets, offsets[1:])]
            edges = [offsets[0] - pad, offsets[-1] + pad]
            for o in sorted(set(offsets) | set(mids) | set(edges)):
                add(LineSpec(d, Grade([o, 0])))
    if seed is not None and extra:
        import random

        rng = random.Random(seed)
        for _ in range(extra):
            d = [Fraction(rng.randint(1, 64), 64) for _ in range(n)]
            top = max(d)
            d = [c / top for c in d]
            anchor = pts[rng.randrange(len(pts))]
            jitter = Grade([c + Fraction(rng.randint(-64, 64), 128) for c in anchor.coords])
            add(LineSpec.through(jitter, d))
    ordered = tuple(lines[k] for k in sorted(lines))
    return LineSample(ordered, bounds)


@dataclass(frozen=True)
class DistanceReport:
    value: object  # exact rational or INF
    argmax_line: LineSpec | None
    kind: str  # lower_bound

    def render(self) -> str:
        head = f"{rat_str(self.value)}"
        if self.value not in (INF, -INF):
            head += f" ({float(self.value):.6f})"
        out = f"{head} [{self.kind}]"
        if self.argmax_line is not None:
            out += f" argmax {self.argmax_line}"
        return out


class _Fibers:
    """Two modules with their grades scaled to integers once, for the line loop.

    Each line is evaluated in its IntegerLine units, from the pushes to the
    bottleneck value in Python ints; only the returned value is a Fraction.
    """

    def __init__(self, P: Presentation, Q: Presentation):
        self.scale = common_scale(c for M in (P, Q) for g in M.betti_grades() for c in g.coords)
        self.views = (ScaledModule(P, self.scale), ScaledModule(Q, self.scale))

    def value(self, line: LineSpec, best=None):
        """w(L) times the bottleneck of the restrictions; None when that is <= best.

        The bottleneck is first probed at floor(best * 2L / w(L)) in doubled
        units: if it is feasible there, the line cannot beat best.
        """
        if best == INF:
            return None
        w = line_weight(line)
        units = IntegerLine.of(line, self.scale)
        bars = _Bars(*(barcode(restrict(view, units)) for view in self.views))
        floor = -1
        if best is not None:
            floor = best.numerator * 2 * units.unit * w.denominator // (best.denominator * w.numerator)
            if bars.at_most(floor):
                return None
        c = bars.least_above(floor)
        return c if c == INF else w * Fraction(c, 2 * units.unit)


def weighted_bottleneck(P: Presentation, Q: Presentation, line: LineSpec):
    """w(L) times the bottleneck of the two restricted barcodes."""
    return _Fibers(P, Q).value(line)


def _refine_near(line: LineSpec, pts: list[Grade]) -> list[LineSpec]:
    """Halved local slope/offset grid around a 2-d argmax line."""
    if line.n != 2:
        return []
    dx, dy = line.direction
    m = dy / dx
    out = []
    for factor in (Fraction(3, 4), Fraction(7, 8), Fraction(9, 8), Fraction(5, 4)):
        mm = m * factor
        if mm <= 0:
            continue
        d = _direction_for_slope(mm)
        for p in pts:
            out.append(LineSpec.through(p, d))
    base = line.base.coords[0]
    for shift in (Fraction(-1, 2), Fraction(-1, 4), Fraction(1, 4), Fraction(1, 2)):
        out.append(LineSpec(line.direction, Grade([base + shift, 0])))
    return out


def matching_distance(P: Presentation, Q: Presentation, sample: LineSample | None = None,
                      slopes: int = 16, adaptive_rounds: int = 0,
                      seed: int | None = None, extra: int = 0) -> DistanceReport:
    """Sampled matching distance: max over lines of w(L) * d_B of restrictions.

    A lower bound for the true supremum (and hence for the interleaving
    distance); adding lines never decreases it.  Adaptive rounds refine the
    sample around the current argmax.
    """
    if P.n != Q.n or P.p != Q.p:
        raise PresentationError("matching distance needs matching dimension and field")
    if sample is None:
        sample = sample_lines(P, Q, slopes=slopes, seed=seed, extra=extra)
    fibers = _Fibers(P, Q)
    best = Fraction(0)
    arg = None
    for line in sample.lines:
        v = fibers.value(line, best)
        if v is not None:
            best, arg = v, line
    if adaptive_rounds and arg is not None:
        pts = _betti_points((betti_and_grid(P), betti_and_grid(Q)))
        for _ in range(adaptive_rounds):
            improved = False
            for line in _refine_near(arg, pts):
                v = fibers.value(line, best)
                if v is not None:
                    best, arg, improved = v, line, True
            if not improved:
                break
    return DistanceReport(best, arg, "lower_bound")


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


def _by_source(matrix: dict[tuple[int, int], int]) -> dict[int, list[tuple[int, int]]]:
    """A witness matrix {(i, j): coeff} as {i: [(j, coeff), ...]}, entries in matrix order."""
    rows: dict[int, list[tuple[int, int]]] = {}
    for (i, j), d in matrix.items():
        rows.setdefault(i, []).append((j, d))
    return rows


def _apply(rows: dict[int, list[tuple[int, int]]], vec: dict[int, int], p: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, c in vec.items():
        for j, d in rows.get(i, ()):
            v = (out.get(j, 0) + c * d) % p
            if v:
                out[j] = v
            else:
                out.pop(j, None)
    return out


def verify_interleaving(P: Presentation, Q: Presentation, w: InterleavingWitness) -> VerifyReport:
    """Accept iff w is a genuine epsilon-interleaving between P and Q.

    Checks, in order: entry sanity and grade compatibility, relations of
    each side landing in the other's relation submodule at the shifted
    grade, and both compositions agreeing with the 2-eps internal
    translation modulo relations.  The report names the first failure.
    Grades are compared as integer tuples under one scale that also clears
    eps, and each side's echelon basis is computed once per relation set.
    """
    eps = rat(w.epsilon)
    if eps < 0:
        return VerifyReport(False, eps, "negative epsilon")
    if P.n != Q.n or P.p != Q.p:
        return VerifyReport(False, eps, "dimension or field mismatch")
    scale = common_scale([eps] + [c for M in (P, Q) for g in M.betti_grades() for c in g.coords])
    VP, VQ = ScaledModule(P, scale), ScaledModule(Q, scale)
    e = (eps * scale).numerator

    def up(grade, times):
        return tuple(v + times * e for v in grade)

    def in_span(view, vec, grade) -> bool:
        return not kernels.residual(vec, view.rel_basis(grade)[1], P.p)

    fd, gd = w.f_dict(), w.g_dict()
    fr, gr = _by_source(fd), _by_source(gd)
    sides = (("f", fd, fr, P, Q, VP, VQ), ("g", gd, gr, Q, P, VQ, VP))
    for name, mat, _, src, dst, vs, vd in sides:
        for (i, j), c in mat.items():
            if not (0 <= i < len(src.gens) and 0 <= j < len(dst.gens)):
                return VerifyReport(False, eps, f"{name} entry ({i},{j}) out of range")
            if not 0 < c < P.p:
                return VerifyReport(False, eps, f"{name} coefficient {c} out of range")
            if not _leq(vd.gens[j], up(vs.gens[i], 1)):
                return VerifyReport(
                    False, eps,
                    f"{name} entry {src.gens[i].label} -> {dst.gens[j].label} violates grades",
                )
    for name, _, rows, src, dst, vs, vd in sides:
        for k, r in enumerate(src.rels):
            image = _apply(rows, r.as_dict(), P.p)
            if image and not in_span(vd, image, up(vs.rels[k][0], 1)):
                return VerifyReport(
                    False, eps,
                    f"{name} sends relation {k} (grade {r.grade}) outside the relation submodule",
                )
    for name, first, second, side, view in (("g.f", fr, gr, P, VP), ("f.g", gr, fr, Q, VQ)):
        for i, gen in enumerate(side.gens):
            vec = _apply(second, _apply(first, {i: 1}, P.p), P.p)
            vec[i] = (vec.get(i, 0) - 1) % P.p
            if not vec[i]:
                del vec[i]
            if vec and not in_span(view, vec, up(view.gens[i], 2)):
                return VerifyReport(
                    False, eps,
                    f"coherence {name} fails at generator {gen.label}",
                )
    return VerifyReport(True, eps)


# -- rank-condition lower bound ------------------------------------------------------


def _default_probes(minimal: Sequence[Presentation]) -> list[Grade]:
    pts: set[Grade] = set()
    for M in minimal:
        data = betti_of_minimal(M)
        pts |= set(data.xi0) | set(data.xi1)
        if 0 < data.grid.image_size() <= 128:
            pts |= set(data.grid.points())
    return sorted(pts, key=lambda g: g.lex_key())


def _interval_probes(M: ScaledModule, top: tuple[int, int]) -> list[tuple[list, list]]:
    """Staircase intervals read off a minimal presentation, in scaled grades.

    One per connected component (generators linked through shared relation
    columns) that has a relation on two or more generators: its births are
    the component's minimal generator grades, its deaths the minimal grades
    of its single-generator relations plus two corners that close it at top.
    """
    parent = list(range(len(M.gens)))

    def find(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    for _, col in M.rels:
        first, *rest = col
        for i in rest:
            parent[find(i)] = find(first)
    linked = sorted({find(next(iter(col))) for _, col in M.rels if len(col) >= 2})
    out = []
    for root in linked:
        comp = {i for i in range(len(M.gens)) if find(i) == root}
        births = minimal_elements(M.gens[i] for i in comp)
        x0, y0 = births[0][0], births[-1][1]
        singles = [g for g, col in M.rels if len(col) == 1 and next(iter(col)) in comp]
        out.append((births, minimal_elements(singles + [(x0, top[1]), (top[0], y0)])))
    return out


def _rank_violation(views: Sequence[ScaledModule], points: Sequence[tuple[int, ...]],
                    intervals: Sequence[tuple], e: int) -> bool:
    """Does some probe rule out an interleaving at the scaled epsilon e?

    Point probes come first; the interval probes are consulted only when
    none of them violates.
    """
    P, Q = views
    for a in points:
        up = tuple(c + 2 * e for c in a)
        mid = tuple(c + e for c in a)
        if P.rank_between(a, up) > Q.dim(mid) or Q.rank_between(a, up) > P.dim(mid):
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
    probe violates its condition everywhere.  The sweep runs on grades
    scaled to integers; each module is minimized once.
    """
    if P.n != Q.n or P.p != Q.p:
        raise PresentationError("rank bound needs matching dimension and field")
    minimal = (minimize(P), minimize(Q))
    probe_list = _default_probes(minimal)
    if probes is not None:
        probe_list = sorted(set(probe_list) | set(probes), key=lambda g: g.lex_key())
    grades = [g for M in minimal for g in M.betti_grades()]
    # quarter units: candidates include halved differences, and their midpoints
    scale = 4 * common_scale(c for g in grades + probe_list for c in g.coords)
    views = [ScaledModule(M, scale) for M in minimal]
    points = [scale_grade(a, scale) for a in probe_list]
    betti_points = [scale_grade(g, scale) for g in grades]
    intervals = []
    if P.n == 2 and grades:
        lo = [min(g[i] for g in betti_points) for i in range(2)]
        hi = [max(g[i] for g in betti_points) for i in range(2)]
        pad = max(h - l for h, l in zip(hi, lo)) or scale
        top = (hi[0] + pad, hi[1] + pad)
        for src, M in enumerate(views):
            for births, deaths in _interval_probes(M, top):
                r = M.interval_rank(births, deaths)
                if r:
                    intervals.append((src, births, deaths, r))
    if not points and not intervals:
        return DistanceReport(Fraction(0), None, "lower_bound")
    axes_vals: list[set[int]] = [set() for _ in range(P.n)]
    corners = points + [q for _, births, deaths, _ in intervals for q in births + deaths]
    for a in betti_points + corners:
        for i, c in enumerate(a):
            axes_vals[i].add(c)
    diffs = {0}
    for vals in axes_vals:
        ordered = sorted(vals)
        for i, v in enumerate(ordered):
            for w_ in ordered[i + 1:]:
                diffs.add(w_ - v)
                diffs.add((w_ - v) // 2)
    cands = sorted(diffs)

    def report(e):
        return DistanceReport(e if e == INF else Fraction(e, scale), None, "lower_bound")

    if not _rank_violation(views, points, intervals, 0):
        return report(0)
    prev = 0
    for c in cands[1:]:
        if not _rank_violation(views, points, intervals, (prev + c) // 2):
            return report(prev)
        if not _rank_violation(views, points, intervals, c):
            return report(c)
        prev = c
    if _rank_violation(views, points, intervals, cands[-1] + scale):
        return report(INF)
    return report(cands[-1])


# -- intrinsic-metric estimate and the local equivalence experiment -------------------


def path_length_d0(path: Sequence[Presentation], sample: LineSample | None = None,
                   slopes: int = 16) -> Fraction:
    """Sum of sampled matching distances over consecutive waypoints.

    A lower bound for the d0-length of any continuous path through them.
    """
    if len(path) < 2:
        raise ValueError("path length needs at least two modules")
    total = Fraction(0)
    for A, B in zip(path, path[1:]):
        total += matching_distance(A, B, sample=sample, slopes=slopes).value
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
            if x is None:
                return "unknown"
            if x in (INF, -INF):
                return rat_str(x)
            return f"{rat_str(x)} ({float(x):.6f})"

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
                                 sample: LineSample | None = None, slopes: int = 16) -> LocalEquivalenceReport:
    """Check d0(M, N) > kappa * eps under eps < c_M / (2 (34 kappa + 1)).

    eps-hat is exact when a certified value is supplied (and consistent with
    the verifier), otherwise the [rank lower bound, witness upper bound]
    interval is used; a hypothesis failure is reported, never silently
    passed.  The sampled d0 under-approximates the supremum, so PASS is
    sound while FAIL only means the sampling did not find a witness line.
    """
    k = rat(kappa)
    if not (0 <= k < KAPPA_MAX):
        raise ValueError(f"kappa must lie in [0, 1/34), got {k}")
    c_m = betti_and_grid(M).c
    lower = rank_lower_bound(M, N).value
    upper = None
    if witness is not None:
        check = verify_interleaving(M, N, witness)
        if check.accepted:
            upper = rat(witness.epsilon)
    exact = None
    if certified_eps is not None:
        exact = rat(certified_eps)
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
    d0 = matching_distance(M, N, sample=sample, slopes=slopes).value
    threshold = None if eps_hat is None else k * eps_hat
    strict = None if threshold is None else d0 > threshold
    nonstrict = None if threshold is None else d0 >= threshold
    if not hyp_ok:
        status = "HYPOTHESIS-FAIL"
    else:
        status = "PASS" if strict else "FAIL"
    return LocalEquivalenceReport(
        kappa=k, c_m=c_m, eps_lower=lower, eps_upper=upper, eps_exact=exact,
        hypothesis_ok=hyp_ok, hypothesis_note=note, d0=d0, threshold=threshold,
        strict_holds=strict, nonstrict_holds=nonstrict, status=status,
    )
