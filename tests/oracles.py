"""Independent oracles the tests check the library against.

Everything here recomputes results through a different route than the
package: dense textbook row reduction instead of the sparse pivot kernel,
inclusion-exclusion of ranks instead of reduction pairing for barcodes,
exhaustive enumeration for matchings and grids, and for larger matchings
the textbook diagonal-slot reduction to perfect bipartite matching.
matched_pairs_witness_entries, the block-matching witness at a threshold,
lives here too, beside the dense reference it is checked against: no
command of the package builds that witness.  Both find their matching with
saturates, an augmenting-path search on explicit neighbour rows, which the
package's bottleneck probe does without.  interval_rank_by_units and
rank_violation_by_ranks are the plain routes of the rank lower bound's
probes: the lower-fence walk over unit vectors, and every point probe's
rank computed.  The Fraction restriction is the plain route of the
integer line loop: push puts each grade on the line in Fractions,
barcode_by_push pairs those parameters with fibered.pair_bars, and
refine_near_by_fractions builds the adaptive rounds' lines as LineSpecs.
minimize_by_scan is the plain reduce-and-cancel loop, and normal_form
brings its output to the normal form minimize prints by dense row
reduction.

The next section holds the builders that tests use as tools and no command
of the package runs: random sums of staircases, non-minimal presentations
of a module (entangled), small presentations with tied grades and chained
cancellations (tangled_module), the zero module, the joint presentation of a
module and its translate, presentations of block lists, barcode_of, which
builds a Barcode from rational bars in any of the forms tests write them
in, and a few grade and line helpers.  The last holds the
Fraction routes of the constructions the package builds in integer form:
the incompleteness pair, the jitter, and joint presentations with their
waypoints, each from Generator and Relation objects through
Presentation(n, p, gens, rels).
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from multipres.blocks import extend_block
from multipres.experiments import random_staircase
from multipres.fibered import Barcode, pair_bars
from multipres.functors import JointPresentation
from multipres.grades import DimensionMismatch, Grade, LineSpec, rat, rat_str
from multipres.presentation import (
    Generator,
    Presentation,
    PresentationError,
    Relation,
    betti_and_grid,
    direct_sum,
    make_column,
    scale_grade,
)

INF = math.inf


def dense_rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Row-echelon rank of a dense integer matrix mod p."""
    mat = [[v % p for v in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(v * inv) % p for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] % p:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def dense_low_pivots(columns: list[list[int]], p: int) -> list[int]:
    """Pivot row of each dense column after left-to-right reduction mod p.

    A column is reduced by the earlier reduced column whose pivot, its
    largest nonzero row, equals the column's own, until no earlier column
    has its pivot or the column is zero (pivot -1).
    """
    done: list[tuple[int, list[int]]] = []
    out = []
    for column in columns:
        v = [x % p for x in column]
        while True:
            low = max((i for i, x in enumerate(v) if x), default=-1)
            earlier = next((w for row, w in done if row == low), None)
            if low < 0 or earlier is None:
                break
            f = v[low] * pow(earlier[low], p - 2, p) % p
            v = [(a - f * b) % p for a, b in zip(v, earlier)]
        if low >= 0:
            done.append((low, v))
        out.append(low)
    return out


def dim_at(P, a: Grade) -> int:
    """Pointwise dimension by dense elimination (independent of the kernels)."""
    alive = [i for i, g in enumerate(P.gens) if g.grade.leq(a)]
    if not alive:
        return 0
    pos = {i: k for k, i in enumerate(alive)}
    rows = []
    for r in P.rels:
        if r.grade.leq(a):
            row = [0] * len(alive)
            for i, c in r.col:
                row[pos[i]] = c
            rows.append(row)
    return len(alive) - dense_rank_mod_p(rows, P.p)


def rank_between(P, a: Grade, b: Grade) -> int:
    """Rank of M_a -> M_b by dense elimination on [R_<=b | E_a]."""
    alive_b = [i for i, g in enumerate(P.gens) if g.grade.leq(b)]
    pos = {i: k for k, i in enumerate(alive_b)}
    rel_rows = []
    for r in P.rels:
        if r.grade.leq(b):
            row = [0] * len(alive_b)
            for i, c in r.col:
                row[pos[i]] = c
            rel_rows.append(row)
    unit_rows = []
    for i, g in enumerate(P.gens):
        if g.grade.leq(a):
            row = [0] * len(alive_b)
            row[pos[i]] = 1
            unit_rows.append(row)
    base = dense_rank_mod_p(rel_rows, P.p) if rel_rows else 0
    return dense_rank_mod_p(rel_rows + unit_rows, P.p) - base


def barcode_by_rank_counts(Q) -> Counter:
    """Barcode multiset via inclusion-exclusion of 1-parameter ranks.

    Completely avoids reduction pairing: multiplicities come from rank
    differences over the finite candidate parameter set.
    """
    assert Q.n == 1
    vals = sorted({g.grade.coords[0] for g in Q.gens} | {r.grade.coords[0] for r in Q.rels})
    if not vals:
        return Counter()
    gaps = [b - a for a, b in zip(vals, vals[1:])]
    eta = min(gaps) / 2 if gaps else Fraction(1)
    top = vals[-1] + 1

    def r(s, t):
        return rank_between(Q, Grade([s]), Grade([t]))

    bars: Counter = Counter()
    for i, b in enumerate(vals):
        for d in vals[i + 1:]:
            m = (r(b, d - eta) - r(b, d)) - (r(b - eta, d - eta) - r(b - eta, d))
            if m:
                bars[(b, d)] += m
        m_inf = r(b, top) - r(b - eta, top)
        if m_inf:
            bars[(b, INF)] += m_inf
    return bars


def bars_of(B: Barcode) -> list[tuple]:
    """Every bar (birth, death) of B, as Fractions, repeated by its multiplicity, in birth order."""
    S = B.scale
    return [(Fraction(b, S), d if d == INF else Fraction(d, S)) for b, d, m in B.bars for _ in range(m)]


def brute_bottleneck(bars1: list[tuple], bars2: list[tuple]):
    """Minimum over all partial matchings, by exhaustive enumeration."""

    def cost(x, y):
        (b1, d1), (b2, d2) = x, y
        if (d1 == INF) != (d2 == INF):
            return INF
        if d1 == INF:
            return abs(b1 - b2)
        return max(abs(b1 - b2), abs(d1 - d2))

    def deletion(x):
        b, d = x
        return INF if d == INF else (d - b) / 2

    best = INF
    n1, n2 = len(bars1), len(bars2)
    for k in range(min(n1, n2) + 1):
        for left in itertools.combinations(range(n1), k):
            for right in itertools.permutations(range(n2), k):
                worst = Fraction(0)
                for i, j in zip(left, right):
                    worst = max(worst, cost(bars1[i], bars2[j]))
                for i in range(n1):
                    if i not in left:
                        worst = max(worst, deletion(bars1[i]))
                used = set(right)
                for j in range(n2):
                    if j not in used:
                        worst = max(worst, deletion(bars2[j]))
                best = min(best, worst)
    return best


def slot_min_max_assignment(cost, del_left, del_right):
    """Least threshold admitting a partial matching, by perfect matching with slots.

    Left vertices are the left items and one slot per right item; right
    vertices are the right items and one slot per left item.  An item may
    take an item at cost <= c or its own slot if its deletion is <= c, and
    slots pair with slots freely.  Each threshold runs Kuhn's recursive
    augmenting-path search from scratch (fine for a few dozen items).
    """
    n1, n2 = len(del_left), len(del_right)
    size = n1 + n2

    def perfect(c):
        adj = [[] for _ in range(size)]
        for i in range(n1):
            adj[i] = [j for j in range(n2) if cost[i][j] <= c]
            if del_left[i] <= c:
                adj[i].append(n2 + i)
        for j in range(n2):
            adj[n1 + j] = ([j] if del_right[j] <= c else []) + [n2 + i for i in range(n1)]
        owner = [-1] * size

        def augment(u, seen):
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    if owner[v] < 0 or augment(owner[v], seen):
                        owner[v] = u
                        return True
            return False

        return all(augment(u, [False] * size) for u in range(size))

    cands = sorted({c for row in cost for c in row if c != INF}
                   | {d for d in list(del_left) + list(del_right) if d != INF} | {0})
    for c in cands:
        if perfect(c):
            return c
    return INF


def push_by_scan(line, p: Grade, step=Fraction(1, 64), span: int = 4096):
    """Smallest grid parameter whose line point dominates p, by linear scan."""
    t = -span * step
    while t <= span * step:
        pt = point_at(line, t)
        if p.leq(pt):
            return t
        t += step
    raise AssertionError("scan window too small")


def merge_coordinate_by_scan(axis, delta, x, variant: str):
    """The first axis value that x snaps to under a merge variant, by a full scan."""
    for v in axis:
        if variant == "two_sided":
            if v - delta <= x <= v + delta:
                return v
        elif variant == "plus":
            if v - delta <= x <= v:
                return v
        else:
            if v <= x <= v + delta:
                return v
    return x


def min_pairwise_linf(points: list[Grade]):
    best = INF
    for i, a in enumerate(points):
        for b in points[i + 1:]:
            if a != b:
                best = min(best, linf(a, b))
    return best


def interval_rank_by_summands(summands, births, deaths) -> int:
    """rk(K) of a direct sum of staircase intervals: summands whose support contains K.

    summands holds each interval's (births, deaths) corner lists.  K is
    up(births) minus up(deaths) and must be nonempty and connected.  K lies
    in up(B_j) when each of its births does, and misses up(D_j) when every
    join of one of its births with a corner of D_j lies in up(deaths).
    """
    births = [b for b in births if not any(d.leq(b) for d in deaths)]
    count = 0
    for s_births, s_deaths in summands:
        inside = all(any(s.leq(b) for s in s_births) for b in births)
        missed = all(any(d.leq(b.join(e)) for d in deaths) for b in births for e in s_deaths)
        count += inside and missed
    return count


def _rref_mod_p(rows: list[list[int]], ncols: int, p: int) -> list[tuple[int, list[int]]]:
    """Reduced row echelon form mod p: (pivot column, row) pairs."""
    mat = [[v % p for v in row] for row in rows]
    cols: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][col], p - 2, p)
        mat[r] = [(v * inv) % p for v in mat[r]]
        # the pivot row is zero left of col, so the update starts there
        tail = mat[r][col:]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i][col:] = [(a - f * b) % p for a, b in zip(mat[i][col:], tail)]
        cols.append(col)
        r += 1
    return list(zip(cols, mat))


def _nullspace_mod_p(rows: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """A basis of {x : rows . x = 0} mod p."""
    rref = _rref_mod_p(rows, ncols, p)
    pivots = {col for col, _ in rref}
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        x = [0] * ncols
        x[free] = 1
        for col, row in rref:
            x[col] = (-row[free]) % p
        basis.append(x)
    return basis


def interval_rank_dense(P, births, deaths):
    """rank(lim_K M -> colim_K M) by dense elimination over every grid cell of K.

    The grid is the product of every coordinate of P's grades and K's
    corners, so M is constant on each cell and K is a union of cells.  Each
    cell carries M at its lower-left corner as a quotient F^{gens <= c} /
    <rels <= c> with explicit coordinates; the limit is the null space of
    the cover equations, the colimit the direct sum of cells modulo the
    cover identifications.  None when K is empty or disconnected.
    """
    p = P.p
    pts = [g.grade for g in P.gens] + [r.grade for r in P.rels] + list(births) + list(deaths)
    xs = sorted({q.coords[0] for q in pts})
    ys = sorted({q.coords[1] for q in pts})

    def in_k(q):
        return any(b.leq(q) for b in births) and not any(d.leq(q) for d in deaths)

    cells = [(i, j) for i in range(len(xs)) for j in range(len(ys)) if in_k(Grade([xs[i], ys[j]]))]
    if not cells:
        return None
    index = {c: k for k, c in enumerate(cells)}
    covers = [(c, d) for c in cells for d in ((c[0] + 1, c[1]), (c[0], c[1] + 1)) if d in index]
    parent = list(range(len(cells)))

    def find(k):
        while parent[k] != k:
            k = parent[k]
        return k

    for c, d in covers:
        parent[find(index[c])] = find(index[d])
    if len({find(k) for k in range(len(cells))}) > 1:
        return None

    # M at each cell: the free (non-pivot) generators of the relation rref
    quot = {}
    for c in cells:
        at = Grade([xs[c[0]], ys[c[1]]])
        alive = [i for i, g in enumerate(P.gens) if g.grade.leq(at)]
        pos = {i: k for k, i in enumerate(alive)}
        rows = []
        for r in P.rels:
            if r.grade.leq(at):
                row = [0] * len(alive)
                for i, v in r.col:
                    row[pos[i]] = v
                rows.append(row)
        rref = _rref_mod_p(rows, len(alive), p)
        pivots = {col for col, _ in rref}
        free = [k for k in range(len(alive)) if k not in pivots]
        quot[c] = (alive, pos, rref, free)

    def image_of_unit(gen, c):
        """The class of generator gen in M_c, in the free coordinates of c."""
        alive, pos, rref, free = quot[c]
        vec = [0] * len(alive)
        vec[pos[gen]] = 1
        for col, row in rref:
            if vec[col]:
                f = vec[col]
                vec = [(a - f * b) % p for a, b in zip(vec, row)]
        return [vec[k] for k in free]

    offset = {}
    total = 0
    for c in cells:
        offset[c] = total
        total += len(quot[c][3])
    if not total:
        return 0
    # the limit: x_d = M(c -> d) x_c on every cover, one equation per
    # coordinate of d; the colimit: e_c(f) ~ M(c -> d) e_c(f)
    equations, glue = [], []
    for c, d in covers:
        alive, _, _, free = quot[c]
        images = [image_of_unit(alive[f], d) for f in free]
        for k, img in enumerate(images):
            row = [0] * total
            row[offset[c] + k] = p - 1
            for t, v in enumerate(img):
                row[offset[d] + t] = v
            glue.append(row)
        for t in range(len(quot[d][3])):
            row = [0] * total
            row[offset[d] + t] = p - 1
            for k, img in enumerate(images):
                row[offset[c] + k] = img[t]
            equations.append(row)
    lim = _nullspace_mod_p(equations, total, p)
    c0 = cells[0]
    # rank(glue + image) - rank(glue): the image rows reduced against one
    # reduced echelon form of the glue span the image modulo the glue
    glue_rref = _rref_mod_p(glue, total, p)
    image = []
    for x in lim:
        row = [0] * total
        for k in range(len(quot[c0][3])):
            row[offset[c0] + k] = x[offset[c0] + k]
        for col, pivot_row in glue_rref:
            if row[col]:
                f = row[col]
                row = [(a - f * b) % p for a, b in zip(row, pivot_row)]
        image.append(row)
    return dense_rank_mod_p(image, p)


def interval_rank_by_units(M, births, deaths) -> int | None:
    """ScaledModule.interval_rank by the lower-fence walk over unit vectors.

    The reference for the walk that carries a generator mask: T starts as
    the unit vectors of the generators <= B[-1], and each step pushes all
    of T with the relations <= the join into one kernels.intersect.
    """
    from multipres import kernels
    from multipres.presentation import _just_below, bits, staircase_fences

    fences = staircase_fences(births, deaths)
    if isinstance(fences, str):
        return None
    B, joins, tops = fences
    T = [{i: 1} for i in bits(M.gens_below(B[-1]))]
    for b, j in zip(reversed(B[:-1]), reversed(joins)):
        rels = [M.rels[k][1] for k in bits(M.rels_below(j))]
        T = [v for _, v in kernels.intersect(T + rels, bits(M.gens_below(b)), M.p)]
    if not T:
        return 0
    key = 0
    for top in tops:
        key |= M.rels_below(_just_below(top))
    basis = M.rel_basis(key)
    return len(kernels.extend(basis, T, M.p)) - len(basis)


def rank_violation_by_ranks(views, points, intervals, e: int) -> bool:
    """metrics._rank_violation with every point probe's rank computed.

    The reference for the count settles: each point probe compares
    rank_between with dim on both sides, and each interval probe walks
    its erosion with interval_rank_by_units.
    """
    P, Q = views
    for a in points:
        up = tuple(c + 2 * e for c in a)
        mid = tuple(c + e for c in a)
        if P.rank_between(a, up) > Q.dim(mid) or Q.rank_between(a, up) > P.dim(mid):
            return True
    for src, births, deaths, r in intervals:
        eroded = interval_rank_by_units(views[1 - src], [(x + e, y + e) for x, y in births],
                                        [(x - e, y - e) for x, y in deaths])
        if eroded is not None and r > eroded:
            return True
    return False


def image_relations_by_full_sweep(P, e: Fraction) -> list[tuple[Grade, dict[int, int]]]:
    """Relations of the eps-translation image by the plain Fraction grid sweep.

    The reference for functors._image_relations: every point of the product
    grid of relation coordinates and translated generator coordinates is
    visited in lexicographic order, with Fraction grades, and each one
    re-derives the intersection of the active relation span with the early
    generators' coordinates from scratch.  No point is skipped.
    """
    from multipres import kernels

    if not P.rels:
        return []
    axes = []
    for k in range(P.n):
        vals = {r.grade.coords[k] for r in P.rels}
        vals |= {g.grade.coords[k] + e for g in P.gens}
        axes.append(sorted(vals))
    candidates = sorted((Grade(pt) for pt in itertools.product(*axes)), key=lambda g: g.lex_key())

    out: list[tuple[Grade, dict[int, int]]] = []
    for s in candidates:
        active = [r for r in P.rels if r.grade.leq(s)]
        if not active:
            continue
        early = [i for i, g in enumerate(P.gens) if translated(g.grade, e).leq(s)]
        order = early + [i for i in range(len(P.gens)) if i not in set(early)]
        row_of = {i: k for k, i in enumerate(order)}
        cols = [{row_of[i]: c for i, c in r.col} for r in active]
        pure = [col for low, col in kernels.echelonize(cols, P.p).items() if low < len(early)]
        if not pure:
            continue
        have = [{row_of[i]: c for i, c in col.items()} for g2, col in out if g2.leq(s)]
        known = kernels.echelonize(have, P.p)
        for col in pure:
            res = kernels.residual(col, known, P.p)
            if res:
                known[max(res)] = res
                out.append((s, {order[row]: c for row, c in col.items()}))
    return out


def minimize_by_scan(P):
    """Minimal presentation by the plain scan of (grade, scaled grade, column) triples.

    The reference for presentation.minimize, with the same visiting order and
    output: every reduction pass sorts the relations by (scaled grade,
    position) and tests each kept relation's grade against the current one
    with a coordinate-wise scan; a cancellation renumbers the generators
    above the cancelled one at once.
    """
    from multipres import kernels
    from multipres.presentation import Presentation, Relation, common_scale, make_column, scale_grade

    def leq(a, b):
        return all(x <= y for x, y in zip(a, b))

    def reduction_pass(rels):
        order = sorted(range(len(rels)), key=lambda i: (rels[i][1], i))
        kept = []
        for i in order:
            grade, key, col = rels[i]
            basis = kernels.echelonize([c for _, k2, c in kept if leq(k2, key)], P.p)
            res = kernels.residual(col, basis, P.p)
            if res:
                kept.append((grade, key, res))
        return kept

    def find_cancellation(gens, rels):
        for j, (_, key, col) in enumerate(rels):
            hits = [i for i in sorted(col) if gens[i][1] == key]
            if hits:
                return j, hits[0]
        return None

    def cancel(gens, rels, j, b):
        p = P.p
        col = rels[j][2]
        cinv = pow(col[b], p - 2, p)
        rest = {i: v for i, v in col.items() if i != b}
        out = []
        for k, (g2, key, col2) in enumerate(rels):
            if k == j:
                continue
            new = {i: v for i, v in col2.items() if i != b}
            d = col2.get(b)
            if d is not None:
                for i, v in rest.items():
                    w = (new.get(i, 0) - d * cinv * v) % p
                    if w:
                        new[i] = w
                    else:
                        new.pop(i, None)
            out.append((g2, key, {(i if i < b else i - 1): v for i, v in new.items()}))
        return [g for i, g in enumerate(gens) if i != b], out

    scale = common_scale(c for g in betti_grades(P) for c in g.coords)
    gens = [(g, scale_grade(g.grade, scale)) for g in P.gens]
    rels = [(r.grade, scale_grade(r.grade, scale), dict(r.col)) for r in P.rels]
    while True:
        rels = reduction_pass(rels)
        hit = find_cancellation(gens, rels)
        if hit is None:
            break
        gens, rels = cancel(gens, rels, *hit)
    return Presentation(P.n, P.p, tuple(g for g, _ in gens),
                        tuple(Relation(g, make_column(col, P.p)) for g, _, col in rels))


def normal_form(Q):
    """Q with its relations in the normal form presentation.minimize prints,
    by dense row reduction over F_p.

    For each relation grade g, in lexicographic order: the relations at g,
    each reduced modulo L_g, the span of the relations at grades strictly
    below g, until it has no entry on a pivot row of L_g, then brought to
    reduced row echelon form with top entry 1 and ordered by pivot row.  A
    pivot row is the highest generator index of a vector of the span.  Rows
    are handled in reverse, so the textbook leading column is the top row.
    """
    m, p = len(Q.gens), Q.p

    def flipped(col):
        v = [0] * m
        for i, c in col:
            v[m - 1 - i] = c
        return v

    rels = []
    for g in sorted({r.grade for r in Q.rels}, key=lambda a: a.lex_key()):
        lower = _rref_mod_p([flipped(r.col) for r in Q.rels if r.grade.leq(g) and r.grade != g], m, p)
        same = []
        for r in Q.rels:
            if r.grade == g:
                v = flipped(r.col)
                for lead, row in lower:
                    f = v[lead]
                    v = [(a - f * b) % p for a, b in zip(v, row)]
                same.append(v)
        for lead, row in sorted(_rref_mod_p(same, m, p), reverse=True):
            rels.append(Relation(g, make_column({m - 1 - j: c for j, c in enumerate(row) if c}, p)))
    return Presentation(Q.n, p, Q.gens, tuple(rels))


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


def push(line: LineSpec, p: Grade) -> Fraction:
    """Line parameter of the smallest point of L that dominates p.

    t = max_i (p_i - base_i) / d_i; monotone in p, and L(t) agrees with p in
    at least one coordinate (the arg max).
    """
    if p.n != line.n:
        raise DimensionMismatch(f"grade dim {p.n} != line dim {line.n}")
    return max((pc - bc) / dc for pc, bc, dc in zip(p.coords, line.base.coords, line.direction))


def restrict_by_push(P, line: LineSpec) -> Presentation:
    """The 1-parameter restriction of P along the line, each grade pushed in Fractions."""
    if line.n != P.n:
        raise ValueError(f"line dimension {line.n} != module dimension {P.n}")
    gens = tuple(Generator(g.label, Grade([push(line, g.grade)])) for g in P.gens)
    rels = tuple(Relation(Grade([push(line, r.grade)]), r.col) for r in P.rels)
    return Presentation(1, P.p, gens, rels)


def barcode_by_push(P, line: LineSpec) -> Barcode:
    """The barcode of P on the line: pair_bars on the Fraction pushes of its grades."""
    Q = restrict_by_push(P, line)
    births, deaths, counts, infinite = pair_bars([g.grade.coords[0] for g in Q.gens],
                                                 [r.grade.coords[0] for r in Q.rels], [dict(r.col) for r in Q.rels], Q.p, {})
    bars = Counter({(b, INF): m for b, m in infinite})
    for bar, m in zip(zip(births, deaths), counts):
        bars[bar] += m
    return barcode_of(bars)


def refine_near_by_fractions(line: LineSpec, pts: list[Grade]) -> list[LineSpec]:
    """The adaptive refinement around a 2-d line as LineSpecs: the lines
    through every point at 3/4, 7/8, 9/8 and 5/4 of its slope, then the
    line moved by -1/2, -1/4, 1/4 and 1/2 along the first axis."""
    if line.n != 2:
        return []
    dx, dy = line.direction
    m = dy / dx
    out = []
    for factor in (Fraction(3, 4), Fraction(7, 8), Fraction(9, 8), Fraction(5, 4)):
        d = _direction_for_slope(m * factor)
        for p in pts:
            out.append(LineSpec.through(p, d))
    base = line.base.coords[0]
    for shift in (Fraction(-1, 2), Fraction(-1, 4), Fraction(1, 4), Fraction(1, 2)):
        out.append(LineSpec(line.direction, Grade([base + shift, 0])))
    return out


def _betti_points(data) -> list[Grade]:
    pts: set[Grade] = set()
    for d in data:
        pts |= set(d.xi0) | set(d.xi1)
    return sorted(pts, key=lambda g: g.lex_key())


def sample_lines_by_fractions(P, Q, slopes: int = 64, seed: int | None = None,
                              extra: int = 0) -> tuple[LineSpec, ...]:
    """The line sample of metrics.sample_lines built line by line in Fractions.

    Slope-1 lines through every Betti-grid point of both modules, and for
    2-parameter modules a mediant-spaced slope grid crossed with offsets
    through every Betti point, midpoints between consecutive offsets and the
    padded bounding-box edges; a seed appends extra jittered lines.  Every
    line is a LineSpec, deduplicated by (direction, base) and sorted by it.
    """
    data = (betti_and_grid(P), betti_and_grid(Q))
    pts = _betti_points(data)
    n = P.n
    if not pts:
        pts = [Grade([0] * n)]
    anchors = set(pts)
    for grid in (d.grid for d in data):
        if 0 < grid.image_size() <= 64:
            anchors |= set(grid_points(grid))
    lines: dict[tuple, LineSpec] = {}

    def add(line: LineSpec):
        lines.setdefault((line.direction, line.base.coords), line)

    for g in sorted(anchors, key=lambda x: x.lex_key()):
        add(LineSpec.through(g, [1] * n))
    lo = Grade([min(p.coords[i] for p in pts) for i in range(n)])
    hi = Grade([max(p.coords[i] for p in pts) for i in range(n)])
    diam = linf(lo, hi)
    pad = diam if diam else Fraction(1)
    if n == 2:
        for m in _mediant_slopes(slopes):
            d = _direction_for_slope(m)
            offsets = sorted({p.coords[0] - p.coords[1] * d[0] / d[1] for p in pts})
            mids = [(a + b) / 2 for a, b in zip(offsets, offsets[1:])]
            edges = [offsets[0] - pad, offsets[-1] + pad]
            for o in sorted(set(offsets) | set(mids) | set(edges)):
                add(LineSpec(d, Grade([o, 0])))
    if seed is not None and extra:
        rng = random.Random(seed)
        for _ in range(extra):
            d = [Fraction(rng.randint(1, 64), 64) for _ in range(n)]
            top = max(d)
            d = [c / top for c in d]
            anchor = pts[rng.randrange(len(pts))]
            jitter = Grade([c + Fraction(rng.randint(-64, 64), 128) for c in anchor.coords])
            add(LineSpec.through(jitter, d))
    return tuple(lines[k] for k in sorted(lines))


def rectangle_shift(r1, r2):
    """Largest corner distance of two extended rectangles; INF unless the
    same sides are infinite (same kind)."""

    def coord_gap(u, v):
        if (u == INF) != (v == INF):
            return INF
        return Fraction(0) if u == INF else abs(u - v)

    return max([linf(r1.lower, r2.lower)] + [coord_gap(u, v) for u, v in zip(r1.upper, r2.upper)])


def rectangle_distance(r1, r2):
    """Closed-form interleaving distance of two extended rectangles: slide
    one onto the other, or delete both."""
    return min(rectangle_shift(r1, r2), max(r1.radius(), r2.radius()))


def saturates(rows, size: int, must) -> list[int] | None:
    """A matching that covers every left vertex in must, or None if none does.

    rows[u] lists u's right neighbours.  A greedy pass matches what it can,
    then augmenting paths are searched depth first with an explicit stack.
    The matching is returned as match_right: the left vertex matched to
    each of the size right vertices, or -1.
    """
    match_right = [-1] * size
    free = []
    for u in must:
        for v in rows[u]:
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
            row = rows[u]
            while k < len(row) and seen[row[k]]:
                k += 1
            if k == len(row):
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


def matched_pairs_by_dense_shifts(A, B, eps):
    """matched_pairs_witness_entries by the whole m x k rectangle_shift matrix.

    Every pair of blocks, of any kinds, gets its Fraction rectangle shift,
    and A[i]'s row lists the j with shift <= eps in increasing order, then
    its slot when its radius is <= eps; B's rows are as in the library.
    """
    from multipres.blocks import extend_block

    ra, rb = [extend_block(x) for x in A], [extend_block(y) for y in B]
    m, k = len(ra), len(rb)
    rows = [[j for j, y in enumerate(rb) if rectangle_shift(x, y) <= eps]
            + ([k + i] if x.radius() <= eps else []) for i, x in enumerate(ra)]
    rows += [([j] if y.radius() <= eps else []) + list(range(k, k + m)) for j, y in enumerate(rb)]
    match = saturates(rows, m + k, range(m + k))
    if match is None:
        return None
    pairs = [(match[j], j) for j in range(k) if match[j] < m]
    return {(i, j): 1 for i, j in pairs}, {(j, i): 1 for i, j in pairs}


def matched_pairs_witness_entries(A, B, eps):
    """Identity entries for a shift/deletion witness at a rational threshold eps.

    The block pairs of a perfect matching with deletion slots: A's blocks
    and one slot per B block on the left, B's blocks and one slot per A
    block on the right.  A[i] meets B[j] when their rectangles shift onto
    each other within eps, a block meets its own slot when its radius is
    <= eps, and slots meet slots.  None when there is no such matching,
    i.e. eps < block_matching_distance.

    Rectangles shift only within one kind, by the l-infinity distance of
    the blocks' (a, b), so A[i]'s row lists by increasing j the blocks of
    its kind with a within eps, bisected on integer endpoints, and b too.
    """
    from multipres.blocks import KINDS, extend_block
    from multipres.presentation import common_scale

    e = rat(eps)
    scale = common_scale([e] + [c for x in A + B for c in (x.a, x.b)])
    h = e.numerator * scale // e.denominator
    ends = [((y.a * scale).numerator, (y.b * scale).numerator) for y in B]
    near = {kind: sorted((ends[j][0], j) for j, y in enumerate(B) if y.kind == kind) for kind in KINDS}
    starts = {kind: [a for a, _ in own] for kind, own in near.items()}
    m, k = len(A), len(B)
    rows = []
    for i, x in enumerate(A):
        a, b = (x.a * scale).numerator, (x.b * scale).numerator
        own, at = near[x.kind], starts[x.kind]
        row = sorted(j for _, j in own[bisect_left(at, a - h):bisect_right(at, a + h)] if abs(ends[j][1] - b) <= h)
        rows.append(row + ([k + i] if extend_block(x).radius() <= e else []))
    rows += [([j] if extend_block(y).radius() <= e else []) + list(range(k, k + m)) for j, y in enumerate(B)]
    match = saturates(rows, m + k, range(m + k))
    if match is None:
        return None
    pairs = [(match[j], j) for j in range(k) if match[j] < m]
    return {(i, j): 1 for i, j in pairs}, {(j, i): 1 for i, j in pairs}


# -- builders the tests use as tools -----------------------------------------------


def translated(a: Grade, eps) -> Grade:
    """a moved up by eps on every axis."""
    return a.plus([eps] * a.n)


def linf(a: Grade, b: Grade):
    """Exact l-infinity distance of two grades."""
    return max(abs(x - y) for x, y in zip(a.coords, b.coords))


def point_at(line: LineSpec, t) -> Grade:
    """The point of the line at parameter t."""
    return Grade(b + rat(t) * d for b, d in zip(line.base.coords, line.direction))


def grid_points(grid) -> list[Grade]:
    """Im G, the product of a grid's axes, in lexicographic order."""
    return [Grade(p) for p in itertools.product(*grid.axes)]


def betti_grades(P) -> list[Grade]:
    """The generator grades, then the relation grades, of a presentation."""
    return [g.grade for g in P.gens] + [r.grade for r in P.rels]


def lines_of(sample) -> tuple[LineSpec, ...]:
    """The LineSpecs of a LineSample, in its order."""
    return tuple(group.line(k) for group in sample.groups for k in group.bases)


def barcode_of(bars) -> Barcode:
    """The Barcode of rational bars: a {(birth, death): multiplicity} mapping,
    or (birth, death) pairs and (birth, death, multiplicity) triples, each end
    an int, Fraction or string and a death possibly INF, put at the lcm of
    their denominators."""
    triples = ([(b, d, m) for (b, d), m in bars.items()] if isinstance(bars, dict)
               else [bar if len(bar) == 3 else (*bar, 1) for bar in bars])
    ends = [(rat(b), d if d == INF else rat(d), m) for b, d, m in triples]
    scale = math.lcm(1, *(c.denominator for b, d, _ in ends for c in (b, d) if c != INF))
    return Barcode(scale, [(int(b * scale), d if d == INF else int(d * scale), m) for b, d, m in ends])


def zero_module(n: int = 2, p: int = 2) -> Presentation:
    return Presentation(n, p, (), ())


def random_module(rng: random.Random, p: int = 2, summands: int = 2, **kw) -> Presentation:
    """A direct sum of 1 to summands random staircases (experiments.random_staircase)."""
    first = random_staircase(rng, p=p, **kw)
    return direct_sum(first, *[random_staircase(rng, p=p, **kw) for _ in range(rng.randint(0, summands - 1))])


def tangled_module(rng: random.Random, n: int, p: int) -> Presentation:
    """A small presentation on which the reduction path shows.

    Grades lie on {0, 1, 2}^n, so generators and relations tie often.  About
    half the relations sit at a generator's grade, where they often hold
    several generators of that grade, so cancellations chain; the others
    sit at the join of two generator grades, some lifted by up to 1 per
    coordinate.  Each column holds about 70% of the generators below its
    grade; up to two more relations are combinations of two drawn before.
    """
    gens = [Grade([rng.randint(0, 2) for _ in range(n)]) for _ in range(rng.randint(1, 7))]
    rels = []
    for _ in range(rng.randint(1, 9)):
        at = rng.choice(gens)
        if rng.random() < 0.5:
            at = at.join(rng.choice(gens)).plus([rng.randint(0, 1) for _ in range(n)])
        rels.append((at, {i: rng.randint(1, p - 1) for i, a in enumerate(gens) if a.leq(at) and rng.random() < 0.7}))
    for _ in range(rng.randint(0, 2)):
        (a, c), (b, d), f = rng.choice(rels), rng.choice(rels), rng.randint(1, p - 1)
        rels.append((a.join(b), {i: c.get(i, 0) + f * d.get(i, 0) for i in set(c) | set(d)}))
    return Presentation(n, p, tuple(Generator(f"g{i}", a) for i, a in enumerate(gens)),
                        tuple(Relation(a, make_column(col, p)) for a, col in rels))


def entangled(P, rng):
    """A non-minimal presentation of P's module.

    Adds a generator z with the cancelling relation z + c * x_i at z's grade,
    mixes that relation into some relations above it, and appends the sum
    of two relations at a grade above both.
    """
    p = P.p
    i = rng.randrange(len(P.gens))
    a = P.gens[i].grade.plus([rng.randint(0, 2), rng.randint(0, 2)])
    pair = [(len(P.gens), 1), (i, rng.randint(1, p - 1))]
    rels = []
    for r in P.rels:
        col = list(r.col)
        if a.leq(r.grade) and rng.random() < 0.5:
            col += [(j, rng.randint(1, p - 1) * c) for j, c in pair]
        rels.append(Relation(r.grade, make_column(col, p)))
    rels.append(Relation(a, make_column(pair, p)))
    r1, r2 = rng.sample(rels, 2)
    rels.append(Relation(r1.grade.join(r2.grade).plus([Fraction(1, 3), 0]),
                         make_column(list(r1.col) + list(r2.col), p)))
    return Presentation(2, p, P.gens + (Generator("z", a),), tuple(rels))


def translate_joint_by_fractions(P: Presentation, eps) -> FractionJoint:
    """Joint presentation of P and its diagonal eps-translate.

    Cross relations identify each generator with its shifted copy on both
    sides, so every waypoint is isomorphic to the fractional translate.
    """
    e = rat(eps)
    k = len(P.gens)
    cross = [make_column({k + i: 1, i: P.p - 1}, P.p) for i in range(k)]
    x_n = tuple(Generator(g.label, translated(g.grade, e)) for g in P.gens)
    r_m = tuple(P.rels) + tuple(Relation(translated(g.grade, 2 * e), col) for g, col in zip(P.gens, cross))
    r_n = (tuple(Relation(translated(r.grade, e), r.col) for r in P.rels)
           + tuple(Relation(translated(g.grade, e), col) for g, col in zip(P.gens, cross)))
    return FractionJoint(P.n, P.p, e, tuple(P.gens), x_n, r_m, r_n)


def translate_joint(P: Presentation, eps) -> JointPresentation:
    """The library's joint presentation of P and its diagonal eps-translate."""
    return joint_of(translate_joint_by_fractions(P, eps))


def block_presentation(blocks, p: int = 2) -> Presentation:
    """Direct sum of the blocks' extended rectangles: one generator at the
    lower corner, one relation per finite upper side."""
    parts = []
    for i, blk in enumerate(blocks):
        rect = extend_block(blk)
        (l1, l2), (u1, u2) = rect.lower.coords, rect.upper
        rels = [Relation(Grade(c), ((0, 1),)) for c, u in (([u1, l2], u1), ([l1, u2], u2)) if u != INF]
        parts.append(Presentation(2, p, (Generator(f"blk{i}", rect.lower),), tuple(rels)))
    return direct_sum(*parts)


# -- the Fraction constructions: Generator and Relation objects built into a
# module through Presentation(n, p, gens, rels), the plain route of the
# library's integer constructions

def incompleteness_pair_by_fractions(eps=1, p: int = 2) -> tuple[Presentation, Presentation]:
    """experiments.incompleteness_pair from Fraction grades."""
    e = rat(eps)
    ga, gb, gc = Grade([e, 0]), Grade([0, e]), Grade([e, e])
    N = Presentation(2, p, (Generator("a", ga), Generator("b", gb)),
                     (Relation(Grade([10 * e, 0]), ((0, 1),)), Relation(Grade([0, 10 * e]), ((1, 1),)),
                      Relation(Grade([e, 10 * e]), ((0, 1),)), Relation(Grade([10 * e, e]), ((1, 1),))))
    O = Presentation(2, p, N.gens + (Generator("c", gc),),
                     (Relation(gc, ((0, p - 1), (1, 1))),) + N.rels
                     + (Relation(Grade([10 * e, e]), ((2, 1),)), Relation(Grade([e, 10 * e]), ((2, 1),))))
    return N, O


def jitter_by_fractions(P: Presentation, rng: random.Random, amount) -> Presentation:
    """experiments.jitter_module on Fraction grades: generators move down and
    relations up by amount * randint(0, 4) / 4 per coordinate, drawn in the
    same order."""
    amt = rat(amount)

    def wiggle():
        return amt * rng.randint(0, 4) / 4

    gens = tuple(Generator(g.label, Grade([c - wiggle() for c in g.grade.coords])) for g in P.gens)
    rels = tuple(Relation(Grade([c + wiggle() for c in r.grade.coords]), r.col) for r in P.rels)
    return Presentation(P.n, P.p, gens, rels)


@dataclass(frozen=True)
class FractionJoint:
    """A joint presentation as Fraction Generators and Relations.

    x_m/x_n hold each module's generators at their own grades; r_m/r_n are
    homogeneous relation sets over the concatenated generators (x_m first),
    graded in the owning module's frame.  Both endpoints are checked.
    """

    n: int
    p: int
    epsilon: Fraction
    x_m: tuple[Generator, ...]
    x_n: tuple[Generator, ...]
    r_m: tuple[Relation, ...]
    r_n: tuple[Relation, ...]

    def __post_init__(self):
        if rat(self.epsilon) < 0:
            raise PresentationError("joint presentation needs eps >= 0")
        for t in (0, 1):
            interpolate_by_fractions(self, t)


def interpolate_by_fractions(J: FractionJoint, t) -> Presentation:
    """functors.interpolate on Fraction grades: x_m and r_m slide up by t*eps,
    x_n and r_n by (1-t)*eps."""
    tq = rat(t)
    if not 0 <= tq <= 1:
        raise PresentationError(f"interpolation parameter {tq} outside [0, 1]")
    up_m, up_n = tq * J.epsilon, (1 - tq) * J.epsilon
    gens = ([Generator(f"m.{g.label}", translated(g.grade, up_m)) for g in J.x_m]
            + [Generator(f"n.{g.label}", translated(g.grade, up_n)) for g in J.x_n])
    rels = ([Relation(translated(r.grade, up_m), r.col) for r in J.r_m]
            + [Relation(translated(r.grade, up_n), r.col) for r in J.r_n])
    return Presentation(J.n, J.p, tuple(gens), tuple(rels))


def joint_text(J: FractionJoint) -> str:
    """The joint file of a FractionJoint: its epsilon, then one fpres block per module."""
    out = [f"epsilon {rat_str(J.epsilon)}"]
    for gens, rels in ((J.x_m, J.r_m), (J.x_n, J.r_n)):
        out += ["fpres 1", f"field {J.p}", f"params {J.n}", f"generators {len(gens)}"]
        out += [f"g {x.label} {x.grade}" for x in gens] + [f"relations {len(rels)}"]
        out += [f"r {r.grade} ; " + " ".join(f"{c}:{i}" for i, c in r.col) for r in rels]
    return "\n".join(out) + "\n"


def joint_of(J: FractionJoint) -> JointPresentation:
    """The library's JointPresentation of a FractionJoint."""
    gens, rels = [g.grade for g in J.x_m + J.x_n], [r.grade for r in J.r_m + J.r_n]
    S = math.lcm(J.epsilon.denominator, *(c.denominator for a in gens + rels for c in a.coords))
    return JointPresentation.from_integers(
        J.n, J.p, J.epsilon, S, [g.label for g in J.x_m + J.x_n], [scale_grade(a, S) for a in gens],
        [scale_grade(a, S) for a in rels], [r.col for r in J.r_m + J.r_n], len(J.x_m), len(J.r_m))
