"""Independent oracles the tests check the library against.

Everything here recomputes results through a different route than the
package: dense textbook row reduction instead of the sparse pivot kernel,
inclusion-exclusion of ranks instead of reduction pairing for barcodes,
exhaustive enumeration for matchings and grids, and for larger matchings
the textbook diagonal-slot reduction to perfect bipartite matching.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

from multipres.grades import Grade

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
        pt = line.point_at(t)
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
                best = min(best, a.linf(b))
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
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
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
    image = []
    for x in lim:
        row = [0] * total
        for k in range(len(quot[c0][3])):
            row[offset[c0] + k] = x[offset[c0] + k]
        image.append(row)
    return dense_rank_mod_p(glue + image, p) - dense_rank_mod_p(glue, p)


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
        early = [i for i, g in enumerate(P.gens) if g.grade.translate(e).leq(s)]
        order = early + [i for i in range(len(P.gens)) if i not in set(early)]
        row_of = {i: k for k, i in enumerate(order)}
        cols = [{row_of[i]: c for i, c in r.col} for r in active]
        pure = [col for low, col in kernels.echelonize(cols, P.p) if low < len(early)]
        if not pure:
            continue
        have = [{row_of[i]: c for i, c in col.items()} for g2, col in out if g2.leq(s)]
        known = kernels.echelonize(have, P.p)
        for col in pure:
            res = kernels.residual(col, known, P.p)
            if res:
                known.append((max(res), res))
                out.append((s, {order[row]: c for row, c in col.items()}))
    return out
