"""Finitely presented persistence modules over a prime field.

A Presentation is a graded generator set X plus homogeneous relation columns
R, standing for the module Free[X] / <R>.  Coefficients live in F_p (default
p = 2, any prime accepted) and are stored sparsely; grades are exact
rationals, stored as integers at a common scale (see Presentation).
Homogeneity means every relation dominates the grades of the generators it
touches, so the monomial carrying each entry exists.  Both constructors end
in the one check of relation columns (index range, strictly increasing
indices, coefficients in [0, p), homogeneity on the integer grades), which
drops zero entries; its PresentationError carries the column's index.

The operations here are construction and validation, minimization to a
canonical minimal presentation in one grade-ordered sweep (each
Presentation keeps its minimal form once computed, as .minimal), Betti
multisets with their grid and controlling constant, the pointwise Hilbert
function, internal-morphism ranks, the generalized rank over 2-parameter
staircase intervals, direct sums and grade shifts.

ScaledModule alone answers which generators and relations lie below a
grade, on integer grades; it starts from the presentation's integer form,
multiplied when a caller needs a common scale with other grades.
minimize sweeps the presentation's own cached ScaledModule, block by block,
and hilbert and rank_between floor their rational queries into it.
free and staircase_interval build their output in integer form, checked
(from_integers); minimize, shift and direct_sum build theirs unchecked
(trusted).  common_scale and scale_grade serve the grades that are not a
module's: probes, corners and line bases.  Generator and Relation, the
Fraction views gens and rels, and the constructor that reads them are an
adapter for callers outside the package; no module of it calls them.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

from . import kernels
from .grades import (
    Grade,
    GridFunction,
    controlling_constant,
    grade_text,
    grid_from_grades,
    rat,
    unscaled,
)


class PresentationError(ValueError):
    """Structurally invalid presentation data; relation indexes the rejected relation column, if any."""

    def __init__(self, message: str, relation: int | None = None):
        super().__init__(message)
        self.relation = relation


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_LIMIT = 3317044064679887385961981  # least strong pseudoprime to all the bases


def _is_prime(p: int) -> bool:
    """Miller-Rabin with the primes up to 37 as bases, exact for p < PRIME_LIMIT."""
    if p < 2:
        return False
    if p >= PRIME_LIMIT:
        raise PresentationError(f"field characteristic {p} is too large to certify as prime")
    if any(p % a == 0 for a in _PRIME_BASES):
        return p in _PRIME_BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_field(p: int) -> None:
    if not _is_prime(p):
        raise PresentationError(f"field characteristic {p} is not prime")


@dataclass(frozen=True)
class Generator:
    label: str
    grade: Grade


@dataclass(frozen=True)
class Relation:
    """A homogeneous relation: its grade and a sparse column over generators."""

    grade: Grade
    col: tuple[tuple[int, int], ...]  # (generator index, nonzero coefficient mod p), indices increasing


def make_column(entries: dict[int, int] | Iterable[tuple[int, int]], p: int) -> tuple[tuple[int, int], ...]:
    """Canonicalize a column: reduce mod p, drop zeros, sort by index."""
    d: dict[int, int] = {}
    items = entries.items() if isinstance(entries, dict) else entries
    for i, c in items:
        v = (d.get(i, 0) + c) % p
        if v:
            d[i] = v
        else:
            d.pop(i, None)
    return tuple(sorted(d.items()))


@dataclass(frozen=True, init=False)
class Presentation:
    """The module Free[gens] / <rels>, stored once in its integer form.

    scale is the lcm of the grades' denominators (1 when there are none);
    scaled_gens and scaled_rels are the grades times scale, as integer
    tuples in input order; cols are the relation columns, with indices
    increasing and coefficients in [1, p).  Equal fields mean equal labels,
    rational grades and columns.  from_integers takes the integer form at
    any common scale, and trusted takes it unchecked.  The adapter
    Presentation(n, p, gens, rels) reads Generators and Relations, and gens
    and rels, with Fraction grades, are built on first use.
    """

    n: int
    p: int
    scale: int
    labels: tuple[str, ...]
    scaled_gens: tuple[tuple[int, ...], ...]
    scaled_rels: tuple[tuple[int, ...], ...]
    cols: tuple[tuple[tuple[int, int], ...], ...]

    def __init__(self, n: int, p: int, gens: Sequence[Generator], rels: Sequence[Relation]):
        grades = [g.grade for g in gens] + [r.grade for r in rels]
        scale = common_scale(c for a in grades for c in a.coords)
        points = [scale_grade(a, scale) for a in grades]
        self._store(n, p, scale, [g.label for g in gens], points[:len(gens)], points[len(gens):], [r.col for r in rels])

    @classmethod
    def from_integers(cls, n: int, p: int, scale: int, labels: Sequence[str], gens: Sequence[tuple[int, ...]],
                      rels: Sequence[tuple[int, ...]], cols: Sequence[tuple[tuple[int, int], ...]]) -> Presentation:
        """The module whose grades are the integer tuples gens and rels divided by scale."""
        out = object.__new__(cls)
        out._store(n, p, scale, labels, gens, rels, cols)
        return out

    @classmethod
    def trusted(cls, n: int, p: int, scale: int, labels: Sequence[str], gens: Sequence[tuple[int, ...]],
                rels: Sequence[tuple[int, ...]], cols: Sequence[tuple[tuple[int, int], ...]]) -> Presentation:
        """from_integers without the checks, for what the library derives
        from checked modules: only the scale is made canonical."""
        out = object.__new__(cls)
        out._keep(n, p, scale, tuple(labels), tuple(gens), tuple(rels), tuple(cols))
        return out

    def _store(self, n, p, scale, labels, gens, rels, cols) -> None:
        """Check the integer form and store it at the canonical scale."""
        if n < 1:
            raise PresentationError("parameter count must be at least 1")
        check_field(p)
        G, R, labels, cols = tuple(gens), tuple(rels), tuple(labels), tuple(cols)
        if (len(labels), len(cols)) != (len(G), len(R)):
            raise PresentationError(f"{len(labels)} labels and {len(cols)} columns for {len(G)} generators "
                                    f"and {len(R)} relations")
        for label, a in zip(labels, G):
            if len(a) != n:
                raise PresentationError(f"generator {label!r} has dimension {len(a)}, expected {n}")
        zeros = False
        for k, (a, col) in enumerate(zip(R, cols)):
            if len(a) != n:
                raise PresentationError(f"relation {k} has dimension {len(a)}, expected {n}", k)
            last = -1
            for i, c in col:
                if not 0 <= i < len(G):
                    raise PresentationError(f"relation {k} references generator index {i}", k)
                if i <= last:
                    raise PresentationError(f"relation {k} names generator {i} twice or out of order", k)
                if not 0 <= c < p:
                    raise PresentationError(f"relation {k} coefficient {c} out of range for F_{p}", k)
                if not leq(G[i], a):
                    at, below = grade_text([a, G[i]], scale)
                    raise PresentationError(f"relation {k} at grade ({at}) lies below generator "
                                            f"{labels[i]!r} at ({below})", k)
                zeros = zeros or not c
                last = i
        if zeros:  # text formats may write entries with coefficient 0: checked above, dropped here
            cols = tuple(tuple((i, c) for i, c in col if c) for col in cols)
        self._keep(n, p, scale, labels, G, R, cols)

    def _keep(self, n, p, scale, labels, G, R, cols) -> None:
        """Store the integer form with the grades and scale divided by their gcd."""
        common = math.gcd(scale, *itertools.chain(*G, *R)) if scale > 1 else 1
        if common > 1:
            scale //= common
            G, R = (tuple(tuple(v // common for v in a) for a in points) for points in (G, R))
        self.__dict__.update(n=n, p=p, scale=scale, labels=labels, scaled_gens=G, scaled_rels=R, cols=cols)

    @cached_property
    def gens(self) -> tuple[Generator, ...]:
        return tuple(map(Generator, self.labels, unscaled(self.scaled_gens, self.scale)))

    @cached_property
    def rels(self) -> tuple[Relation, ...]:
        return tuple(map(Relation, unscaled(self.scaled_rels, self.scale), self.cols))

    # -- pointwise linear algebra -------------------------------------------

    @cached_property
    def _scaled(self) -> ScaledModule:
        return ScaledModule(self, self.scale)

    def hilbert(self, a: Grade) -> int:
        """dim M_a = #{generators <= a} - rank of the relation columns <= a."""
        M = self._scaled
        return M.dim(M.floor(a))

    def rank_between(self, a: Grade, b: Grade) -> int:
        """Rank of the internal morphism M_a -> M_b for a <= b."""
        M = self._scaled
        fa, fb = M.floor(a), M.floor(b)
        if not a.leq(b):
            raise PresentationError("rank_between needs a <= b")
        return M.rank_between(fa, fb)

    # -- derived data --------------------------------------------------------

    @cached_property
    def minimal(self) -> Presentation:
        """The minimal presentation of the same module, computed once per object."""
        return minimize(self)


@dataclass(frozen=True)
class BettiData:
    """Betti multisets of a minimal presentation with their grid."""

    xi0: Counter
    xi1: Counter
    grid: GridFunction
    c: object  # exact rational, or math.inf

    @property
    def partial_complexity(self) -> int:
        """|xi0| + |xi1| with multiplicity (degrees 0 and 1 only)."""
        return sum(self.xi0.values()) + sum(self.xi1.values())


# -- constructors -------------------------------------------------------------


def free(grades: Sequence[Grade], p: int = 2, labels: Sequence[str] | None = None) -> Presentation:
    if labels is None:
        labels = [f"g{i}" for i in range(len(grades))]
    scale = common_scale(c for a in grades for c in a.coords)
    return Presentation.from_integers(grades[0].n if grades else 1, p, scale, labels,
                                      [scale_grade(a, scale) for a in grades], (), ())


def staircase_interval(births: Sequence[Grade], deaths: Sequence[Grade] = (), p: int = 2) -> Presentation:
    """Presentation of the 2-d interval up(births) minus up(deaths).

    Generators sit at the birth corners; adjacent birth pairs get a merge
    relation at their join; each death bound contributes one relation on a
    generator below it.  Both corner sets must be antichains and every death
    must dominate some birth.
    """
    births, deaths = list(births), list(deaths)
    if not births:
        raise PresentationError("staircase needs at least one birth corner")
    if any(g.n != 2 for g in births + deaths):
        raise PresentationError("staircase intervals are 2-parameter only")
    scale = common_scale(c for g in births + deaths for c in g.coords)
    B, D = ([scale_grade(g, scale) for g in corners] for corners in (births, deaths))
    # a point that repeats or lies above another is not minimal
    if len(minimal_elements(B)) < len(B):
        raise PresentationError("birth corners must form an antichain")
    if len(minimal_elements(D)) < len(D):
        raise PresentationError("death bounds must form an antichain")
    B.sort()
    rels = [tuple(map(max, a, b)) for a, b in zip(B, B[1:])]
    cols = [((i, 1), (i + 1, p - 1)) for i in range(len(B) - 1)]
    for d, a in zip(deaths, D):
        under = [i for i, b in enumerate(B) if leq(b, a)]
        if not under:
            raise PresentationError(f"death bound ({d}) dominates no birth corner")
        rels.append(a)
        cols.append(((under[0], 1),))
    return Presentation.from_integers(2, p, scale, [f"b{i}" for i in range(len(B))], B, rels, cols)


# -- structural operations -----------------------------------------------------


def rescaled(points: Sequence[tuple[int, ...]], factor: int) -> Sequence[tuple[int, ...]]:
    """Integer grades times factor; the same points when factor is 1."""
    if factor == 1:
        return points
    return [tuple(v * factor for v in a) for a in points]


def shift(P: Presentation, v) -> Presentation:
    """Translate every generator and relation grade by +v (vector or scalar)."""
    w = Grade([0] * P.n).plus([v] * P.n if isinstance(v, (int, str, Fraction)) else v)
    S = math.lcm(P.scale, common_scale(w.coords))
    w = scale_grade(w, S)

    def moved(points):
        return [tuple(x + d for x, d in zip(a, w)) for a in rescaled(points, S // P.scale)]

    return Presentation.trusted(P.n, P.p, S, P.labels, moved(P.scaled_gens), moved(P.scaled_rels), P.cols)


def direct_sum(P: Presentation, *others: Presentation) -> Presentation:
    """P plus the others in order, built once; a later summand's label that
    is already taken gets 'r.' prefixes until it is free."""
    if any(Q.n != P.n or Q.p != P.p for Q in others):
        raise PresentationError("direct sum needs matching dimension and field")
    S = math.lcm(P.scale, *(Q.scale for Q in others))
    labels, taken, gens, rels, cols = list(P.labels), set(P.labels), [], [], []
    for k, Q in enumerate((P, *others)):
        for label in Q.labels if k else ():
            while label in taken:
                label = f"r.{label}"
            taken.add(label)
            labels.append(label)
        off = len(gens)
        gens += rescaled(Q.scaled_gens, S // Q.scale)
        rels += rescaled(Q.scaled_rels, S // Q.scale)
        cols += [tuple((i + off, c) for i, c in col) for col in Q.cols]
    return Presentation.trusted(P.n, P.p, S, labels, gens, rels, cols)


# -- minimization ---------------------------------------------------------------


def minimize(P: Presentation) -> Presentation:
    """Minimal presentation of the same module, in a normal form fixed by the
    generator order and the relation module alone.

    One sweep per block of P._scaled (its direct summands) visits the
    relations in (grade, index) order, each once.  A column first gets the
    earlier cancellations substituted in.  If it then holds a generator of
    its own grade g, the least-index one is cancelled against it.  Otherwise
    it is cleared (kernels.cleared) of the pivot rows of L_g, the span of the
    kept relations at grades strictly below g, on an EchelonStack rebased
    per grade; the columns of grade g are then brought to reduced echelon
    form, top entry 1, and dependent ones drop.  The output is in (grade,
    pivot row) order; empty columns lie in no block and drop.

    The kept generators are the ones every reduce-and-cancel order keeps: no
    relation below g holds a generator of grade g, so a column's own-grade
    entries change only through the substitutions.  The kept generators X'
    fix the relation module on them, <R> meet Free[X'], and with it L_g and
    the relations at g.  A coset modulo L_g has one member with no entry on
    a pivot row of L_g, and a space one reduced echelon basis: so the output
    is unique.  The Hilbert function is preserved at every grade.
    """
    M, p = P._scaled, P.p
    cancelled: dict[int, dict[int, int]] = {}  # generator -> the multiple of its relation with a 1 on it
    at_grade: dict[tuple, list[int]] = {}
    for i, a in enumerate(M.gens):
        at_grade.setdefault(a, []).append(i)
    kept = []
    for _, rel_mask in M.blocks:
        done: list[tuple[int, dict[int, int]]] = []  # (a relation of its grade, column), keyed by position
        stack, last = kernels.EchelonStack(p), None
        for k in sorted(bits(rel_mask), key=lambda k: (M.rels[k][0], k)):
            g, col = M.rels[k]
            if g != last:
                last, units, basis = g, [], None  # basis: the reduced echelon basis of grade g, once rebased
            if cancelled and not cancelled.keys().isdisjoint(col):
                col = dict(col)
                for b in [i for i in col if i in cancelled]:
                    kernels.eliminate(col, cancelled[b], b, p)
            own = g in at_grade and col.keys() & at_grade[g]
            if own:
                b = min(own)
                inv = pow(col[b], p - 2, p)
                unit = cancelled[b] = {i: v * inv % p for i, v in col.items()}
                for u in units:  # only a unit of this grade can hold b
                    if b in u:
                        kernels.eliminate(u, unit, b, p)
                units.append(unit)
                continue
            if basis is None:
                mask, basis = M.rels_below(g), {}
                stack.rebase([(n, c) for n, (j, c) in enumerate(done) if mask >> j & 1])
            col = kernels.cleared(col, stack.pivots, p)
            for low, u in basis.items():
                if low in col:
                    kernels.eliminate(col, u, low, p)
            if not col:
                continue
            low = max(col)
            if col[low] != 1:
                inv = pow(col[low], p - 2, p)
                col = {i: v * inv % p for i, v in col.items()}
            for u in basis.values():
                if low in u:
                    kernels.eliminate(u, col, low, p)
            basis[low] = col
            done.append((k, col))
            kept.append((g, low, col))
    kept.sort(key=lambda item: item[:2])
    live = [i for i in range(len(M.gens)) if i not in cancelled]
    index = {i: k for k, i in enumerate(live)}
    return Presentation.trusted(
        P.n, P.p, P.scale, [P.labels[i] for i in live], [M.gens[i] for i in live], [g for g, _, _ in kept],
        [tuple(sorted((index[i], c) for i, c in col.items())) for _, _, col in kept])


def betti_and_grid(P: Presentation) -> BettiData:
    """Betti multisets xi0/xi1 of P.minimal, plus grid and c."""
    M = P.minimal
    xi0, xi1 = (Counter(dict(zip(unscaled(list(c), M.scale), c.values())))
                for c in map(Counter, (M.scaled_gens, M.scaled_rels)))
    grid = grid_from_grades(set(xi0) | set(xi1)) if (xi0 or xi1) else GridFunction([[]] * M.n)
    return BettiData(xi0, xi1, grid, controlling_constant(grid))


# -- integer-scaled queries and the generalized rank over staircase intervals ----


def common_scale(values: Iterable) -> int:
    """Least common multiple of the denominators of exact rationals."""
    return math.lcm(1, *{rat(v).denominator for v in values})


def scale_grade(a: Grade, scale: int) -> tuple[int, ...]:
    """scale * a rounded down: its integer coordinates when scale clears a's denominators."""
    return tuple(c.numerator * scale // c.denominator for c in a.coords)


def leq(a, b) -> bool:
    """a <= b in every coordinate, on integer grade tuples."""
    return all(map(operator.le, a, b))


def _just_below(c) -> tuple[int, ...]:
    """On integer grades, a < c in every coordinate iff a <= c - (1, ..., 1)."""
    return tuple(v - 1 for v in c)


def minimal_elements(points) -> list[tuple[int, int]]:
    """The minimal elements of a set of 2-d points, by increasing x (so decreasing y).

    In (x, y) order, a point is minimal iff its y lies below that of the last one kept.
    """
    out: list[tuple[int, int]] = []
    for q in sorted(set(points)):
        if not out or q[1] < out[-1][1]:
            out.append(q)
    return out


BASIS_WINDOW = 32

EMPTY = "empty"
DISCONNECTED = "disconnected"


def staircase_fences(births, deaths):
    """Lower and upper fence of K = up(births) minus up(deaths), 2-d integer corners.

    Returns (B, joins, tops), or EMPTY / DISCONNECTED.  B are the births
    outside up(deaths), sorted by x, and joins the joins of consecutive
    ones; lim over K is the limit over the zigzag B[0] <= joins[0] >= B[1]
    <= ...  tops are the corners of up(deaths) that K approaches from below
    (a birth lies strictly below them), x increasing and y decreasing, so
    the tops a grade lies strictly below form a run; colim over K is M
    just below the tops (grades < corner in every coordinate), each grade's
    copies glued into one.  K is connected iff no join lies in up(deaths):
    a dead join splits K into the part left of it and the part below it.
    When K is connected, consecutive tops have a birth strictly below their
    meet, so the upper fence lies in K too.  Raises PresentationError when
    a nonempty K is unbounded.
    """
    D = minimal_elements(deaths)

    def dead(q) -> bool:
        return any(leq(d, q) for d in D)

    B = [b for b in minimal_elements(births) if not dead(b)]
    if not B:
        return EMPTY
    if not D or D[0][0] > B[0][0] or D[-1][1] > B[-1][1]:
        raise PresentationError("staircase interval is unbounded: the deaths do not close it")
    joins = [(B[i + 1][0], B[i][1]) for i in range(len(B) - 1)]
    if any(dead(j) for j in joins):
        return DISCONNECTED

    def reached(c) -> bool:
        return any(leq(b, _just_below(c)) for b in B)

    tops = [c for c in ((D[i + 1][0], D[i][1]) for i in range(len(D) - 1)) if reached(c)]
    return B, joins, tops


class Below:
    """Which of a list of integer points lie below a query point, as a bitmask.

    Per axis it keeps the sorted coordinates and, for each prefix, the mask
    of the points in it, so a query costs one bisection and one AND per axis.
    """

    def __init__(self, points: Sequence[tuple[int, ...]], n: int):
        self.axes = []
        for k in range(n):
            order = sorted(range(len(points)), key=lambda i: points[i][k])
            masks = [0]
            for i in order:
                masks.append(masks[-1] | 1 << i)
            self.axes.append(([points[i][k] for i in order], masks))

    def __call__(self, a) -> int:
        mask = -1
        for (vals, masks), v in zip(self.axes, a):
            mask &= masks[bisect_right(vals, v)]
        return mask

    def runs(self) -> list[list[tuple[int, int]]]:
        """Per axis, each distinct coordinate in increasing order with the mask of the points at or below it."""
        return [list(dict(zip(vals, masks[1:])).items()) for vals, masks in self.axes]


def _monic(vector: dict[int, int], p: int) -> tuple:
    """The entries of a nonzero vector's multiple whose lowest-index entry is 1, in index order."""
    inv = pow(vector[min(vector)], p - 2, p)
    return tuple(sorted((i, c * inv % p) for i, c in vector.items()))


def bits(mask: int) -> list[int]:
    """The indices of the set bits of a mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class ScaledModule:
    """A presentation with every grade multiplied by a common integer scale.

    The scale is a multiple of the presentation's own: its integer grades
    are P's integer form, taken as they are at P.scale and multiplied by
    scale // P.scale otherwise, as when a caller puts two modules, or a
    module and eps, under one scale.  Its two Below indexes are the one
    answer to which generators and relations lie below a grade, for
    hilbert, minimize, the simplify sweep and the interval ranks.  One memo
    of echelon bases (rel_basis) serves dim, rank_between, interval_rank
    and in_span.  Query grades are integer tuples in the same units:
    scale_grade of a corner, or floor of any rational grade.  For
    restriction to lines it keeps one entry: its grades times the slopes of
    the last line it was restricted along (along), and a template memo
    (templates): the pairing fibered.pair_bars reduced for each (generator
    order, relation order) of its fibers, which lives as long as the view.
    blocks are its direct summands: no column has an entry outside its
    block, so reducing one block's columns reads no other block's pivots.
    """

    def __init__(self, P: Presentation, scale: int):
        factor, rest = divmod(scale, P.scale)
        if rest:
            raise PresentationError(f"scale {scale} is not a multiple of the module's scale {P.scale}")
        self.n, self.p, self.scale = P.n, P.p, scale
        self.gens = list(rescaled(P.scaled_gens, factor))
        self.rels = [(a, dict(col)) for a, col in zip(rescaled(P.scaled_rels, factor), P.cols)]
        self.gens_below = Below(self.gens, self.n)
        self.rels_below = Below([g for g, _ in self.rels], self.n)
        self._bases: dict[int, dict[int, dict[int, int]]] = {0: {}}  # in the order built
        self._along: tuple | None = None
        self.templates: dict = {}

    @cached_property
    def blocks(self) -> list[tuple[int, int]]:
        """The connected components of the generator-relation incidence, as
        (generator mask, relation mask) pairs in order of their lowest
        generator.  A relation with an empty column joins no block; a
        generator no relation holds is a block with an empty relation mask."""
        parent = list(range(len(self.gens)))
        for _, col in self.rels:
            first = None
            for i in col:
                while parent[i] != i:
                    parent[i] = i = parent[parent[i]]
                first = i if first is None else first
                parent[i] = first
        masks: dict[int, list[int]] = {}
        for i in range(len(parent)):
            root = i
            while parent[root] != root:
                root = parent[root]
            parent[i] = root
            masks.setdefault(root, [0, 0])[0] |= 1 << i
        for k, (_, col) in enumerate(self.rels):
            if col:
                masks[parent[next(iter(col))]][1] |= 1 << k
        return [(gens, rels) for gens, rels in masks.values()]

    def floor(self, a: Grade) -> tuple[int, ...]:
        """scale * a rounded down: scaled grades are integers, so g <= scale * a iff g <= floor(a)."""
        if a.n != self.n:
            raise PresentationError(f"grade dimension {a.n} != {self.n}")
        return scale_grade(a, self.scale)

    def along(self, slopes: tuple[int, ...]) -> tuple[list, list, list]:
        """Per axis i, the generators' and the relations' coordinate i times
        slopes[i], and the relation columns.

        Only the last slopes asked for are kept, so a caller that visits the
        lines of one direction together multiplies once per direction and
        holds one module's worth of products.
        """
        if self._along is None or self._along[0] != slopes:
            self._along = (slopes,
                           [[g[i] * m for g in self.gens] for i, m in enumerate(slopes)],
                           [[g[i] * m for g, _ in self.rels] for i, m in enumerate(slopes)],
                           [col for _, col in self.rels])
        return self._along[1:]

    def rel_basis(self, key: int) -> dict[int, dict[int, int]]:
        """Echelon basis of the columns in the bitmask key: bit k < R is
        relation k's column and bit R + i the unit vector e_i, R = len(rels).

        A new key grows a copy of the basis of its largest subset among the
        last BASIS_WINDOW keys built (or of the empty key) by the columns it
        adds.  Callers read only ranks and memberships from a basis, which
        do not depend on the basis chosen, and never change it.
        """
        basis = self._bases.get(key)
        if basis is None:
            recent = itertools.islice(reversed(self._bases), BASIS_WINDOW)
            base = max((k for k in recent if not k & ~key), key=int.bit_count, default=0)
            R = len(self.rels)
            columns = [self.rels[k][1] if k < R else {k - R: 1} for k in bits(key & ~base)]
            basis = self._bases[key] = kernels.extend(self._bases[base], columns, self.p)
        return basis

    @cached_property
    def _monic_rels(self) -> dict[tuple, int]:
        """The mask of the relations with each monic column."""
        index: dict[tuple, int] = {}
        for k, (_, col) in enumerate(self.rels):
            if col:
                m = _monic(col, self.p)
                index[m] = index.get(m, 0) | 1 << k
        return index

    def in_span(self, vector: dict[int, int], a) -> bool:
        """Is vector in the span of the relation columns <= a?  A multiple
        of one of them is, with no elimination; others are reduced."""
        if not vector:
            return True
        key = self.rels_below(a)
        if self._monic_rels.get(_monic(vector, self.p), 0) & key:
            return True
        return not kernels.residual(vector, self.rel_basis(key), self.p)

    def dim(self, a) -> int:
        """dim M_a."""
        k = self.gens_below(a).bit_count()
        return k - len(self.rel_basis(self.rels_below(a))) if k else 0

    def rank_between(self, a, b) -> int:
        """Rank of M_a -> M_b for a <= b: the units born by a, modulo the relations <= b."""
        gens = self.gens_below(a)
        if not gens:
            return 0
        key = self.rels_below(b)
        rels = len(self.rel_basis(key))
        return len(self.rel_basis(key | gens << len(self.rels))) - rels

    def interval_rank(self, births, deaths) -> int | None:
        """rank(lim_K M -> colim_K M) for K = up(births) minus up(deaths).

        None when K is empty or disconnected.  The limit is the set of
        values at B[0] that extend along the lower fence, found by walking
        it from the right: T_i = V_i meet (T_{i+1} + R_{join}), with V_i the
        span of the generators born by B[i].  T is units(U) + span(W): U a
        generator mask, first the generators <= B[-1], W vectors with no entry
        in U, first none.  x is in units(U) + S iff x off U (U's rows deleted)
        is in S off U.  So a vector on G, the generators <= B[i], is in T_i iff
        its part on G minus U is in (W + R_{join}) off U: a step is U <- U & G
        and W <- the meet of (W + R_{join}) off U with units(G minus U), one
        kernels.intersect that pushes no unit vector.
        A generator lies strictly below a run of consecutive tops (they run
        x-increasing and y-decreasing), and strictly below the meet of two
        tops iff below both, so the colimit glues its copies into one:
        colim_K M is the free module on the generators strictly below some
        top modulo R_U, the relations strictly below some top.  T_0 lies in
        it (B[0] is strictly below a top), and the rank is the number of
        pivots T_0 adds to the memoized echelon basis of R_U.
        """
        fences = staircase_fences(births, deaths)
        if isinstance(fences, str):
            return None
        B, joins, tops = fences
        U, W = self.gens_below(B[-1]), []
        for b, j in zip(reversed(B[:-1]), reversed(joins)):
            G = self.gens_below(b)
            rels = [{i: c for i, c in self.rels[k][1].items() if not U >> i & 1} for k in bits(self.rels_below(j))]
            W = [v for _, v in kernels.intersect(W + rels, bits(G & ~U), self.p)]
            U &= G
        if not U and not W:
            return 0
        key = 0
        for top in tops:
            key |= self.rels_below(_just_below(top))
        basis = self.rel_basis(key)
        return len(kernels.extend(basis, [{i: 1} for i in bits(U)] + W, self.p)) - len(basis)


def interval_rank(P: Presentation, births: Sequence[Grade], deaths: Sequence[Grade]) -> int | None:
    """Generalized rank of a 2-parameter module over a staircase interval.

    rk_M(K) = rank(lim_K M -> colim_K M) for K = up(births) minus up(deaths),
    which must be bounded.  Births inside up(deaths) are dropped; None means
    K is empty or disconnected (see staircase_fences).  For an interval
    module over I the rank is 1 when K lies inside I and 0 otherwise.
    """
    corners = list(births) + list(deaths)
    if P.n != 2 or any(g.n != 2 for g in corners):
        raise PresentationError("interval ranks are 2-parameter only")
    scale = math.lcm(P.scale, common_scale(c for g in corners for c in g.coords))
    M = ScaledModule(P, scale)
    return M.interval_rank([scale_grade(b, scale) for b in births],
                           [scale_grade(d, scale) for d in deaths])
