"""Finitely presented persistence modules over a prime field.

A Presentation is a graded generator set X plus homogeneous relation columns
R, standing for the module Free[X] / <R>.  Coefficients live in F_p (default
p = 2, any prime accepted) and are stored sparsely; grades are exact
rationals.  Homogeneity means every relation dominates the grades of the
generators it touches, so the monomial carrying each entry exists.

The operations here are construction and validation, minimization by
grade-ordered column reduction with generator/relation cancellation, Betti
multisets with their grid and controlling constant, the pointwise Hilbert
function, internal-morphism ranks, the generalized rank over 2-parameter
staircase intervals, direct sums and grade shifts.

ScaledModule alone answers which generators and relations lie below a
grade, on integer grades; hilbert and rank_between floor their rational
queries into one ScaledModule at the presentation's own scale.
"""

from __future__ import annotations

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
    grid_from_grades,
    rat,
)


class PresentationError(ValueError):
    """Structurally invalid presentation data."""


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


@dataclass(frozen=True)
class Generator:
    label: str
    grade: Grade


@dataclass(frozen=True)
class Relation:
    """A homogeneous relation: its grade and a sparse column over generators."""

    grade: Grade
    col: tuple[tuple[int, int], ...]  # (generator index, coefficient mod p), sorted

    def as_dict(self) -> dict[int, int]:
        return dict(self.col)


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


@dataclass(frozen=True)
class Presentation:
    n: int
    p: int
    gens: tuple[Generator, ...]
    rels: tuple[Relation, ...]

    def __post_init__(self):
        if self.n < 1:
            raise PresentationError("parameter count must be at least 1")
        if not _is_prime(self.p):
            raise PresentationError(f"field characteristic {self.p} is not prime")
        for g in self.gens:
            if g.grade.n != self.n:
                raise PresentationError(f"generator {g.label!r} has dimension {g.grade.n}, expected {self.n}")
        for k, r in enumerate(self.rels):
            if r.grade.n != self.n:
                raise PresentationError(f"relation {k} has dimension {r.grade.n}, expected {self.n}")
            for i, c in r.col:
                if not 0 <= i < len(self.gens):
                    raise PresentationError(f"relation {k} references generator index {i}")
                if not 0 < c < self.p:
                    raise PresentationError(f"relation {k} coefficient {c} out of range for F_{self.p}")
                if not self.gens[i].grade.leq(r.grade):
                    raise PresentationError(
                        f"relation {k} at grade ({r.grade}) lies below generator "
                        f"{self.gens[i].label!r} at ({self.gens[i].grade})"
                    )

    # -- pointwise linear algebra -------------------------------------------

    @cached_property
    def _scaled(self) -> ScaledModule:
        return ScaledModule(self, common_scale(c for g in self.betti_grades() for c in g.coords))

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

    def labels(self) -> list[str]:
        return [g.label for g in self.gens]

    def betti_grades(self) -> list[Grade]:
        return [g.grade for g in self.gens] + [r.grade for r in self.rels]


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
    n = grades[0].n if grades else 1
    return Presentation(n, p, tuple(Generator(l, g) for l, g in zip(labels, grades)), ())


def zero_module(n: int = 2, p: int = 2) -> Presentation:
    return Presentation(n, p, (), ())


def _is_antichain(points: Sequence[Grade]) -> bool:
    for i, a in enumerate(points):
        for b in points[i + 1:]:
            if a.leq(b) or b.leq(a):
                return False
    return True


def staircase_interval(births: Sequence[Grade], deaths: Sequence[Grade] = (), p: int = 2) -> Presentation:
    """Presentation of the 2-d interval up(births) minus up(deaths).

    Generators sit at the birth corners; adjacent birth pairs get a merge
    relation at their join; each death bound contributes one relation on a
    generator below it.  Both corner sets must be antichains and every death
    must dominate some birth.
    """
    births = list(births)
    deaths = list(deaths)
    if not births:
        raise PresentationError("staircase needs at least one birth corner")
    if any(g.n != 2 for g in births + deaths):
        raise PresentationError("staircase intervals are 2-parameter only")
    if not _is_antichain(births):
        raise PresentationError("birth corners must form an antichain")
    if not _is_antichain(deaths):
        raise PresentationError("death bounds must form an antichain")
    order = sorted(range(len(births)), key=lambda i: (births[i].coords[0], births[i].coords[1]))
    births = [births[i] for i in order]
    gens = tuple(Generator(f"b{i}", g) for i, g in enumerate(births))
    rels: list[Relation] = []
    minus_one = p - 1
    for i in range(len(births) - 1):
        j = births[i].join(births[i + 1])
        rels.append(Relation(j, make_column({i: 1, i + 1: minus_one}, p)))
    for d in deaths:
        under = [i for i, g in enumerate(births) if g.leq(d)]
        if not under:
            raise PresentationError(f"death bound ({d}) dominates no birth corner")
        rels.append(Relation(d, make_column({under[0]: 1}, p)))
    return Presentation(2, p, gens, tuple(rels))


def construct(kind: str, **data) -> Presentation:
    """Dispatch for the three construction modes: free, staircase_interval, explicit."""
    if kind == "free":
        return free(**data)
    if kind == "staircase_interval":
        return staircase_interval(**data)
    if kind == "explicit":
        return Presentation(**data)
    raise PresentationError(f"unknown construction kind {kind!r}")


# -- structural operations -----------------------------------------------------


def shift(P: Presentation, v) -> Presentation:
    """Translate every generator and relation grade by +v (vector or scalar)."""
    if isinstance(v, (int, str, Fraction)):
        vec = [rat(v)] * P.n
    else:
        vec = [rat(c) for c in v]
    gens = tuple(Generator(g.label, g.grade.plus(vec)) for g in P.gens)
    rels = tuple(Relation(r.grade.plus(vec), r.col) for r in P.rels)
    return Presentation(P.n, P.p, gens, rels)


def direct_sum(P: Presentation, Q: Presentation) -> Presentation:
    if P.n != Q.n or P.p != Q.p:
        raise PresentationError("direct sum needs matching dimension and field")
    taken = set(P.labels())
    def qlabel(l: str) -> str:
        while l in taken:
            l = f"r.{l}"
        taken.add(l)
        return l
    gens = P.gens + tuple(Generator(qlabel(g.label), g.grade) for g in Q.gens)
    off = len(P.gens)
    rels = P.rels + tuple(
        Relation(r.grade, tuple((i + off, c) for i, c in r.col)) for r in Q.rels
    )
    return Presentation(P.n, P.p, gens, rels)


# -- minimization ---------------------------------------------------------------


def _reduction_pass(rels, p):
    """One grade-ordered reduction sweep over (grade, scaled grade, column) triples.

    Relations are visited in (lexicographic grade, input index) order and
    reduced against already-kept relations of dominated grade, which are the
    only ones that may act on them through monomial-shifted column ops.
    Dependent relations are dropped.
    """
    order = sorted(range(len(rels)), key=lambda i: (rels[i][1], i))
    kept: list[tuple[Grade, tuple[int, ...], dict[int, int]]] = []
    for i in order:
        grade, key, col = rels[i]
        usable = [c for (_, k2, c) in kept if _leq(k2, key)]
        basis = kernels.echelonize(usable, p)
        res = kernels.residual(col, basis, p)
        if res:
            kept.append((grade, key, res))
    return kept


def _find_cancellation(gens, rels):
    for j, (_, key, col) in enumerate(rels):
        hits = [i for i in sorted(col) if gens[i][1] == key]
        if hits:
            return j, hits[0]
    return None


def _cancel(gens, rels, j, b, p):
    """Remove relation j and generator b, substituting b's expression everywhere."""
    col = rels[j][2]
    c = col[b]
    cinv = pow(c, p - 2, p)
    rest = {i: v for i, v in col.items() if i != b}
    out = []
    for k, (g2, key, col2) in enumerate(rels):
        if k == j:
            continue
        d = col2.get(b)
        if d is None:
            new = dict(col2)
        else:
            new = {i: v for i, v in col2.items() if i != b}
            for i, v in rest.items():
                w = (new.get(i, 0) - d * cinv * v) % p
                if w:
                    new[i] = w
                else:
                    new.pop(i, None)
        out.append((g2, key, new))
    new_gens = [g for i, g in enumerate(gens) if i != b]
    remap = {i: (i if i < b else i - 1) for i in range(len(gens)) if i != b}
    out = [(g2, key, {remap[i]: v for i, v in col2.items()}) for g2, key, col2 in out]
    return new_gens, out


def minimize(P: Presentation) -> Presentation:
    """Minimal presentation of the same module.

    Alternates grade-ordered column reduction (dropping dependent relations)
    with generator/relation cancellation wherever a relation carries a unit
    pivot on a generator of equal grade, until neither applies.  The Hilbert
    function is preserved at every grade.  Order tests compare each grade's
    integer tuple under the common scale of all grades; the output carries
    the original Grades.
    """
    scale = common_scale(c for g in P.betti_grades() for c in g.coords)
    gens = [(g, scale_grade(g.grade, scale)) for g in P.gens]
    rels = [(r.grade, scale_grade(r.grade, scale), r.as_dict()) for r in P.rels]
    while True:
        rels = _reduction_pass(rels, P.p)
        hit = _find_cancellation(gens, rels)
        if hit is None:
            break
        j, b = hit
        gens, rels = _cancel(gens, rels, j, b, P.p)
    return Presentation(
        P.n,
        P.p,
        tuple(g for g, _ in gens),
        tuple(Relation(g, make_column(col, P.p)) for g, _, col in rels),
    )


def betti_and_grid(P: Presentation) -> BettiData:
    """Betti multisets xi0/xi1 from a minimal presentation, plus grid and c."""
    return betti_of_minimal(minimize(P))


def betti_of_minimal(M: Presentation) -> BettiData:
    """betti_and_grid for a presentation that is already minimal."""
    xi0 = Counter(g.grade for g in M.gens)
    xi1 = Counter(r.grade for r in M.rels)
    grid = grid_from_grades(set(xi0) | set(xi1)) if (xi0 or xi1) else GridFunction([[]] * M.n)
    return BettiData(xi0, xi1, grid, controlling_constant(grid))


# -- integer-scaled queries and the generalized rank over staircase intervals ----


def common_scale(values: Iterable) -> int:
    """Least common multiple of the denominators of exact rationals."""
    return math.lcm(1, *{rat(v).denominator for v in values})


def scale_grade(a: Grade, scale: int) -> tuple[int, ...]:
    """The integer coordinates of scale * a; scale must clear a's denominators."""
    out = []
    for c in a.coords:
        q, r = divmod(scale, c.denominator)
        if r:
            raise PresentationError(f"scale {scale} does not clear the denominators of ({a})")
        out.append(c.numerator * q)
    return tuple(out)


def _leq(a, b) -> bool:
    return all(map(operator.le, a, b))


def _lt(a, b) -> bool:
    return all(map(operator.lt, a, b))


def minimal_elements(points) -> list[tuple[int, int]]:
    """The minimal elements of a set of 2-d points, by increasing x (so decreasing y)."""
    out: list[tuple[int, int]] = []
    for q in sorted(set(points)):
        if not any(_leq(o, q) for o in out):
            out.append(q)
    return out


EMPTY = "empty"
DISCONNECTED = "disconnected"


def staircase_fences(births, deaths):
    """Lower and upper fence of K = up(births) minus up(deaths), 2-d integer corners.

    Returns (B, joins, tops, meets), or EMPTY / DISCONNECTED.  B are the
    births outside up(deaths), sorted by x, and joins the joins of
    consecutive ones; lim over K is the limit over the zigzag B[0] <= joins[0]
    >= B[1] <= ...  tops are the corners of up(deaths) that K approaches from
    below (a birth lies strictly below them) and meets the meets of
    consecutive tops; colim over K is the colimit over the zigzag of points
    just below them (grades < corner in every coordinate).  K is connected
    iff no join lies in up(deaths): a dead join splits K into the part left
    of it and the part below it.  When K is connected, every meet has a birth strictly
    below it, so the upper fence lies in K too.  Raises PresentationError
    when a nonempty K is unbounded.
    """
    D = minimal_elements(deaths)

    def dead(q) -> bool:
        return any(_leq(d, q) for d in D)

    B = [b for b in minimal_elements(births) if not dead(b)]
    if not B:
        return EMPTY
    if not D or D[0][0] > B[0][0] or D[-1][1] > B[-1][1]:
        raise PresentationError("staircase interval is unbounded: the deaths do not close it")
    joins = [(B[i + 1][0], B[i][1]) for i in range(len(B) - 1)]
    if any(dead(j) for j in joins):
        return DISCONNECTED

    def reached(c) -> bool:
        return any(_lt(b, c) for b in B)

    tops = [c for c in ((D[i + 1][0], D[i][1]) for i in range(len(D) - 1)) if reached(c)]
    meets = [(tops[i][0], tops[i + 1][1]) for i in range(len(tops) - 1)]
    return B, joins, tops, meets


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

    Order tests then compare integer tuples instead of Fractions, through one
    Below index each for the generators and the relations.  The echelon
    basis of the relation columns below a grade is memoized by the set of
    relations it spans, so a sweep that asks many rank questions reduces each
    distinct relation set once.  Query grades are integer tuples in the same
    units: scale_grade of a corner, or floor of any rational grade.
    """

    def __init__(self, P: Presentation, scale: int):
        self.n, self.p, self.scale = P.n, P.p, scale
        self.gens = [scale_grade(g.grade, scale) for g in P.gens]
        self.rels = [(scale_grade(r.grade, scale), r.as_dict()) for r in P.rels]
        self._gens_below = Below(self.gens, self.n)
        self._rels_below = Below([g for g, _ in self.rels], self.n)
        self._bases: dict[int, list] = {}
        self._ranks: dict[tuple[int, int], int] = {}

    def floor(self, a: Grade) -> tuple[int, ...]:
        """scale * a rounded down: scaled grades are integers, so g <= scale * a iff g <= floor(a)."""
        if a.n != self.n:
            raise PresentationError(f"grade dimension {a.n} != {self.n}")
        return tuple(c.numerator * self.scale // c.denominator for c in a.coords)

    def gens_leq(self, a) -> list[int]:
        return bits(self._gens_below(a))

    def rel_basis(self, b) -> tuple[int, list]:
        """(bitmask of the relations <= b, echelon basis of their columns)."""
        key = self._rels_below(b)
        basis = self._bases.get(key)
        if basis is None:
            basis = self._bases[key] = kernels.echelonize([self.rels[k][1] for k in bits(key)], self.p)
        return key, basis

    def dim(self, a) -> int:
        """dim M_a."""
        k = self._gens_below(a).bit_count()
        return k - len(self.rel_basis(a)[1]) if k else 0

    def rank_between(self, a, b) -> int:
        """Rank of M_a -> M_b for a <= b: the units born by a, modulo the relations <= b."""
        gens = self._gens_below(a)
        if not gens:
            return 0
        key, basis = self.rel_basis(b)
        r = self._ranks.get((gens, key))
        if r is None:
            r = self._ranks[gens, key] = _rank_over(basis, [{i: 1} for i in bits(gens)], self.p)
        return r

    def interval_rank(self, births, deaths) -> int | None:
        """rank(lim_K M -> colim_K M) for K = up(births) minus up(deaths).

        None when K is empty or disconnected.  The limit is the set of
        values at B[0] that extend along the lower fence, found by walking
        it from the right: T_i = V_i meet (T_{i+1} + R_{join}), with V_i the
        span of the generators born by B[i].  The colimit is one block of
        generators per top corner, each modulo the relations strictly below
        it, glued along the generators strictly below each meet.  The rank
        is the dimension of T_0's image in that quotient.
        """
        fences = staircase_fences(births, deaths)
        if isinstance(fences, str):
            return None
        B, joins, tops, meets = fences
        p, n = self.p, len(self.gens)
        T = [{i: 1} for i in self.gens_leq(B[-1])]
        for b, j in zip(reversed(B[:-1]), reversed(joins)):
            inside = set(self.gens_leq(b))
            span = T + [col for g, col in self.rels if _leq(g, j)]
            # outside coordinates go above every inside one, so echelon vectors
            # with an inside pivot are exactly a basis of the intersection
            cols = [{(i if i in inside else i + n): c for i, c in v.items()} for v in span]
            T = [v for low, v in kernels.echelonize(cols, p) if low < n]
        if not T:
            return 0
        glue = []
        for k, top in enumerate(tops):
            glue += [{i + k * n: c for i, c in col.items()} for g, col in self.rels if _lt(g, top)]
        for k, m in enumerate(meets):
            glue += [{i + k * n: 1, i + (k + 1) * n: p - 1}
                     for i, g in enumerate(self.gens) if _lt(g, m)]
        k0 = next(k for k, top in enumerate(tops) if _lt(B[0], top))
        image = [{i + k0 * n: c for i, c in v.items()} for v in T]
        return _rank_over(kernels.echelonize(glue, p), image, p)


def _rank_over(basis, vectors, p) -> int:
    """rank(span(basis) + span(vectors)) - rank(span(basis)), basis in echelon form."""
    return kernels.rank([col for _, col in basis] + vectors, p) - len(basis)


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
    scale = common_scale(c for g in corners + P.betti_grades() for c in g.coords)
    M = ScaledModule(P, scale)
    return M.interval_rank([scale_grade(b, scale) for b in births],
                           [scale_grade(d, scale) for d in deaths])
