"""Restriction to positively sloped lines and 1-parameter barcodes.

Restricting a module to a line regrades every generator and relation by its
push parameter, the parameter of the least point of the line above it; the
columns are untouched and stay homogeneous because the push is
order-preserving.  Barcodes come out of the usual left-to-right column
reduction over F_p: a pivot pairs a relation with the generator it kills,
unpaired generators live forever, zero-length bars are dropped.

There is one restriction and one pairing, both on integers.  LineSample.of
turns LineSpecs into LineGroups (one direction, one denominator, integer
base offsets), and IntegerLine puts a line into integer units for grades
scaled by a common S.  The lines of a group share the slopes a ScaledModule
multiplies its grades by once, so restricting it to each is one fold over
the axes, a Fiber of integer pushes; pair_bars pairs them into counted
bars, sorted and distinct as in a Barcode, split as the bottleneck probe
reads them.  The pairing depends only on the generator and relation
orders, so a ScaledModule keeps it per pair of orders (a barcode template)
and reduces each pair once.  A Presentation and a LineSpec go the same way
at the presentation's own scale, with a fresh memo, and a Barcode keeps its
bars as integers at that scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import kernels
from .grades import Grade, LineSpec, rat
from .presentation import Presentation, ScaledModule, common_scale, scale_grade

INF = math.inf


@dataclass(frozen=True, init=False)
class Barcode:
    """Multiset of half-open intervals [birth, death): the distinct bars as sorted
    (birth, death, multiplicity) ints in units of 1/scale, a death possibly
    INF.  The scale is divided by its gcd with every finite end, as in
    Presentation, so equal multisets are equal whatever scale built them.
    """

    scale: int
    bars: tuple[tuple[int, object, int], ...]

    def __init__(self, scale: int, bars):
        """bars: (birth, death, multiplicity) int triples at scale, which math.gcd
        checks; equal bars add up, each hashed once, and empty bars are dropped."""
        if scale < 1:
            raise ValueError("barcode scale must be positive")
        counts: dict = {}
        for b, d, m in bars:
            if d < b:
                raise ValueError(f"bar death {d} before birth {b}")
            if m < 0:
                raise ValueError("negative multiplicity")
            if b != d and m:
                counts.setdefault((b, d), [0])[0] += m
        common = math.gcd(scale, *(c for bar in counts for c in bar if c != INF))
        self.__dict__.update(scale=scale // common, bars=tuple(sorted(
            (b // common, d if d == INF else d // common, m) for (b, d), (m,) in counts.items())))

    def total(self) -> int:
        return sum(m for _, _, m in self.bars)


class LineGroup(NamedTuple):
    """Lines of one direction, through the base points (k, 0) / denominator.

    bases holds the integer vectors k of the first n - 1 base coordinates,
    in the order the lines are evaluated, repeats included.
    """

    direction: tuple[Fraction, ...]
    denominator: int
    bases: tuple[tuple[int, ...], ...]

    def line(self, k: tuple[int, ...]) -> LineSpec:
        return LineSpec(self.direction, Grade([Fraction(c, self.denominator) for c in k] + [0]))


@dataclass(frozen=True)
class LineSample:
    """Lines grouped by direction with integer bases: a sample or a
    refinement.  The line loop reads the groups, whose lines share the
    slopes of their IntegerLines; LineGroup.line builds a LineSpec on demand.
    """

    groups: tuple[LineGroup, ...]

    def __post_init__(self):
        if not any(group.bases for group in self.groups):
            raise ValueError("line sample is empty")

    @classmethod
    def of(cls, lines: Iterable[LineSpec]) -> "LineSample":
        """The given lines in their order; each run of one direction is one group."""
        runs: list[tuple[tuple, list[Grade]]] = []
        for line in lines:
            if runs and runs[-1][0] == line.direction:
                runs[-1][1].append(line.base)
            else:
                runs.append((line.direction, [line.base]))
        groups = []
        for direction, bases in runs:
            den = common_scale(c for b in bases for c in b.coords)
            groups.append(LineGroup(direction, den, tuple(scale_grade(b, den)[:-1] for b in bases)))
        return cls(tuple(groups))

    def __len__(self) -> int:
        return sum(len(group.bases) for group in self.groups)


class IntegerLine(NamedTuple):
    """A line in the integer units of a grade scale S.

    The line has direction d_i = p_i / q_i in lowest terms and base point
    k / D, with k an integer vector and k_n = 0.  With P = lcm(p_i), a grade
    g scaled by S has the integer parameter T(g) = max_i (g_i m_i - o_i) for
    the slopes m_i = D q_i P / p_i and offsets o_i = S k_i q_i P / p_i, and
    T = L push(g) for the unit L = S D P.  Sorting by (T, index) is sorting
    by (push, index).  Any D that clears the base gives the same order and
    the same exact values once divided by L.  integer_lines builds them, a
    direction's lines at a time.
    """

    slopes: tuple[int, ...]
    offsets: tuple[int, ...]
    unit: int


def integer_lines(direction, denominator: int, bases, scale: int):
    """The IntegerLine, for the grade scale S, of each line (direction, (k, 0) / denominator).

    bases holds the integer vectors k of the first n - 1 base coordinates.
    The lines share their slopes tuple and unit.
    """
    top = math.lcm(*(d.numerator for d in direction))
    steps = [top * d.denominator // d.numerator for d in direction]
    slopes = tuple(denominator * s for s in steps)
    unit = scale * denominator * top
    factors = [scale * s for s in steps[:-1]]
    for k in bases:
        yield IntegerLine(slopes, tuple([c * f for c, f in zip(k, factors)] + [0]), unit)


def _params(products, offsets) -> list[int]:
    """T = max_i (products[i] - offsets[i]), elementwise over the per-axis
    product lists: one fold into the last axis's products, whose offset is 0."""
    out = products[-1]
    for xs, o in zip(products[:-1], offsets):
        out = [a if a > x - o else x - o for a, x in zip(out, xs)]
    return out


class Fiber(NamedTuple):
    """A ScaledModule restricted to an IntegerLine: parameters T, columns
    unchanged, and the module's template memo for pair_bars."""

    gen_params: list[int]
    rel_params: list[int]
    cols: list[dict[int, int]]
    p: int
    templates: dict


def restrict(P: Presentation | ScaledModule, line: LineSpec | IntegerLine):
    """1-parameter restriction of the module along the line.

    For a ScaledModule and the IntegerLine of its scale: the Fiber of the
    integer parameters T = L push.  The grades times the slopes come from
    ScaledModule.along's cache, so a line of the direction before costs one
    fold (_params).  For a Presentation and a LineSpec: the same restriction
    of its own ScaledModule at its scale, as a 1-parameter Presentation with
    the grades T over the unit L, in the line's own parameter (t = 0 at the
    base point on {x_n = 0}).
    """
    M, units = P, line
    if isinstance(line, LineSpec):
        (group,) = LineSample.of((line,)).groups
        M, units = P._scaled, next(integer_lines(group.direction, group.denominator, group.bases, P.scale))
    if len(units.slopes) != M.n:
        raise ValueError(f"line dimension {len(units.slopes)} != module dimension {M.n}")
    gens, rels, cols = M.along(units.slopes)
    gen_params, rel_params = _params(gens, units.offsets), _params(rels, units.offsets)
    if M is P:
        return Fiber(gen_params, rel_params, cols, M.p, M.templates)
    return Presentation.trusted(1, P.p, units.unit, P.labels, [(t,) for t in gen_params],
                                [(t,) for t in rel_params], P.cols)


def barcode(Q: Presentation | Fiber):
    """Barcode of a 1-parameter presentation by graded column reduction.

    Generators and relations are sorted by (parameter, input index);
    generators come first at ties, so a relation at a generator's own
    parameter kills it into a zero-length bar, which is dropped.  The bar
    multiset does not depend on the tie-breaking.  A Fiber gives pair_bars'
    split bars in its integer units; a Presentation the Barcode of those
    bars at its scale.
    """
    if isinstance(Q, Fiber):
        return pair_bars(*Q)
    if Q.n != 1:
        raise ValueError("barcode extraction needs a 1-parameter presentation")
    births, deaths, counts, infinite = pair_bars([a for a, in Q.scaled_gens], [a for a, in Q.scaled_rels],
                                                 list(map(dict, Q.cols)), Q.p, {})
    return Barcode(Q.scale, [(b, INF, m) for b, m in infinite] + list(zip(births, deaths, counts)))


def pair_bars(gen_params: list[int], rel_params: list[int], cols, p: int, templates: dict):
    """The bars [birth, death) of a 1-parameter presentation, split as the
    bottleneck probe reads them: (births, deaths, counts, infinite).  The
    finite bars are in canonical form, as Barcode keeps them: sorted by
    (birth, death), each distinct bar once with its full count.  infinite
    holds the infinite bars as [birth, count] runs, one per distinct birth,
    in birth order.  So two fibers with one bar multiset give equal lists.

    The parameters are integers in one unit; the columns are {generator
    index: coefficient} dicts.  Rows are the generators in (parameter,
    index) order, and the kernel reads the columns in that order of the
    relations, relabelling each once; a pivot names the relation that kills
    its row.  That pairing depends on the two orders alone, RIVET's barcode
    template (Lesnick and Wright), so templates, a memo kept for one set of
    columns, maps the orders as one flat tuple to the killing relation of
    each row (-1 for none), and each pair of orders is reduced once.
    """
    gen_order = sorted(range(len(gen_params)), key=gen_params.__getitem__)
    rel_order = sorted(range(len(rel_params)), key=rel_params.__getitem__)
    key = tuple(gen_order + rel_order)
    killers = templates.get(key)
    if killers is None:
        row_of = [0] * len(gen_order)
        for row, i in enumerate(gen_order):
            row_of[i] = row
        killer = [-1] * len(gen_order)
        for j, piv in zip(rel_order, kernels.reduce_pivots([cols[j] for j in rel_order], p, row_of)):
            if piv >= 0:
                killer[piv] = j
        killers = templates[key] = tuple(killer)
    finite, infinite = [], []
    for i, j in zip(gen_order, killers):
        b = gen_params[i]
        if j < 0:
            if infinite and infinite[-1][0] == b:
                infinite[-1][1] += 1
            else:
                infinite.append([b, 1])
        elif rel_params[j] != b:
            finite.append((b, rel_params[j]))
    finite.sort()
    births, deaths, counts = [], [], []
    for b, d in finite:
        if deaths and deaths[-1] == d and births[-1] == b:
            counts[-1] += 1
        else:
            births.append(b)
            deaths.append(d)
            counts.append(1)
    return births, deaths, counts, infinite


def simplify_barcode(B: Barcode, eps) -> Barcode:
    """Shorten every finite bar by eps from the top, dropping the short ones.

    [b, inf) is kept; [b, d) becomes [b, d - eps) when d - b > eps and is
    removed otherwise.  Works at the lcm of B's scale and eps' denominator.
    """
    e = rat(eps)
    if e < 0:
        raise ValueError("eps must be nonnegative")
    S = math.lcm(B.scale, e.denominator)
    f, e = S // B.scale, e.numerator * (S // e.denominator)
    return Barcode(S, [(b * f, d * f - e, m) for b, d, m in B.bars if (d - b) * f > e])
