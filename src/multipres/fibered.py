"""Restriction to positively sloped lines and 1-parameter barcodes.

Restricting a presentation to a line regrades every generator and relation
by its push parameter; the columns are untouched and stay homogeneous
because the push is order-preserving.  Barcodes then come out of the usual
left-to-right column reduction over F_p: a pivot pairs a relation with the
generator it kills, unpaired generators live forever, zero-length bars are
dropped.  Bars are half-open [b, d) multisets, listed in birth order.

restrict and barcode work in two number systems.  On a Presentation and a
LineSpec they build a 1-parameter Presentation with Fraction grades and its
Barcode.  The matching-distance line loop, which evaluates every line the
library compares modules on, uses the integer form: IntegerLine puts a line
into integer units for grades scaled by a common S, so restricting a
ScaledModule gives a Fiber whose pushes are Python ints in the same order,
and barcode pairs them into bars in those units.  integer_lines builds the
IntegerLines of the lines of one direction, which share their slopes; the
ScaledModule keeps its grades times the last slopes it was restricted
along, so a loop over the lines grouped by direction multiplies the grades
once per direction and subtracts one offset per line.  Both forms share one
pairing routine, pair_bars.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import kernels
from .grades import Grade, LineSpec, push, rat, rat_str
from .presentation import Generator, Presentation, Relation, ScaledModule

INF = math.inf


@dataclass(frozen=True)
class Barcode:
    """Multiset of half-open intervals [birth, death), death possibly inf."""

    bars: tuple[tuple[Fraction, object, int], ...]  # (birth, death, multiplicity), sorted

    def __init__(self, bars):
        counts: Counter = Counter()
        if isinstance(bars, (Counter, dict)):
            items = bars.items()
        else:
            items = ((bar, 1) for bar in bars)
        for (b, d), m in items:
            b = rat(b)
            d = INF if d == INF else rat(d)
            if d < b:
                raise ValueError(f"bar death {d} before birth {b}")
            if m < 0:
                raise ValueError("negative multiplicity")
            if b != d and m:
                counts[(b, d)] += m
        object.__setattr__(self, "bars", tuple(sorted((b, d, m) for (b, d), m in counts.items())))

    def expand(self) -> list[tuple[Fraction, object]]:
        """Every bar repeated by multiplicity, in birth order."""
        return [(b, d) for b, d, m in self.bars for _ in range(m)]

    def total(self) -> int:
        return sum(m for _, _, m in self.bars)

    def __str__(self) -> str:
        return "; ".join(f"[{rat_str(b)}, {rat_str(d)})x{m}" for b, d, m in self.bars) or "(empty)"


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
    """T = max_i (products[i] - offsets[i]), elementwise over the per-axis product lists."""
    out = None
    for xs, o in zip(products, offsets):
        if o:
            xs = [x - o for x in xs]
        out = xs if out is None else list(map(max, out, xs))
    return out


class Fiber(NamedTuple):
    """A ScaledModule restricted to an IntegerLine: parameters T, columns unchanged."""

    gen_params: list[int]
    rel_params: list[int]
    cols: list[dict[int, int]]
    p: int


def restrict(P: Presentation | ScaledModule, line: LineSpec | IntegerLine):
    """1-parameter restriction of the module along the line.

    For a Presentation and a LineSpec: a 1-parameter Presentation, with
    generators and relations at their push parameters and the columns
    unchanged.  Bar endpoints are reported in the line's own parameter, with
    t = 0 at the base point on {x_n = 0}.  For a ScaledModule and the
    IntegerLine of its scale: the Fiber holding the same restriction in the
    line's integer parameters T = L push.  The grades times the line's
    slopes come from the ScaledModule's cache for the last slopes (see
    ScaledModule.along), so a line of the same direction as the one before
    costs one subtraction and one max per grade.
    """
    if isinstance(line, IntegerLine):
        if len(line.slopes) != P.n:
            raise ValueError(f"line dimension {len(line.slopes)} != module dimension {P.n}")
        gens, rels, cols = P.along(line.slopes)
        return Fiber(_params(gens, line.offsets), _params(rels, line.offsets), cols, P.p)
    if line.n != P.n:
        raise ValueError(f"line dimension {line.n} != module dimension {P.n}")
    gens = tuple(Generator(g.label, Grade([push(line, g.grade)])) for g in P.gens)
    rels = tuple(Relation(Grade([push(line, r.grade)]), r.col) for r in P.rels)
    return Presentation(1, P.p, gens, rels)


def barcode(Q: Presentation | Fiber):
    """Barcode of a 1-parameter presentation by graded column reduction.

    Generators and relations are sorted by (parameter, input index);
    generators come first at ties, so a relation at a generator's own
    parameter kills it into a zero-length bar, which is dropped.  The bar
    multiset does not depend on the tie-breaking.  A Fiber gives the list of
    its bars (birth, death) in birth order, in its integer units, death INF when unpaired.
    """
    if isinstance(Q, Fiber):
        return pair_bars(*Q)
    if Q.n != 1:
        raise ValueError("barcode extraction needs a 1-parameter presentation")
    return Barcode(pair_bars([g.grade.coords[0] for g in Q.gens],
                             [r.grade.coords[0] for r in Q.rels],
                             [r.as_dict() for r in Q.rels], Q.p))


def pair_bars(gen_params, rel_params, cols, p: int) -> list[tuple]:
    """Bars [birth, death) of a 1-parameter presentation in birth order, death INF if unpaired.

    The parameters may be Fractions or the integers of one IntegerLine; the
    columns are {generator index: coefficient} dicts.  Rows and columns are
    ordered by (parameter, input index): the columns go to the kernel as
    they are, in relation order, with the row of each generator, and the
    kernel relabels each column once as it reads it.  A pivot sets the death
    of the row it kills, and the rows' (birth, death) less the zero-length
    bars are the bars, ties in generator order.
    """
    gen_order = sorted(range(len(gen_params)), key=gen_params.__getitem__)
    row_of = sorted(range(len(gen_order)), key=gen_order.__getitem__)
    rel_order = sorted(range(len(rel_params)), key=rel_params.__getitem__)
    pivots = kernels.reduce_pivots([cols[j] for j in rel_order], p, row_of)
    death = [INF] * len(gen_order)
    for j, piv in zip(rel_order, pivots):
        if piv >= 0:
            death[piv] = rel_params[j]
    return [(b, d) for b, d in zip(map(gen_params.__getitem__, gen_order), death) if b != d]


def simplify_barcode(B: Barcode, eps) -> Barcode:
    """Shorten every finite bar by eps from the top, dropping the short ones.

    [b, inf) is kept; [b, d) becomes [b, d - eps) when d - b > eps and is
    removed otherwise.
    """
    e = rat(eps)
    if e < 0:
        raise ValueError("eps must be nonnegative")
    out: Counter = Counter()
    for b, d, m in B.bars:
        if d == INF:
            out[(b, INF)] += m
        elif d - b > e:
            out[(b, d - e)] += m
    return Barcode(out)
