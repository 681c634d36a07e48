"""Restriction to positively sloped lines and 1-parameter barcodes.

Restricting a presentation to a line regrades every generator and relation
by its push parameter; the columns are untouched and stay homogeneous
because the push is order-preserving.  Barcodes then come out of the usual
left-to-right column reduction over F_p: a pivot pairs a relation with the
generator it kills, unpaired generators live forever, zero-length bars are
dropped.  Bars are half-open [b, d) multisets.

restrict and barcode work in two number systems.  On a Presentation and a
LineSpec they build a 1-parameter Presentation with Fraction grades and its
Barcode.  The matching-distance line loop uses the integer form: IntegerLine
turns a line into integer units for grades scaled by a common S, so
restricting a ScaledModule gives a Fiber whose pushes are Python ints in the
same order, and barcode pairs them into bars in those units.  Both forms
share one pairing routine, pair_bars.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import kernels
from .grades import Grade, LineSpec, push, rat, rat_str
from .presentation import Generator, Presentation, Relation, ScaledModule, common_scale, scale_grade

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
        ordered = tuple(sorted(((b, d, m) for (b, d), m in counts.items()),
                               key=lambda t: (t[0], t[1])))
        object.__setattr__(self, "bars", ordered)

    def as_counter(self) -> Counter:
        return Counter({(b, d): m for b, d, m in self.bars})

    def expand(self) -> list[tuple[Fraction, object]]:
        """Every bar repeated by multiplicity."""
        out = []
        for b, d, m in self.bars:
            out.extend([(b, d)] * m)
        return out

    def union(self, other: "Barcode") -> "Barcode":
        return Barcode(self.as_counter() + other.as_counter())

    def count_containing(self, t) -> int:
        tq = rat(t)
        return sum(m for b, d, m in self.bars if b <= tq and (d == INF or tq < d))

    def total(self) -> int:
        return sum(m for _, _, m in self.bars)

    def __str__(self) -> str:
        return "; ".join(f"[{rat_str(b)}, {rat_str(d)})x{m}" for b, d, m in self.bars) or "(empty)"


@dataclass(frozen=True)
class IntegerLine:
    """A line in the integer units of a grade scale S.

    With A the lcm of the denominators of the base b and B the lcm of the
    denominators of the 1/d_i, a grade g scaled by S has the integer
    parameter T(g) = max_i (g_i A - S A b_i) (B / d_i) = L push(g), where
    L = S A B.  Sorting by (T, index) is sorting by (push, index).
    """

    slopes: tuple[int, ...]  # A B / d_i
    offsets: tuple[int, ...]  # S A b_i B / d_i
    unit: int  # L

    @classmethod
    def of(cls, line: LineSpec, scale: int) -> "IntegerLine":
        a = common_scale(line.base.coords)
        b = math.lcm(*(d.numerator for d in line.direction))
        steps = [b * d.denominator // d.numerator for d in line.direction]
        base = scale_grade(line.base, scale * a)
        return cls(tuple(a * k for k in steps), tuple(o * k for o, k in zip(base, steps)),
                   scale * a * b)

    def params(self, grades) -> list[int]:
        """T(g) for each scaled grade g."""
        out = None
        for i, (m, o) in enumerate(zip(self.slopes, self.offsets)):
            axis = [g[i] * m - o for g in grades]
            out = axis if out is None else list(map(max, out, axis))
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
    line's integer parameters T = L push.
    """
    if isinstance(line, IntegerLine):
        if len(line.slopes) != P.n:
            raise ValueError(f"line dimension {len(line.slopes)} != module dimension {P.n}")
        return Fiber(line.params(P.gens), line.params([g for g, _ in P.rels]),
                     [col for _, col in P.rels], P.p)
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
    its bars (birth, death) in its integer units, death INF when unpaired.
    """
    if isinstance(Q, Fiber):
        return pair_bars(*Q)
    if Q.n != 1:
        raise ValueError("barcode extraction needs a 1-parameter presentation")
    return Barcode(pair_bars([g.grade.coords[0] for g in Q.gens],
                             [r.grade.coords[0] for r in Q.rels],
                             [r.as_dict() for r in Q.rels], Q.p))


def pair_bars(gen_params, rel_params, cols, p: int) -> list[tuple]:
    """Bars [birth, death) of a 1-parameter presentation, death INF if unpaired.

    The parameters may be Fractions or the integers of one IntegerLine; the
    columns are {generator index: coefficient} dicts.  Rows and columns are
    ordered by (parameter, input index), a pivot pairs a relation with the
    generator it kills, and zero-length bars are dropped.
    """
    gen_order = sorted(range(len(gen_params)), key=gen_params.__getitem__)
    row_of = [0] * len(gen_order)
    for row, i in enumerate(gen_order):
        row_of[i] = row
    rel_order = sorted(range(len(rel_params)), key=rel_params.__getitem__)
    columns = [{row_of[i]: c for i, c in cols[j].items()} for j in rel_order]
    pivots = kernels.reduce_pivots(columns, p)
    bars = []
    killed = set()
    for j, piv in zip(rel_order, pivots):
        if piv < 0:
            continue
        killed.add(piv)
        birth, death = gen_params[gen_order[piv]], rel_params[j]
        if death != birth:
            bars.append((birth, death))
    bars += [(gen_params[i], INF) for row, i in enumerate(gen_order) if row not in killed]
    return bars


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
