"""Exact geometry of the grading poset R^n.

Grades are points of R^n with exact rational coordinates under the
coordinate-wise partial order.  This module owns the primitive geometry the
rest of the package is built on: joins, the l-infinity metric, positively
sloped lines and the push projection onto them, line weights, grid functions
with their controlling constants, and the merge/unmerge snapping maps.

Everything here is an immutable value and every operation is a pure
function; rationals stay exact end to end (fractions.Fraction), so the
projection/idempotence/bound identities below hold with equality rather
than up to tolerance.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

INF = math.inf

RationalLike = "Fraction | int | str"


class DimensionMismatch(ValueError):
    """Operands live in grading posets of different dimension."""


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"refusing float {x!r}; pass a Fraction, int or 'p/q' string")
    return Fraction(x)


def rat_str(x) -> str:
    """Canonical text form: 'num/den' with den > 0, plain integer when den == 1."""
    if x == INF:
        return "inf"
    if x == -INF:
        return "-inf"
    q = rat(x)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class Grade:
    """A point of R^n with exact rational coordinates."""

    coords: tuple[Fraction, ...]

    def __init__(self, coords: Iterable):
        object.__setattr__(self, "coords", tuple(rat(c) for c in coords))
        if not self.coords:
            raise ValueError("grades need at least one coordinate")

    @property
    def n(self) -> int:
        return len(self.coords)

    def _check(self, other: "Grade") -> None:
        if self.n != other.n:
            raise DimensionMismatch(f"grade dimensions {self.n} != {other.n}")

    def leq(self, other: "Grade") -> bool:
        """Coordinate-wise partial order a <= b."""
        self._check(other)
        return all(a <= b for a, b in zip(self.coords, other.coords))

    def join(self, other: "Grade") -> "Grade":
        self._check(other)
        return Grade(max(a, b) for a, b in zip(self.coords, other.coords))

    def linf(self, other: "Grade") -> Fraction:
        """Exact l-infinity distance."""
        self._check(other)
        return max(abs(a - b) for a, b in zip(self.coords, other.coords))

    def translate(self, eps) -> "Grade":
        """Diagonal shift by eps * (1, ..., 1)."""
        e = rat(eps)
        return Grade(c + e for c in self.coords)

    def plus(self, vector: Sequence) -> "Grade":
        vec = [rat(v) for v in vector]
        if len(vec) != self.n:
            raise DimensionMismatch(f"shift vector has {len(vec)} coordinates, grade has {self.n}")
        return Grade(c + v for c, v in zip(self.coords, vec))

    def lex_key(self) -> tuple[Fraction, ...]:
        """Total order refining <=, used for deterministic processing."""
        return self.coords

    def __str__(self) -> str:
        return " ".join(rat_str(c) for c in self.coords)


@dataclass(frozen=True)
class GridFunction:
    """Per-axis finite sorted coordinate sets.

    Im G is the Cartesian product of the axis lists, and Grid_G is the union
    of the axis-aligned hyperplanes through those values.
    """

    axes: tuple[tuple[Fraction, ...], ...]

    def __init__(self, axes: Iterable[Iterable]):
        cleaned = []
        for axis in axes:
            vals = sorted({rat(v) for v in axis})
            cleaned.append(tuple(vals))
        object.__setattr__(self, "axes", tuple(cleaned))
        if not self.axes:
            raise ValueError("grid needs at least one axis")

    @property
    def n(self) -> int:
        return len(self.axes)

    def image_size(self) -> int:
        size = 1
        for axis in self.axes:
            size *= len(axis)
        return size

    def points(self) -> list[Grade]:
        """Im G, the product grid, enumerated lexicographically."""
        out = [[]]
        for axis in self.axes:
            out = [pref + [v] for pref in out for v in axis]
        return [Grade(p) for p in out if p]

    def on_grid(self, p: Grade) -> bool:
        """Whether p lies on Grid_G (some coordinate hits its axis list)."""
        if p.n != self.n:
            raise DimensionMismatch(f"grade dim {p.n} != grid dim {self.n}")
        return any(c in axis for c, axis in zip(p.coords, self.axes))

    def grid_distance(self, p: Grade):
        """l-infinity distance from p to Grid_G (inf if every axis is empty)."""
        if p.n != self.n:
            raise DimensionMismatch(f"grade dim {p.n} != grid dim {self.n}")
        best = INF
        for c, axis in zip(p.coords, self.axes):
            for v in axis:
                d = abs(c - v)
                if d < best:
                    best = d
        return best

    def min_axis_gap(self):
        """Smallest gap between adjacent values on any single axis (inf if none)."""
        best = INF
        for axis in self.axes:
            for a, b in zip(axis, axis[1:]):
                if b - a < best:
                    best = b - a
        return best


def controlling_constant(grid: GridFunction):
    """Minimum l-infinity distance between distinct points of Im G.

    Infinite when Im G is empty or a singleton.  For a product of nonempty
    axes this equals the minimum adjacent gap on a single axis: two grid
    points differing in exactly one coordinate realize that gap, and any
    other pair is at least as far.
    """
    if grid.image_size() <= 1:
        return INF
    return grid.min_axis_gap()


def grid_from_grades(points: Iterable[Grade]) -> GridFunction:
    """Smallest product grid whose image contains the given grades."""
    pts = list(points)
    if not pts:
        return GridFunction([[]])
    n = pts[0].n
    for p in pts:
        if p.n != n:
            raise DimensionMismatch("mixed grade dimensions")
    return GridFunction([sorted({p.coords[i] for p in pts}) for i in range(n)])


@dataclass(frozen=True)
class LineSpec:
    """A positively sloped line, l-infinity-isometrically parameterized.

    direction has all components > 0 and max component 1, so
    ||L(t) - L(s)||_inf = |t - s|; the base point lies on {x_n = 0}.
    """

    direction: tuple[Fraction, ...]
    base: Grade

    def __init__(self, direction: Iterable, base: Grade):
        d = tuple(rat(c) for c in direction)
        if not d or any(c <= 0 for c in d):
            raise ValueError("line direction components must all be positive")
        if max(d) != 1:
            raise ValueError("line direction must be normalized with max component 1")
        if base.n != len(d):
            raise DimensionMismatch("line base and direction dimensions differ")
        if base.coords[-1] != 0:
            raise ValueError("line base must lie on the hyperplane {x_n = 0}")
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "base", base)

    @property
    def n(self) -> int:
        return len(self.direction)

    @classmethod
    def through(cls, point: Grade, direction: Iterable) -> "LineSpec":
        """The normalized line with the given direction passing through point."""
        d = [rat(c) for c in direction]
        if any(c <= 0 for c in d):
            raise ValueError("line direction components must all be positive")
        top = max(d)
        d = [c / top for c in d]
        t = point.coords[-1] / d[-1]
        base = Grade(c - t * dc for c, dc in zip(point.coords, d))
        return cls(d, base)

    @classmethod
    def slope_one(cls, point: Grade) -> "LineSpec":
        return cls.through(point, [1] * point.n)

    def point_at(self, t) -> Grade:
        tq = rat(t)
        return Grade(b + tq * d for b, d in zip(self.base.coords, self.direction))

    def __str__(self) -> str:
        d = ",".join(rat_str(c) for c in self.direction)
        b = ",".join(rat_str(c) for c in self.base.coords)
        return f"line dir=({d}) base=({b})"


def push(line: LineSpec, p: Grade) -> Fraction:
    """Line parameter of the smallest point of L that dominates p.

    t = max_i (p_i - base_i) / d_i; monotone in p, and L(t) agrees with p in
    at least one coordinate (the arg max).
    """
    if p.n != line.n:
        raise DimensionMismatch(f"grade dim {p.n} != line dim {line.n}")
    return max((pc - bc) / dc for pc, bc, dc in zip(p.coords, line.base.coords, line.direction))


def line_weight(line: LineSpec) -> Fraction:
    """Weight w(L) = min_i d_i of the normalized direction.

    Equals 1/||push_L(L(0)+1) - L(0)||_inf, is 1 for slope-1 lines, and makes
    w(L) * d_B(M^L, N^L) a lower bound for the interleaving distance.
    """
    return min(line.direction)


_MERGE_VARIANTS = ("two_sided", "plus", "minus")


def _merge_coordinate(axis: tuple[Fraction, ...], delta: Fraction, x: Fraction, variant: str) -> Fraction:
    """The axis value in [x, x + delta] (plus) or [x - delta, x] (minus), else x.

    delta is below half the axis gap, so only the nearest axis value on the
    snapping side can qualify, and one bisection finds it.
    """
    if variant == "plus":
        i = bisect_left(axis, x)
        if i < len(axis) and axis[i] - delta <= x:
            return axis[i]
    else:
        i = bisect_right(axis, x)
        if i and x <= axis[i - 1] + delta:
            return axis[i - 1]
    return x


def _check_merge_delta(grid: GridFunction, delta: Fraction) -> None:
    gap = grid.min_axis_gap()
    if gap == INF or delta < gap / 2:
        return
    if grid.image_size() > 1:
        # the gap is the controlling constant here (see controlling_constant)
        raise ValueError(f"delta {rat_str(delta)} must be below half the controlling constant {rat_str(gap)}")
    # only reachable on degenerate grids with an empty axis next to a
    # populated one; snapping would be ambiguous there
    raise ValueError(f"delta {rat_str(delta)} must be below half the axis gap {rat_str(gap)}")


def merge_grade(grid: GridFunction, delta, p: Grade, variant: str = "two_sided") -> Grade:
    """Snap each coordinate of p lying delta-close to an axis value onto it.

    Idempotent, order-preserving projection; two_sided = minus o plus.
    """
    return snap_grade(grid, merge_delta(grid, delta, p.n, variant), p, variant)


def merge_delta(grid: GridFunction, delta, n: int, variant: str = "two_sided") -> Fraction:
    """Check the arguments of merge_grade for n-parameter grades; delta as a Fraction."""
    if variant not in _MERGE_VARIANTS:
        raise ValueError(f"unknown merge variant {variant!r}")
    if n != grid.n:
        raise DimensionMismatch(f"grade dim {n} != grid dim {grid.n}")
    d = rat(delta)
    if d < 0:
        raise ValueError("delta must be nonnegative")
    _check_merge_delta(grid, d)
    return d


def snap_grade(grid: GridFunction, delta: Fraction, p: Grade, variant: str = "two_sided") -> Grade:
    """merge_grade for a delta that merge_delta has accepted on this grid."""
    if variant == "two_sided":
        coords = [_merge_coordinate(a, delta, _merge_coordinate(a, delta, x, "plus"), "minus")
                  for a, x in zip(grid.axes, p.coords)]
    else:
        coords = [_merge_coordinate(a, delta, x, variant) for a, x in zip(grid.axes, p.coords)]
    return Grade(coords)


def unmerge(grid: GridFunction, delta, p: Grade) -> Grade:
    """Maximum of the merge fiber through p, for p on Grid_G.

    Returns merge(p) + delta * sum of e_i over the coordinates within delta
    of an axis value; the result sits exactly delta from Grid_G in every
    merged coordinate.
    """
    d = rat(delta)
    if d < 0:
        raise ValueError("delta must be nonnegative")
    if not grid.on_grid(p):
        raise ValueError(f"grade {p} does not lie on the grid hyperplanes")
    _check_merge_delta(grid, d)
    merged = snap_grade(grid, d, p)
    # a coordinate within delta of an axis value snaps onto it, and one that
    # lands on the axis was within delta
    return merged.plus([d if x in axis else Fraction(0) for axis, x in zip(grid.axes, merged.coords)])
