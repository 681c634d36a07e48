"""Exact geometry of the grading poset R^n.

Grades are points of R^n with exact rational coordinates under the
coordinate-wise partial order.  This module owns the primitive geometry the
rest of the package is built on: joins, positively sloped lines, grid
functions with their controlling constants, and the merge map that snaps
coordinates onto a grid.  The push onto a line is computed in integer
units, by fibered.restrict.

Everything here is an immutable value and every operation is a pure
function; rationals stay exact end to end (fractions.Fraction), so the
projection/idempotence/bound identities below hold with equality rather
than up to tolerance.  The text edge is here too: integer, integer_pair
and ratio are the strict readers of file and argument tokens, and
rat_str the one printer, which grade_text applies to a module's integer
grades.
"""

from __future__ import annotations

import itertools
import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

INF = math.inf


class DimensionMismatch(ValueError):
    """Operands live in grading posets of different dimension."""


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")
# [0-9] is the ASCII digits alone, so both parts follow integer's rules
_INTEGER_PAIR = re.compile(r"([+-]?[0-9]+):([+-]?[0-9]+)")


def integer(text: str) -> int:
    """Read '[+-]digits' as an int, the one string-to-integer conversion.

    Unlike int(), it refuses '_' separators, surrounding whitespace and
    non-ASCII digits with ValueError: past the sign, every character is an
    ASCII character that str.isdigit accepts, so one of 0-9.
    """
    digits = text[1:] if text[:1] in "+-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad integer {text!r}, expected [+-]digits")
    return int(text)


def integer_pair(text: str) -> tuple[int, int]:
    """Read '[+-]digits:[+-]digits' as two ints, each under integer's rules, in one match."""
    m = _INTEGER_PAIR.fullmatch(text)
    if m is None:
        raise ValueError(f"bad integer pair {text!r}, expected [+-]digits:[+-]digits")
    return int(m[1]), int(m[2])


def ratio(text: str) -> tuple[int, int]:
    """Read '[+-]digits[/digits]' as (numerator, denominator) in one match, the
    one string-to-rational conversion; the denominator is positive, and 1
    when absent, and the pair is not reduced.

    Any other string, '1/0' and exponents such as '1e9' included, raises
    ValueError.
    """
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise ValueError(f"bad rational {text!r}, expected [+-]digits[/digits]")
    num, den = m.groups()
    return int(num), int(den) if den else 1


def rat(x) -> Fraction:
    """Coerce ints, Fractions and strings (as ratio reads them) to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(*ratio(x))
    if isinstance(x, float):
        raise TypeError(f"refusing float {x!r}; pass a Fraction, int or 'p/q' string")
    return Fraction(x)


def rat_str(x) -> str:
    """Canonical text form: 'num/den' with den > 0, plain integer when den == 1.

    A Fraction is formatted at once; only other values are compared with
    the float infinities, which is the slow comparison for a Fraction.
    """
    if not isinstance(x, Fraction):
        if x == INF:
            return "inf"
        if x == -INF:
            return "-inf"
        x = rat(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def per_value(points: Sequence[Sequence[int]], scale: int, f) -> list[list]:
    """f of each coordinate of integer points at scale, as a Fraction, called once per distinct value."""
    value = {v: f(Fraction(v, scale)) for v in set(itertools.chain(*points))}
    return [[value[v] for v in a] for a in points]


def grade_text(points: Sequence[Sequence[int]], scale: int) -> list[str]:
    """The text of integer grades at scale, as str prints their Grades."""
    return list(map(" ".join, per_value(points, scale, rat_str)))


def rat_dec(x) -> str:
    """rat_str followed by a 6-place decimal in parentheses; infinities alone."""
    if x in (INF, -INF):
        return rat_str(x)
    return f"{rat_str(x)} ({float(x):.6f})"


@dataclass(frozen=True)
class Grade:
    """A point of R^n with exact rational coordinates."""

    coords: tuple[Fraction, ...]

    def __init__(self, coords: Iterable):
        object.__setattr__(self, "coords", tuple(map(rat, coords)))
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

    def plus(self, vector: Sequence) -> "Grade":
        vec = [rat(v) for v in vector]
        if len(vec) != self.n:
            raise DimensionMismatch(f"shift vector has {len(vec)} coordinates, grade has {self.n}")
        return Grade(c + v for c, v in zip(self.coords, vec))

    def lex_key(self) -> tuple[Fraction, ...]:
        """Total order refining <=, used for deterministic processing."""
        return self.coords

    def __str__(self) -> str:
        return " ".join(map(rat_str, self.coords))


def unscaled(points: Sequence[Sequence[int]], scale: int) -> list[Grade]:
    """The Grades of integer points at scale."""
    return list(map(Grade, per_value(points, scale, rat)))


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


def unit_direction(direction: Iterable) -> list[Fraction]:
    """direction scaled to max component 1; every component must be positive."""
    d = [rat(c) for c in direction]
    if not d or any(c <= 0 for c in d):
        raise ValueError("line direction components must all be positive")
    top = max(d)
    return [c / top for c in d]


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
        d = unit_direction(direction)
        if point.n != len(d):
            raise DimensionMismatch(f"point dimension {point.n} != direction dimension {len(d)}")
        t = point.coords[-1] / d[-1]
        base = Grade(c - t * dc for c, dc in zip(point.coords, d))
        return cls(d, base)

    def __str__(self) -> str:
        d = ",".join(rat_str(c) for c in self.direction)
        b = ",".join(rat_str(c) for c in self.base.coords)
        return f"line dir=({d}) base=({b})"


_MERGE_VARIANTS = ("two_sided", "plus", "minus")


def _merge_coordinate(axis: Sequence, delta, x, variant: str):
    """The axis value in [x, x + delta] (plus) or [x - delta, x] (minus), else x.

    delta is below half the axis gap, so only the nearest axis value on the
    snapping side can qualify, and one bisection finds it.  The values may
    be Fractions or integers under one scale.
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


def merge_delta(grid: GridFunction, delta, n: int, variant: str = "two_sided") -> Fraction:
    """Check the arguments of a merge onto grid of n-parameter grades; delta as a Fraction.

    delta must lie below half the smallest axis gap, so that a coordinate
    can snap onto at most one value of its axis.
    """
    if variant not in _MERGE_VARIANTS:
        raise ValueError(f"unknown merge variant {variant!r}")
    if n != grid.n:
        raise DimensionMismatch(f"grade dim {n} != grid dim {grid.n}")
    d = rat(delta)
    if d < 0:
        raise ValueError("delta must be nonnegative")
    gap = grid.min_axis_gap()
    if gap == INF or d < gap / 2:
        return d
    if grid.image_size() > 1:
        # the gap is the controlling constant here (see controlling_constant)
        raise ValueError(f"delta {rat_str(d)} must be below half the controlling constant {rat_str(gap)}")
    # only reachable on degenerate grids with an empty axis next to a
    # populated one; snapping would be ambiguous there
    raise ValueError(f"delta {rat_str(d)} must be below half the axis gap {rat_str(gap)}")


def snap_coordinates(axes: Sequence[Sequence], delta, coords: Sequence, variant: str) -> list:
    """The grid merge map on coordinates, for a delta that merge_delta has accepted.

    Each coordinate lying delta-close to a value of its axis, on the
    variant's side, snaps onto it: an idempotent, order-preserving
    projection, with two_sided = minus o plus.  Each coordinate comes back
    as it is or as a value of its axis.  Axes, delta and coordinates are
    all Fractions, or all integers: the same values times one scale that
    clears them, which snap to the same values times that scale.
    """
    if variant == "two_sided":
        return [_merge_coordinate(a, delta, _merge_coordinate(a, delta, x, "plus"), "minus")
                for a, x in zip(axes, coords)]
    return [_merge_coordinate(a, delta, x, variant) for a, x in zip(axes, coords)]

