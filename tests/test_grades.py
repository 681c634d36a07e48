import random
from fractions import Fraction as F

import pytest

from multipres import LineSample, free, matching_distance, restrict
from multipres.grades import (
    DimensionMismatch,
    Grade,
    GridFunction,
    LineSpec,
    controlling_constant,
    grid_from_grades,
    merge_delta,
    rat_str,
    snap_coordinates,
)

from oracles import grid_points, linf, merge_coordinate_by_scan, min_pairwise_linf, point_at, push, push_by_scan

INF = float("inf")


def g(*coords):
    return Grade(coords)


def merge(grid, delta, p, variant="two_sided"):
    """The merge map of merge_with_witness on one grade: merge_delta checks, snap_coordinates snaps."""
    return Grade(snap_coordinates(grid.axes, merge_delta(grid, delta, p.n, variant), p.coords, variant))


class TestText:
    def test_rat_str(self):
        # a Fraction is formatted before any comparison with the float infinities
        cases = [(F(3, 4), "3/4"), (F(-6, 4), "-3/2"), (F(8, 2), "4"), (F(0), "0"), (F(-5), "-5"),
                 (7, "7"), (-2, "-2"), (0, "0"), ("6/4", "3/2"), (INF, "inf"), (-INF, "-inf")]
        for x, want in cases:
            assert rat_str(x) == want, x
        assert str(Grade([F(1, 2), -3, 0])) == "1/2 -3 0"


class TestPush:
    """push is the Fraction push of tests/oracles.py, checked here against a
    scan; the library's integer restriction is checked against it."""

    def test_slope_one_through_origin(self):
        L = LineSpec.through(g(0, 0), [1, 1])
        assert push(L, g(2, 0)) == 2
        assert point_at(L, 2) == g(2, 2)

    def test_point_on_line_is_fixed(self):
        L = LineSpec.through(g(3, 1), [F(1, 3), 1])
        s = push(L, g(3, 1))
        assert point_at(L, s) == g(3, 1)

    def test_steep_line_example(self):
        L = LineSpec([F(1, 2), 1], g(0, 0))
        t = push(L, g(1, 1))
        assert t == 2
        assert point_at(L, t) == g(1, 2)
        # scanning oracle: first parameter on a 1/64 grid dominating the point
        assert push_by_scan(L, g(1, 1)) == 2

    def test_dimension_mismatch(self):
        L = LineSpec.through(g(0, 0), [1, 1])
        with pytest.raises(DimensionMismatch):
            push(L, g(1, 1, 1))

    def test_through_needs_matching_dimensions(self):
        for point, direction in ((g(1, 2, 2), [1, 1]), (g(1, 2), [1, 1, 1])):
            with pytest.raises(DimensionMismatch):
                LineSpec.through(point, direction)

    def test_order_preserving_random(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.choice([2, 3])
            d = [F(rng.randint(1, 8), 8) for _ in range(n)]
            L = LineSpec.through(g(*[F(rng.randint(-8, 8), 4) for _ in range(n)]), d)
            p = g(*[F(rng.randint(-16, 16), 4) for _ in range(n)])
            q = p.plus([F(rng.randint(0, 8), 4) for _ in range(n)])
            assert push(L, p) <= push(L, q)

    def test_one_coordinate_preserved(self):
        rng = random.Random(12)
        for _ in range(100):
            n = rng.choice([2, 3])
            d = [F(rng.randint(1, 8), 8) for _ in range(n)]
            L = LineSpec.through(g(*([0] * n)), d)
            p = g(*[F(rng.randint(-16, 16), 4) for _ in range(n)])
            hit = point_at(L, push(L, p))
            assert any(a == b for a, b in zip(hit.coords, p.coords))

    def test_restrict_pushes_every_grade(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.choice([1, 2, 3])
            d = [F(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(n)]
            L = LineSpec.through(g(*[F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(n)]), d)
            points = [g(*[F(rng.randint(-16, 16), rng.randint(1, 9)) for _ in range(n)]) for _ in range(5)]
            assert [x.grade for x in restrict(free(points), L).gens] == [Grade([push(L, a)]) for a in points]


class TestLineWeight:
    """w(L) = min_i d_i scales the bottleneck on L in matching_distance.

    A free module and its translate by (1, ..., 1) are 1-interleaved, and
    the weighted bottleneck on every line is exactly 1.
    """

    @staticmethod
    def weighted(L):
        corner = [0] * L.n
        P, Q = free([Grade(corner)]), free([Grade([1] * L.n)])
        return matching_distance(P, Q, sample=LineSample.of([L])).value

    def test_slope_one(self):
        assert self.weighted(LineSpec.through(g(0, 0), [1, 1])) == 1

    def test_half_direction(self):
        L = LineSpec([F(1, 2), 1], g(0, 0))
        # the bars start at pushes 0 and t = 2 apart; the weight 1/t = 1/2
        # brings the bottleneck down to 1
        t = push(L, g(1, 1))
        assert t == 2
        assert self.weighted(L) == F(1, 2) * t == 1

    def test_diagonal_3d(self):
        assert self.weighted(LineSpec([1, 1, 1], g(0, 0, 0))) == 1

    def test_rejects_nonpositive_direction(self):
        with pytest.raises(ValueError):
            LineSpec([1, 0], g(0, 0))


class TestMerge:
    def test_two_sided_pulls_onto_value(self):
        grid = GridFunction([[0, 1]])
        assert merge(grid, F(2, 5), g(F(3, 10))) == g(0)

    def test_plus_only_pulls_from_below(self):
        grid = GridFunction([[0, 1]])
        assert merge(grid, F(2, 5), g(F(11, 10)), "plus") == g(F(11, 10))
        assert merge(grid, F(2, 5), g(F(7, 10)), "plus") == g(1)

    def test_coordinatewise_case_split(self):
        grid = GridFunction([[0, 1], [0, 3]])
        assert merge(grid, F(1, 4), g(F(9, 8), F(29, 10))) == g(1, 3)

    def test_delta_too_large_rejected(self):
        grid = GridFunction([[0, 1], [0, 3]])
        message = "delta 1/2 must be below half the controlling constant 1"
        with pytest.raises(ValueError, match=message):
            merge(grid, F(1, 2), g(0, 0))
        # an empty axis leaves Im G empty but the other axis still has a gap
        with pytest.raises(ValueError, match="delta 5/2 must be below half the axis gap 5"):
            merge(GridFunction([[], [0, 5]]), F(5, 2), g(0, 0))
        assert merge(GridFunction([[], [0, 5]]), F(12, 5), g(1, 2)) == g(1, 0)

    def test_idempotent_order_preserving_bounded(self):
        rng = random.Random(13)
        for _ in range(150):
            grid = GridFunction([sorted(rng.sample(range(0, 20, 2), rng.randint(1, 4))) for _ in range(2)])
            c = controlling_constant(grid)
            hi = 8 if c == INF else int(c * 2)
            delta = F(rng.randint(0, max(hi - 1, 0)), 4)
            if c != INF and not delta < c / 2:
                continue
            p = g(F(rng.randint(-10, 50), 4), F(rng.randint(-10, 50), 4))
            q = p.plus([F(rng.randint(0, 10), 4), F(rng.randint(0, 10), 4)])
            mp_, mq = merge(grid, delta, p), merge(grid, delta, q)
            assert merge(grid, delta, mp_) == mp_
            assert mp_.leq(mq)
            assert linf(mp_, p) <= delta
            via = merge(grid, delta, merge(grid, delta, p, "plus"), "minus")
            assert via == merge(grid, delta, p)

    def test_snap_coordinates_against_scan(self):
        rng = random.Random(15)
        for _ in range(200):
            den = rng.choice([1, 2, 3, 7])
            grid = GridFunction([[F(v, den) for v in rng.sample(range(-20, 40), rng.randint(0, 6))]
                                 for _ in range(rng.randint(1, 3))])
            gap = grid.min_axis_gap()
            top = F(3) if gap == INF else gap / 2
            delta = top * F(rng.randint(0, 11), 12)  # below half the gap, 0 included
            near = [v + s for axis in grid.axes for v in axis for s in (-delta, 0, delta)]
            for _ in range(10):
                coords = [rng.choice(near) if near and rng.random() < 0.6 else F(rng.randint(-100, 200), 5 * den)
                          for _ in grid.axes]
                p = Grade(coords)
                for variant in ("plus", "minus", "two_sided"):
                    want = [merge_coordinate_by_scan(axis, delta, x, variant)
                            for axis, x in zip(grid.axes, coords)]
                    assert snap_coordinates(grid.axes, delta, coords, variant) == want, (grid, delta, p, variant)
                    assert merge(grid, delta, p, variant) == Grade(want)



class TestUnmerge:
    """The fiber of the merge map through a grade on Grid_G has a maximum:
    the merged grade plus delta in each coordinate that snapped onto an
    axis value."""

    @staticmethod
    def assert_fiber_max(grid, delta, p, u):
        # u merges where p does, and raising any one coordinate leaves the fiber
        assert merge(grid, delta, u) == merge(grid, delta, p)
        tiny = F(1, 10**6)
        for i in range(p.n):
            up = u.plus([tiny if j == i else 0 for j in range(p.n)])
            assert merge(grid, delta, up) != merge(grid, delta, p), (p, i)

    def test_one_axis_coordinate(self):
        self.assert_fiber_max(GridFunction([[0], [0]]), F(1, 4), g(0, 5), g(F(1, 4), 5))

    def test_both_coordinates(self):
        self.assert_fiber_max(GridFunction([[0], [0]]), F(1, 4), g(0, 0), g(F(1, 4), F(1, 4)))

    def test_mixed_axes(self):
        self.assert_fiber_max(GridFunction([[0, 1], [0]]), F(1, 4), g(1, F(1, 8)), g(F(5, 4), F(1, 4)))

    def test_maximum_of_merge_fiber(self):
        rng = random.Random(14)
        grid = GridFunction([[0, 3, 6], [0, 3]])
        delta = F(1, 2)
        for p, u in ((g(3, 0), g(F(7, 2), F(1, 2))), (g(0, 3), g(F(1, 2), F(7, 2))),
                     (g(6, F(7, 4)), g(F(13, 2), F(7, 4))), (g(3, 3), g(F(7, 2), F(7, 2)))):
            self.assert_fiber_max(grid, delta, p, u)
            for _ in range(200):
                q = g(F(rng.randint(-8, 56), 8), F(rng.randint(-8, 32), 8))
                if merge(grid, delta, q) == merge(grid, delta, p):
                    assert q.leq(u)

class TestControllingConstant:
    def test_enumeration_oracle(self):
        grid = GridFunction([[0, 1], [0, 3]])
        assert controlling_constant(grid) == 1
        assert controlling_constant(grid) == min_pairwise_linf(grid_points(grid))

    def test_singleton_is_infinite(self):
        assert controlling_constant(GridFunction([[2], [5]])) == INF

    def test_single_pair(self):
        assert controlling_constant(GridFunction([[0], [0, 5]])) == 5

    def test_random_against_oracle(self):
        rng = random.Random(15)
        for _ in range(50):
            grid = GridFunction(
                [sorted(rng.sample(range(12), rng.randint(1, 4))) for _ in range(2)]
            )
            assert controlling_constant(grid) == min_pairwise_linf(grid_points(grid))


class TestGridFromGrades:
    def test_single_point(self):
        grid = grid_from_grades({g(0, 0)})
        assert grid.axes == ((F(0),), (F(0),))

    def test_two_points_product(self):
        grid = grid_from_grades({g(0, 0), g(1, 3)})
        assert grid.axes == ((F(0), F(1)), (F(0), F(3)))
        assert len(grid_points(grid)) == 4

    def test_empty(self):
        grid = grid_from_grades(set())
        assert controlling_constant(grid) == INF

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            grid_from_grades({g(0, 0), g(1, 2, 3)})


class TestGradingMergeLemma:
    def test_equal_push_forces_equal_merge(self):
        # a <= b close to the grid hyperplanes: equal pushes to the slope-1
        # line through the top of a's merge fiber force equal merged grades
        rng = random.Random(16)
        checked = 0
        while checked < 60:
            grid = GridFunction([sorted(rng.sample(range(0, 24, 4), rng.randint(1, 3))) for _ in range(2)])
            delta = F(1, 2)
            a = g(F(rng.randint(-4, 28), 4), F(rng.randint(-4, 28), 4))
            if min((abs(c - v) for c, axis in zip(a.coords, grid.axes) for v in axis), default=INF) > delta:
                continue
            b = a.plus([F(rng.randint(0, 6), 4), F(rng.randint(0, 6), 4)])
            ma = merge(grid, delta, a)
            # the largest grade merging to ma: delta above it where ma lies on an axis
            anchor = ma.plus([delta if x in axis else 0 for axis, x in zip(grid.axes, ma.coords)])
            line = LineSpec.through(anchor, [1, 1])
            if push(line, a) == push(line, b):
                assert merge(grid, delta, b) == ma
            checked += 1
