import random
from fractions import Fraction as F

import pytest

from multipres.grades import (
    DimensionMismatch,
    Grade,
    GridFunction,
    LineSpec,
    controlling_constant,
    grid_from_grades,
    line_weight,
    merge_grade,
    push,
    snap_grade,
    unmerge,
)

from oracles import merge_coordinate_by_scan, min_pairwise_linf, push_by_scan

INF = float("inf")


def g(*coords):
    return Grade(coords)


class TestPush:
    def test_slope_one_through_origin(self):
        L = LineSpec.slope_one(g(0, 0))
        assert push(L, g(2, 0)) == 2
        assert L.point_at(2) == g(2, 2)

    def test_point_on_line_is_fixed(self):
        L = LineSpec.through(g(3, 1), [F(1, 3), 1])
        s = push(L, g(3, 1))
        assert L.point_at(s) == g(3, 1)

    def test_steep_line_example(self):
        L = LineSpec([F(1, 2), 1], g(0, 0))
        t = push(L, g(1, 1))
        assert t == 2
        assert L.point_at(t) == g(1, 2)
        # scanning oracle: first parameter on a 1/64 grid dominating the point
        assert push_by_scan(L, g(1, 1)) == 2

    def test_dimension_mismatch(self):
        L = LineSpec.slope_one(g(0, 0))
        with pytest.raises(DimensionMismatch):
            push(L, g(1, 1, 1))

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
            hit = L.point_at(push(L, p))
            assert any(a == b for a, b in zip(hit.coords, p.coords))


class TestLineWeight:
    def test_slope_one(self):
        assert line_weight(LineSpec.slope_one(g(0, 0))) == 1

    def test_half_direction(self):
        L = LineSpec([F(1, 2), 1], g(0, 0))
        assert line_weight(L) == F(1, 2)
        # reciprocal of how far the push of base + (1,...,1) travels
        t = push(L, g(1, 1))
        assert line_weight(L) == F(1) / t

    def test_diagonal_3d(self):
        assert line_weight(LineSpec([1, 1, 1], g(0, 0, 0))) == 1

    def test_rejects_nonpositive_direction(self):
        with pytest.raises(ValueError):
            LineSpec([1, 0], g(0, 0))


class TestMerge:
    def test_two_sided_pulls_onto_value(self):
        grid = GridFunction([[0, 1]])
        assert merge_grade(grid, F(2, 5), g(F(3, 10))) == g(0)

    def test_plus_only_pulls_from_below(self):
        grid = GridFunction([[0, 1]])
        assert merge_grade(grid, F(2, 5), g(F(11, 10)), "plus") == g(F(11, 10))
        assert merge_grade(grid, F(2, 5), g(F(7, 10)), "plus") == g(1)

    def test_coordinatewise_case_split(self):
        grid = GridFunction([[0, 1], [0, 3]])
        assert merge_grade(grid, F(1, 4), g(F(9, 8), F(29, 10))) == g(1, 3)

    def test_delta_too_large_rejected(self):
        grid = GridFunction([[0, 1], [0, 3]])
        message = "delta 1/2 must be below half the controlling constant 1"
        with pytest.raises(ValueError, match=message):
            merge_grade(grid, F(1, 2), g(0, 0))
        with pytest.raises(ValueError, match=message):
            unmerge(grid, F(1, 2), g(0, 0))
        # an empty axis leaves Im G empty but the other axis still has a gap
        with pytest.raises(ValueError, match="delta 5/2 must be below half the axis gap 5"):
            merge_grade(GridFunction([[], [0, 5]]), F(5, 2), g(0, 0))
        assert merge_grade(GridFunction([[], [0, 5]]), F(12, 5), g(1, 2)) == g(1, 0)

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
            mp_, mq = merge_grade(grid, delta, p), merge_grade(grid, delta, q)
            assert merge_grade(grid, delta, mp_) == mp_
            assert mp_.leq(mq)
            assert mp_.linf(p) <= delta
            via = merge_grade(grid, delta, merge_grade(grid, delta, p, "plus"), "minus")
            assert via == merge_grade(grid, delta, p)

    def test_snap_grade_against_scan(self):
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
                    assert snap_grade(grid, delta, p, variant) == Grade(want), (grid, delta, p, variant)
                    assert merge_grade(grid, delta, p, variant) == Grade(want)


class TestUnmerge:
    def test_one_axis_coordinate(self):
        grid = GridFunction([[0], [0]])
        assert unmerge(grid, F(1, 4), g(0, 5)) == g(F(1, 4), 5)

    def test_both_coordinates(self):
        grid = GridFunction([[0], [0]])
        assert unmerge(grid, F(1, 4), g(0, 0)) == g(F(1, 4), F(1, 4))

    def test_mixed_axes(self):
        grid = GridFunction([[0, 1], [0]])
        assert unmerge(grid, F(1, 4), g(1, F(1, 8))) == g(F(5, 4), F(1, 4))

    def test_off_grid_rejected(self):
        grid = GridFunction([[0], [0]])
        with pytest.raises(ValueError):
            unmerge(grid, F(1, 4), g(1, 5))

    def test_maximum_of_merge_fiber(self):
        rng = random.Random(14)
        grid = GridFunction([[0, 3, 6], [0, 3]])
        delta = F(1, 2)
        for p in (g(3, 0), g(0, 3), g(6, F(7, 4)), g(3, 3)):
            u = unmerge(grid, delta, p)
            assert merge_grade(grid, delta, u) == merge_grade(grid, delta, p)
            for _ in range(200):
                q = g(F(rng.randint(-8, 56), 8), F(rng.randint(-8, 32), 8))
                if merge_grade(grid, delta, q) == merge_grade(grid, delta, p):
                    assert q.leq(u)


class TestControllingConstant:
    def test_enumeration_oracle(self):
        grid = GridFunction([[0, 1], [0, 3]])
        assert controlling_constant(grid) == 1
        assert controlling_constant(grid) == min_pairwise_linf(grid.points())

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
            assert controlling_constant(grid) == min_pairwise_linf(grid.points())


class TestGridFromGrades:
    def test_single_point(self):
        grid = grid_from_grades({g(0, 0)})
        assert grid.axes == ((F(0),), (F(0),))

    def test_two_points_product(self):
        grid = grid_from_grades({g(0, 0), g(1, 3)})
        assert grid.axes == ((F(0), F(1)), (F(0), F(3)))
        assert len(grid.points()) == 4

    def test_empty(self):
        grid = grid_from_grades(set())
        assert controlling_constant(grid) == INF

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            grid_from_grades({g(0, 0), g(1, 2, 3)})


class TestGradingMergeLemma:
    def test_equal_push_forces_equal_merge(self):
        # a <= b close to the grid hyperplanes: equal pushes to the slope-1
        # line through unmerge(merge(a)) force equal merged grades
        rng = random.Random(16)
        checked = 0
        while checked < 60:
            grid = GridFunction([sorted(rng.sample(range(0, 24, 4), rng.randint(1, 3))) for _ in range(2)])
            delta = F(1, 2)
            a = g(F(rng.randint(-4, 28), 4), F(rng.randint(-4, 28), 4))
            if grid.grid_distance(a) > delta:
                continue
            b = a.plus([F(rng.randint(0, 6), 4), F(rng.randint(0, 6), 4)])
            ma = merge_grade(grid, delta, a)
            anchor = unmerge(grid, delta, ma)
            line = LineSpec.slope_one(anchor)
            if push(line, a) == push(line, b):
                assert merge_grade(grid, delta, b) == ma
            checked += 1
