import random
from fractions import Fraction as F

import pytest

from multipres import (
    Grade,
    GridFunction,
    LineSpec,
    PresentationError,
    barcode,
    betti_and_grid,
    direct_sum,
    free,
    grid_align,
    interpolate,
    matching_distance,
    merge_module,
    minimize,
    restrict,
    shift,
    simplify,
    simplify_with_witness,
    staircase_interval,
    translate_image,
    verify_interleaving,
)
from multipres import fio
from multipres.functors import (
    PIPELINE_FACTORS,
    PIPELINE_TOTAL,
    compose_witnesses,
    merge_with_witness,
    shift_with_witness,
)
from multipres.experiments import jitter_module, random_staircase
from multipres.presentation import Generator, Presentation, Relation, make_column

from oracles import dim_at, grid_points, image_relations_by_full_sweep, merge_coordinate_by_scan, random_module
from oracles import interpolate_by_fractions, joint_of, joint_text, translate_joint, translate_joint_by_fractions
from oracles import barcode_of, translated


def g(*coords):
    return Grade(coords)


def betti_multisets(P):
    data = betti_and_grid(P)
    return data.xi0, data.xi1


class TestMergeModule:
    def test_identity_on_grid_points(self):
        P = staircase_interval([g(0, 0)], [g(2, 0), g(0, 3)])
        grid = betti_and_grid(P).grid
        M = merge_module(P, grid, F(1, 4))
        assert betti_multisets(M) == betti_multisets(P)

    def test_generator_snaps_to_origin(self):
        P = free([g(F(1, 10), 0)])
        M = merge_module(P, GridFunction([[0, 1], [0, 1]]), F(1, 5))
        assert M.gens[0].grade == g(0, 0)

    def test_cancellation_collapses_to_zero(self):
        P = Presentation(
            2, 2,
            (Generator("b", g(0, F(1, 8))),),
            (Relation(g(F(1, 8), F(1, 8)), ((0, 1),)),),
        )
        M = merge_module(P, GridFunction([[0], [0]]), F(1, 4))
        assert not M.gens and not M.rels
        for x in range(-1, 3):
            for y in range(-1, 3):
                assert M.hilbert(g(x, y)) == 0

    def test_delta_guard(self):
        P = free([g(0, 0)])
        with pytest.raises(ValueError):
            merge_module(P, GridFunction([[0, 1], [0, 1]]), F(1, 2))

    def test_idempotent_up_to_minimization(self):
        rng = random.Random(41)
        for _ in range(10):
            P = random_module(rng)
            grid = betti_and_grid(P).grid
            once = merge_module(P, grid, F(1, 4))
            twice = merge_module(once, grid, F(1, 4))
            assert betti_multisets(once) == betti_multisets(twice)

    def test_plus_merge_pointwise_sections(self):
        # dimension at a equals the dimension of the source at the largest
        # plus-merge fixed point below a
        rng = random.Random(42)
        for _ in range(10):
            P = random_module(rng)
            grid = betti_and_grid(P).grid
            delta = F(1, 4)
            M = merge_module(P, grid, delta, variant="plus", minimized=False)
            for _ in range(20):
                a = g(F(rng.randint(-4, 50), 4), F(rng.randint(-4, 50), 4))
                floor = []
                for axis, x in zip(grid.axes, a.coords):
                    lo = x
                    for v in axis:
                        if v - delta <= x < v:
                            lo = v - delta
                    floor.append(lo)
                assert M.hilbert(a) == P.hilbert(g(*floor))

    def test_integer_merge_matches_merge_by_scan(self):
        # merge_with_witness snaps on integer axes; the scan on Fractions
        rng = random.Random(43)
        tiny = F(1, 97 ** 3)
        for _ in range(60):
            n = rng.randint(1, 3)
            grid = GridFunction([[F(rng.randint(-30, 30), rng.randint(1, 97)) for _ in range(rng.randint(1, 4))]
                                 for _ in range(n)])
            gap = grid.min_axis_gap()
            below_half = F(5, 3) if gap == float("inf") else gap / 2 - tiny
            for delta in (F(0), below_half):
                # on an axis value, at and just past delta from it, between two
                # values, and past both ends, with coordinates of either sign
                near = [[c for v in axis for c in (v, v - delta, v + delta, v - delta - tiny, v + delta + tiny)]
                        + [(a + b) / 2 for a, b in zip(axis, axis[1:])]
                        + [axis[0] - rng.randint(1, 9), axis[-1] + F(rng.randint(1, 9), rng.randint(1, 97))]
                        for axis in grid.axes]
                gens = tuple(Generator(f"x{i}", Grade(rng.choice(c) for c in near)) for i in range(8))
                rels = tuple(Relation(Grade(max(x, rng.choice(c)) for x, c in zip(gens[i].grade.coords, near)),
                                      ((i, 1),)) for i in range(8))
                P = Presentation(n, 2, gens, rels)
                for variant in ("two_sided", "plus", "minus"):
                    def merged(a):
                        return Grade(merge_coordinate_by_scan(axis, delta, x, variant) for axis, x in zip(grid.axes, a.coords))

                    out, w = merge_with_witness(P, grid, delta, variant)
                    assert [x.grade for x in out.gens] == [merged(x.grade) for x in gens]
                    assert [r.grade for r in out.rels] == [merged(r.grade) for r in rels]
                    assert [r.col for r in out.rels] == [r.col for r in rels] and w.epsilon == delta


class TestTranslateImage:
    def test_eps_zero_identity(self):
        P = staircase_interval([g(0, 0)], [g(2, 0), g(0, 3)])
        assert translate_image(P, 0) == P

    def test_one_param_bar_shrinks_from_birth(self):
        bar = Presentation(1, 2, (Generator("b", g(0)),), (Relation(g(3), ((0, 1),)),))
        out = translate_image(bar, 1)
        assert barcode(out) == barcode_of([(1, 3)])

    def test_overshoot_kills_module(self):
        bar = Presentation(1, 2, (Generator("b", g(0)),), (Relation(g(3), ((0, 1),)),))
        out = translate_image(bar, 4)
        for t in range(-1, 10):
            assert out.hilbert(g(t)) == 0 == dim_at(out, g(t))


class TestSimplify:
    def test_eps_zero_identity(self):
        P = staircase_interval([g(0, 0)], [g(2, 0), g(0, 3)])
        assert simplify(P, 0, minimized=False) == P

    def test_relation_regrading_formula(self):
        P = Presentation(2, 2, (Generator("b", g(0, 0)),), (Relation(g(3, 1), ((0, 1),)),))
        out = simplify(P, 2, minimized=False)
        assert out.rels[0].grade == g(1, 0)
        # pointwise crosscheck against the shifted translation image
        shifted_image = shift(translate_image(P, 2), -2)
        rng = random.Random(43)
        for _ in range(30):
            a = g(F(rng.randint(-8, 16), 4), F(rng.randint(-8, 16), 4))
            assert out.hilbert(a) == shifted_image.hilbert(a)

    def test_square_dies_under_large_eps(self):
        P = staircase_interval([g(0, 0)], [g(2, 0), g(0, 2)])
        out = simplify(P, 3)
        for x in range(-1, 4):
            for y in range(-1, 4):
                assert out.hilbert(g(x, y)) == 0

    def test_semigroup_law(self):
        rng = random.Random(44)
        for _ in range(5):
            P = random_module(rng)
            a, b = F(rng.randint(0, 6), 4), F(rng.randint(0, 6), 4)
            lhs = simplify(simplify(P, a), b)
            rhs = simplify(P, a + b)
            for _ in range(100):
                x = g(F(rng.randint(-4, 60), 4), F(rng.randint(-4, 60), 4))
                assert lhs.hilbert(x) == rhs.hilbert(x)


def entangle(P, rng):
    """A non-minimal presentation of P's module.

    Adds a generator z with the cancelling relation z + c * x_i at z's grade,
    mixes that relation into some relations above it, and appends the sum of
    two relations at a grade above both.
    """
    p = P.p
    i = rng.randrange(len(P.gens))
    a = P.gens[i].grade.plus([F(rng.randint(0, 4), 2) for _ in range(P.n)])
    pair = [(len(P.gens), 1), (i, rng.randint(1, p - 1))]
    rels = []
    for r in P.rels:
        col = list(r.col)
        if a.leq(r.grade) and rng.random() < 0.5:
            col += [(j, rng.randint(1, p - 1) * c) for j, c in pair]
        rels.append(Relation(r.grade, make_column(col, p)))
    rels.append(Relation(a, make_column(pair, p)))
    r1, r2 = rng.sample(rels, 2)
    extra = make_column(list(r1.col) + list(r2.col), p)
    if extra:
        rels.append(Relation(r1.grade.join(r2.grade).plus([F(1, 3)] * P.n), extra))
    return Presentation(P.n, p, P.gens + (Generator("z", a),), tuple(rels))


class TestImageRelationSweep:
    """The integer sweep with skipped keys keeps exactly the full sweep's relations."""

    EPS = (F(1, 2), F(1, 3), F(5, 7), F(3))

    @staticmethod
    def modules():
        rng = random.Random(46)
        for p in (2, 3):
            for k in (1, 2, 3, 4):
                P = random_staircase(rng, p=p)
                for _ in range(k - 1):
                    P = direct_sum(P, random_staircase(rng, p=p))
                yield P
                yield entangle(P, rng)
        gens = (Generator("a", g(0, 0, 0)), Generator("b", g(1, 0, F(5, 2))),
                Generator("c", g(0, 2, 1)))
        rels = (Relation(g(1, 0, F(5, 2)), ((0, 1), (1, 1))),
                Relation(g(1, 2, F(5, 2)), ((1, 1), (2, 1))),
                Relation(g(4, 3, 3), ((0, 1),)),
                Relation(g(3, F(9, 2), 4), ((2, 1),)))
        P = Presentation(3, 2, gens, rels)
        yield P
        yield entangle(P, rng)

    def test_matches_full_sweep(self):
        for n, P in enumerate(self.modules()):
            for e in self.EPS:
                ref = tuple(Relation(grade, make_column(col, P.p))
                            for grade, col in image_relations_by_full_sweep(P, e))
                assert translate_image(P, e).rels == ref, (n, e)
                lowered = tuple(Relation(translated(r.grade, -e), r.col) for r in ref)
                assert simplify(P, e, minimized=False).rels == lowered, (n, e)


class TestWitnesses:
    def test_shift_witness(self):
        rng = random.Random(45)
        P = random_module(rng)
        Q, w = shift_with_witness(P, F(1, 2))
        assert w.epsilon == F(1, 2)
        assert verify_interleaving(P, Q, w).accepted

    def test_merge_witness_on_cancellation_example(self):
        P = Presentation(
            2, 2,
            (Generator("b", g(0, F(1, 8))),),
            (Relation(g(F(1, 8), F(1, 8)), ((0, 1),)),),
        )
        Q, w = merge_with_witness(P, GridFunction([[0], [0]]), F(1, 4))
        assert verify_interleaving(P, Q, w).accepted

    def test_simplify_witness_on_bar(self):
        bar = Presentation(1, 2, (Generator("b", g(0)),), (Relation(g(3), ((0, 1),)),))
        Q, w = simplify_with_witness(bar, 1)
        assert verify_interleaving(bar, Q, w).accepted

    def test_witness_composition(self):
        rng = random.Random(46)
        P = random_module(rng)
        Q1, w1 = shift_with_witness(P, F(1, 4))
        Q2, w2 = simplify_with_witness(Q1, F(1, 2))
        w = compose_witnesses(w1, w2, P.p)
        assert w.epsilon == F(3, 4)
        assert verify_interleaving(P, Q2, w).accepted


class TestGridAlign:
    def test_zero_budget_is_minimization(self):
        rng = random.Random(47)
        P = random_module(rng)
        grid = betti_and_grid(P).grid
        res = grid_align(P, grid, 0)
        assert betti_multisets(res.module) == betti_multisets(P)
        assert res.budget == 0

    def test_factors_exposed(self):
        assert PIPELINE_FACTORS == (2, 2, 10, 20)
        assert PIPELINE_TOTAL == 34

    def test_hypothesis_guard(self):
        P = free([g(0, 0), g(1, 1)])
        grid = betti_and_grid(P).grid  # controlling constant 1
        with pytest.raises(PresentationError):
            grid_align(P, grid, F(1, 8))

    def test_pipeline_lands_on_grid_with_certificate(self):
        rng = random.Random(48)
        for _ in range(6):
            M = random_staircase(rng)
            grid = betti_and_grid(M).grid
            kap = F(1, 16)
            N = jitter_module(M, rng, 2 * kap)
            res = grid_align(N, grid, kap)
            data = betti_and_grid(res.module)
            assert set(data.xi0) | set(data.xi1) <= set(grid_points(grid))
            assert res.witness.epsilon == PIPELINE_TOTAL * kap == res.budget
            assert verify_interleaving(N, res.raw, res.witness).accepted

    def test_fixture_pair_aligns_to_own_grid(self):
        from multipres.experiments import incompleteness_pair

        N, _ = incompleteness_pair()
        grid = betti_and_grid(minimize(N)).grid  # controlling constant 1
        kap = F(1, 64)
        res = grid_align(N, grid, kap)
        data = betti_and_grid(res.module)
        assert set(data.xi0) | set(data.xi1) <= set(grid_points(grid))
        assert verify_interleaving(N, res.raw, res.witness).accepted

    def test_barcodes_move_at_most_budget(self):
        rng = random.Random(49)
        M = random_staircase(rng)
        grid = betti_and_grid(M).grid
        kap = F(1, 16)
        N = jitter_module(M, rng, 2 * kap)
        res = grid_align(N, grid, kap)
        from multipres.metrics import bottleneck

        for _ in range(10):
            anchor = g(F(rng.randint(0, 20), 2), F(rng.randint(0, 20), 2))
            line = LineSpec.through(anchor, [1, 1])
            d = bottleneck(barcode(restrict(N, line)), barcode(restrict(res.module, line)))
            assert d <= res.budget


class TestInterpolate:
    def test_endpoints_match(self):
        rng = random.Random(50)
        P = random_staircase(rng, immortal=True)
        J = translate_joint(P, 1)
        ends = (interpolate(J, 0), interpolate(J, 1))
        targets = (P, shift(P, 1))
        for t in range(25):
            anchor = g(F(t, 3), F(t % 7, 2))
            line = LineSpec.through(anchor, [1, 1])
            for end, target in zip(ends, targets):
                assert barcode(restrict(end, line)) == barcode(restrict(target, line))

    def test_midpoint_is_half_translate(self):
        rng = random.Random(51)
        P = random_staircase(rng, immortal=True)
        J = translate_joint(P, 1)
        mid = interpolate(J, F(1, 2))
        target = shift(P, F(1, 2))
        for t in range(10):
            line = LineSpec.through(g(F(t, 2), F(t, 3)), [1, 1])
            assert barcode(restrict(mid, line)) == barcode(restrict(target, line))

    def test_lipschitz_in_parameter(self):
        rng = random.Random(52)
        P = random_staircase(rng, immortal=True)
        J = translate_joint(P, 1)
        for _ in range(8):
            t, s = F(rng.randint(0, 8), 8), F(rng.randint(0, 8), 8)
            d = matching_distance(interpolate(J, t), interpolate(J, s), slopes=4).value
            assert d <= abs(t - s)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_waypoints_match_fraction_reference(self, p):
        # joints of jittered staircase sums (grades in twelfths) and their
        # translates, at eps and t whose denominators the grades' scale does
        # not clear; the joint file reads back to the same joint presentation
        rng = random.Random(2820 + p)
        for _ in range(8):
            P = jitter_module(random_module(rng, p=p), rng, F(1, 3))
            R = translate_joint_by_fractions(P, F(rng.randint(0, 9), rng.choice([1, 5, 7])))
            J = joint_of(R)
            assert fio.parse_joint(joint_text(R)) == J
            for t in (0, 1, F(1, 3), F(rng.randint(0, 11), 11)):
                assert interpolate(J, t) == interpolate_by_fractions(R, t), (R, t)

    def test_out_of_range_rejected(self):
        J = translate_joint(free([g(0, 0)]), 1)
        with pytest.raises(PresentationError):
            interpolate(J, 2)

    def test_malformed_joint_rejected(self):
        from multipres.functors import JointPresentation

        # cross relation sits below the generator it references at one endpoint:
        # a at (0, 0) and a2 at (5, 5) with one relation of the first module at (1, 1) on a2
        with pytest.raises(PresentationError):
            JointPresentation.from_integers(2, 2, F(1), 1, ["a", "a2"], [(0, 0), (5, 5)], [(1, 1)], [((1, 1),)], 1, 1)


class TestFunctorDistanceBounds:
    def test_merge_moves_at_most_delta(self):
        rng = random.Random(53)
        for _ in range(5):
            P = random_module(rng)
            grid = betti_and_grid(P).grid
            delta = F(1, 4)
            M = merge_module(P, grid, delta)
            assert matching_distance(P, M, slopes=6).value <= delta

    def test_simplify_moves_at_most_eps(self):
        rng = random.Random(54)
        for _ in range(5):
            P = random_module(rng)
            eps = F(rng.randint(0, 4), 4)
            S = simplify(P, eps)
            assert matching_distance(P, S, slopes=6).value <= eps
