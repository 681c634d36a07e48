import math
import random
from fractions import Fraction as F

import pytest

from multipres import (
    Barcode,
    Grade,
    LineSpec,
    barcode,
    direct_sum,
    free,
    minimize,
    restrict,
    shift,
    simplify,
    simplify_barcode,
    staircase_interval,
)
from multipres import fio
from multipres.experiments import incompleteness_pair
from multipres.fibered import pair_bars
from multipres.presentation import Generator, Presentation, Relation

from oracles import barcode_by_push, barcode_by_rank_counts, barcode_of, bars_of, dim_at, point_at, push, random_module
from oracles import restrict_by_push

INF = math.inf


def g(*coords):
    return Grade(coords)


def one_param(gen_grades, rels, p=2):
    gens = tuple(Generator(f"g{i}", g(x)) for i, x in enumerate(gen_grades))
    rels = tuple(Relation(g(x), tuple(sorted(col.items()))) for x, col in rels)
    return Presentation(1, p, gens, rels)


def random_one_param(rng, max_gens=8, p=2):
    k = rng.randint(1, max_gens)
    gens = sorted(F(rng.randint(0, 40), 2) for _ in range(k))
    rels = []
    for _ in range(rng.randint(0, max_gens)):
        support = rng.sample(range(k), rng.randint(1, min(3, k)))
        grade = max(gens[i] for i in support) + F(rng.randint(0, 30), 2)
        col = {i: rng.randint(1, p - 1) for i in support}
        rels.append((grade, col))
    return one_param(gens, rels, p)


def random_presentation(rng, n, p, max_gens=6):
    """Generators at random grades in n parameters; each relation on one to
    three of them, at the join of their grades lifted by a random amount."""
    grades = [g(*(F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(n))) for _ in range(rng.randint(1, max_gens))]
    gens = tuple(Generator(f"g{i}", x) for i, x in enumerate(grades))
    rels = []
    for _ in range(rng.randint(0, max_gens + 2)):
        support = sorted(rng.sample(range(len(grades)), rng.randint(1, min(3, len(grades)))))
        top = [max(grades[i].coords[axis] for i in support) for axis in range(n)]
        grade = g(*(c + F(rng.randint(0, 8), rng.randint(1, 3)) for c in top))
        rels.append(Relation(grade, tuple((i, rng.randint(1, p - 1)) for i in support)))
    return Presentation(n, p, gens, tuple(rels))


class TestRestrict:
    def test_free_on_slope_one(self):
        Q = restrict(free([g(0, 0)]), LineSpec.through(g(0, 0), [1, 1]))
        assert Q.n == 1 and Q.gens[0].grade == g(0)
        assert barcode(Q) == barcode_of([(0, INF)])

    def test_rectangle_bar(self):
        P = staircase_interval([g(0, 0)], [g(2, 0), g(0, 3)])
        B = barcode(restrict(P, LineSpec.through(g(0, 0), [1, 1])))
        assert B == barcode_of([(0, 2)])
        # pointwise dimension oracle along the line
        line = LineSpec.through(g(0, 0), [1, 1])
        for t in (F(-1), F(0), F(1), F(3, 2), F(2), F(5, 2), F(3)):
            assert sum(b <= t < d for b, d in bars_of(B)) == dim_at(P, point_at(line, t))

    def test_incompleteness_n(self):
        N, _ = incompleteness_pair()
        B = barcode(restrict(N, LineSpec.through(g(0, 0), [1, 1])))
        assert B == barcode_of({(1, 10): 2})

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            restrict(free([g(0, 0)]), LineSpec.through(g(0, 0, 0), [1, 1, 1]))

    def test_against_push_oracle(self):
        # the integer restriction of a Presentation equals the grade-by-grade
        # Fraction push, field for field, and so does its barcode, in two
        # and three parameters, with base offsets of both signs
        rng = random.Random(37)
        signs = set()
        for trial in range(120):
            p = (2, 3, 5)[trial % 3]
            n = 2 + trial % 2
            P = random_module(rng, p=p, summands=3) if n == 2 else random_presentation(rng, n, p)
            if trial % 4 < 2:
                P = shift(P, F(rng.randint(-9, 9), rng.randint(1, 7)))
            point = g(*(F(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(n)))
            line = LineSpec.through(point, [F(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(n - 1)] + [1])
            signs |= {(n, c > 0) for c in line.base.coords[:-1] if c}
            assert restrict(P, line) == restrict_by_push(P, line), (trial, str(line))
            assert barcode(restrict(P, line)) == barcode_by_push(P, line), (trial, str(line))
        assert signs == {(n, positive) for n in (2, 3) for positive in (False, True)}
        Q = one_param([F(1, 3), 2], [(F(7, 2), {0: 1})])
        line = LineSpec([1], g(0))
        assert restrict(Q, line) == restrict_by_push(Q, line) == Q


class TestBarcode:
    def test_free_at_zero(self):
        assert barcode(one_param([0], [])) == barcode_of([(0, INF)])

    def test_two_generators_with_mixing_column(self):
        Q = one_param([0, 0], [(1, {0: 1, 1: 1}), (3, {1: 1})])
        assert barcode(Q) == barcode_of([(0, 1), (0, 3)])
        assert barcode(Q) == barcode_of(barcode_by_rank_counts(Q))

    def test_no_relations(self):
        Q = one_param([0, 1, 2], [])
        assert barcode(Q) == barcode_of([(0, INF), (1, INF), (2, INF)])

    def test_rejects_multiparameter(self):
        with pytest.raises(ValueError):
            barcode(free([g(0, 0)]))

    def test_scale_is_canonical(self):
        # one multiset built at 1, 2 and 6 times its scale is one value
        bars = [(1, INF, 2), (-1, 5, 3), (0, 2, 1)]
        built = [Barcode(3 * k, [(b * k, d * k, m) for b, d, m in bars]) for k in (1, 2, 6)]
        assert built[0] == built[1] == built[2] and len({hash(B) for B in built}) == 1
        assert all(B.scale == 3 and B.bars == tuple(sorted(bars)) for B in built)
        assert Barcode(6, []) == Barcode(1, []) and Barcode(4, [(2, 6, 1)]) == Barcode(2, [(1, 3, 1)])

    def test_bars_hold_only_integers_and_inf(self):
        rng = random.Random(39)
        for _ in range(20):
            B = barcode(random_one_param(rng))
            for C in (B, simplify_barcode(B, F(1, 3)), fio.parse_barcode(fio.serialize_barcode(B))):
                assert type(C.scale) is int
                assert all(type(b) is type(m) is int and (type(d) is int or d == INF) for b, d, m in C.bars)
        for bad in ((F(1, 2), 1, 1), (0, 0.5, 1)):
            with pytest.raises(TypeError):
                Barcode(2, [bad])

    def test_input_checks(self):
        for scale, bar in ((1, (2, 1, 1)), (1, (0, 1, -1)), (0, (0, 1, 1))):
            with pytest.raises(ValueError):
                Barcode(scale, [bar])
        assert Barcode(1, [(0, 0, 5), (0, 1, 0), (0, 1, 2), (0, 1, 1)]).bars == ((0, 1, 3),)

    def test_against_rank_count_oracle(self):
        rng = random.Random(31)
        for _ in range(40):
            Q = random_one_param(rng)
            assert barcode(Q) == barcode_of(barcode_by_rank_counts(Q))
        for _ in range(10):
            Q = random_one_param(rng, p=5)
            assert barcode(Q) == barcode_of(barcode_by_rank_counts(Q))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_pair_bars_split_the_barcode_triples(self, p):
        # births and deaths on a few values tie often, in every generator
        # order: the split lists are Barcode's sorted distinct triples, which
        # it counts by hash, so one multiset gives one split form
        rng = random.Random(40 + p)
        repeats = 0
        for _ in range(60):
            gens = [rng.randint(0, 3) for _ in range(rng.randint(1, 9))]
            rels = []
            for _ in range(rng.randint(0, 10)):
                support = rng.sample(range(len(gens)), rng.randint(1, min(2, len(gens))))
                rels.append((max(gens[i] for i in support) + rng.randint(0, 2),
                             {i: rng.randint(1, p - 1) for i in support}))
            Q = one_param(gens, rels, p)
            split = pair_bars([a for a, in Q.scaled_gens], [a for a, in Q.scaled_rels], list(map(dict, Q.cols)), p, {})
            reference = barcode_of(barcode_by_rank_counts(Q))
            assert reference.scale == 1
            bars = reference.bars
            finite = [bar for bar in bars if bar[1] != INF]
            assert split == tuple([list(column) for column in zip(*finite)] or [[], [], []]) + (
                [[b, m] for b, d, m in bars if d == INF],)
            repeats += any(m > 1 for m in split[2])
        assert repeats

    def test_equal_bars_apart_in_generator_order_are_one_entry(self):
        # three generators born at 0, killed at 2, 3 and 2 in generator order:
        # the two bars [0, 2) are one entry with count 2, whatever the order
        cols = [{0: 1}, {1: 1}, {2: 1}]
        assert pair_bars([0, 0, 0], [2, 3, 2], cols, 2, {}) == ([0, 0], [2, 3], [2, 1], [])
        assert pair_bars([0, 0, 0], [3, 2, 2], cols, 2, {}) == ([0, 0], [2, 3], [2, 1], [])

    def test_order_independence(self):
        rng = random.Random(32)
        for _ in range(25):
            Q = random_one_param(rng)
            reference = barcode(Q)
            gens = list(Q.gens)
            rels = list(Q.rels)
            rng.shuffle(gens)
            remap = {Q.gens.index(gen): i for i, gen in enumerate(gens)}
            rels = [Relation(r.grade, tuple(sorted((remap[i], c) for i, c in r.col))) for r in rels]
            rng.shuffle(rels)
            shuffled = Presentation(1, Q.p, tuple(gens), tuple(rels))
            assert barcode(shuffled) == reference


class TestSimplifyBarcode:
    def test_eps_zero(self):
        B = barcode_of({(0, 3): 1, (5, INF): 2})
        assert simplify_barcode(B, 0) == B

    def test_short_bars_die(self):
        B = barcode_of({(0, 3): 1, (0, 1): 1})
        assert simplify_barcode(B, 1) == barcode_of([(0, 2)])

    def test_infinite_bars_survive(self):
        B = barcode_of({(5, INF): 1})
        assert simplify_barcode(B, 100) == B


class TestBarcodeProperties:
    def test_direct_sum_additivity(self):
        rng = random.Random(33)
        for _ in range(10):
            P = random_module(rng)
            Q = random_module(rng)
            line = LineSpec.through(g(F(rng.randint(1, 8), 2), F(rng.randint(1, 8), 4)),
                                    [F(rng.randint(1, 8), 8), 1])
            left = barcode(restrict(direct_sum(P, Q), line))
            right = barcode_of(bars_of(barcode(restrict(P, line))) + bars_of(barcode(restrict(Q, line))))
            assert left == right

    def test_pointwise_dimension_consistency(self):
        rng = random.Random(34)
        P = random_module(rng, summands=3)
        line = LineSpec.through(g(3, 0), [1, 1])
        B = barcode(restrict(P, line))
        for _ in range(50):
            t = F(rng.randint(-20, 80), 4)
            assert sum(b <= t < d for b, d in bars_of(B)) == P.hilbert(point_at(line, t))

    def test_slope_one_simplification_commutes(self):
        rng = random.Random(35)
        for _ in range(10):
            P = random_module(rng, summands=2)
            eps = F(rng.randint(0, 8), 4)
            for _ in range(10):
                anchor = g(F(rng.randint(0, 30), 2), F(rng.randint(0, 30), 2))
                line = LineSpec.through(anchor, [1, 1])
                left = barcode(restrict(simplify(P, eps), line))
                right = simplify_barcode(barcode(restrict(P, line)), eps)
                assert left == right

    def test_minimal_generators_open_bars(self):
        rng = random.Random(36)
        for _ in range(15):
            M = minimize(random_module(rng, summands=2))
            for gen in M.gens:
                line = LineSpec.through(gen.grade, [1, 1])
                births = [b for b, d in bars_of(barcode(restrict(M, line)))]
                assert push(line, gen.grade) in births
