import math
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest

from multipres import (
    Grade,
    PresentationError,
    betti_and_grid,
    construct,
    direct_sum,
    free,
    minimize,
    shift,
    staircase_interval,
    verify_interleaving,
    zero_module,
)
from multipres.experiments import incompleteness_pair, random_module, random_staircase
from multipres.functors import shift_with_witness
from multipres.presentation import (
    DISCONNECTED,
    EMPTY,
    PRIME_LIMIT,
    Generator,
    Presentation,
    PresentationError,
    Relation,
    _is_prime,
    interval_rank,
    make_column,
    scale_grade,
    staircase_fences,
)

from oracles import dim_at, interval_rank_by_summands, interval_rank_dense
from oracles import rank_between as oracle_rank_between

INF = float("inf")


def g(*coords):
    return Grade(coords)


def probe_grid(span=5, scale=1):
    return [g(F(i * scale), F(j * scale)) for i in range(-1, span) for j in range(-1, span)]


class TestConstruct:
    def test_free_upper_quadrant(self):
        P = free([g(0, 0)])
        assert P.hilbert(g(1, 1)) == 1
        assert P.hilbert(g(-1, 0)) == 0

    def test_staircase_union_shape(self):
        # union of [1,10)x[0,10) and [0,10)x[1,10): births (1,0),(0,1),
        # merge at (1,1), deaths on the lines x=10 and y=10
        P = staircase_interval([g(1, 0), g(0, 1)], [g(10, 0), g(0, 10)])
        assert len(P.gens) == 2 and len(P.rels) == 3
        member = lambda a: (g(1, 0).leq(a) or g(0, 1).leq(a)) and not (
            g(10, 0).leq(a) or g(0, 10).leq(a)
        )
        for a in [g(x, y) for x in (0, 1, 5, 10, 11) for y in (0, 1, 5, 10, 11)]:
            assert P.hilbert(a) == int(member(a)) == dim_at(P, a)

    def test_rectangle_dimension(self):
        P = staircase_interval([g(0, 0)], [g(2, 0), g(0, 3)])
        for a in probe_grid():
            inside = g(0, 0).leq(a) and a.coords[0] < 2 and a.coords[1] < 3
            assert P.hilbert(a) == int(inside) == dim_at(P, a)

    def test_non_antichain_rejected(self):
        with pytest.raises(PresentationError):
            staircase_interval([g(0, 0), g(1, 1)])

    def test_death_below_births_rejected(self):
        with pytest.raises(PresentationError):
            staircase_interval([g(1, 1)], [g(0, 5)])

    def test_homogeneity_violation_rejected(self):
        with pytest.raises(PresentationError):
            Presentation(2, 2, (Generator("a", g(1, 1)),), (Relation(g(0, 0), ((0, 1),)),))

    def test_construct_dispatch(self):
        P = construct("free", grades=[g(0, 0)])
        assert len(P.gens) == 1
        with pytest.raises(PresentationError):
            construct("mystery")

    def test_staircase_needs_two_params(self):
        with pytest.raises(PresentationError):
            staircase_interval([g(0, 0, 0)])


class TestFieldCharacteristic:
    def test_agrees_with_trial_division_below_ten_thousand(self):
        def by_division(p):
            return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))

        assert all(_is_prime(p) == by_division(p) for p in range(-2, 10 ** 4))

    def test_mersenne_prime_accepted_fast(self):
        start = time.perf_counter()
        P = staircase_interval([g(0, 0)], [g(2, 0), g(0, 3)], p=2 ** 61 - 1)
        assert P.p == 2 ** 61 - 1 and time.perf_counter() - start < 0.5

    def test_pseudoprimes_rejected(self):
        # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7
        for n in (561, 3215031751, (2 ** 31 - 1) ** 2):
            assert not _is_prime(n)
            with pytest.raises(PresentationError):
                free([g(0, 0)], p=n)

    def test_beyond_certified_range_rejected(self):
        with pytest.raises(PresentationError, match="too large"):
            free([g(0, 0)], p=PRIME_LIMIT + 2)


class TestMinimize:
    def test_free_unchanged(self):
        P = free([g(0, 0), g(1, 2)])
        M = minimize(P)
        assert [x.grade for x in M.gens] == [x.grade for x in P.gens]
        assert not M.rels

    def test_equal_grade_pair_cancels(self):
        P = Presentation(
            2, 2,
            (Generator("b", g(1, 1)), Generator("b2", g(1, 1))),
            (Relation(g(1, 1), ((0, 1), (1, 1))),),
        )
        M = minimize(P)
        assert len(M.gens) == 1 and not M.rels
        for a in probe_grid():
            assert M.hilbert(a) == int(g(1, 1).leq(a)) == dim_at(P, a)

    def test_duplicate_relation_dropped(self):
        col = ((0, 1),)
        P = Presentation(
            2, 2,
            (Generator("b", g(0, 0)),),
            (Relation(g(2, 2), col), Relation(g(2, 2), col)),
        )
        assert len(minimize(P).rels) == 1

    def test_idempotent(self):
        rng = random.Random(21)
        for _ in range(20):
            P = random_module(rng, summands=2)
            M1 = minimize(P)
            M2 = minimize(M1)
            assert Counter(x.grade for x in M1.gens) == Counter(x.grade for x in M2.gens)
            assert Counter(r.grade for r in M1.rels) == Counter(r.grade for r in M2.rels)

    def test_hilbert_preserved_everywhere(self):
        rng = random.Random(22)
        for _ in range(10):
            P = random_module(rng, summands=2)
            M = minimize(P)
            data = betti_and_grid(P)
            points = list(data.grid.points())[:60]
            points += [g(F(rng.randint(-4, 60), 2), F(rng.randint(-4, 60), 2)) for _ in range(40)]
            for a in points:
                assert M.hilbert(a) == P.hilbert(a) == dim_at(P, a)

    def test_fuzz_dense_columns_all_primes(self):
        # adversarial shapes: repeated grades, dense columns, odd p
        rng = random.Random(27)
        for trial in range(40):
            p = rng.choice([2, 3, 5])
            k = rng.randint(1, 6)
            gens = tuple(
                Generator(f"g{i}", g(F(rng.randint(0, 6), 2), F(rng.randint(0, 6), 2)))
                for i in range(k)
            )
            rels = []
            for _ in range(rng.randint(0, 8)):
                support = rng.sample(range(k), rng.randint(1, k))
                grade = gens[support[0]].grade
                for i in support[1:]:
                    grade = grade.join(gens[i].grade)
                grade = grade.plus([F(rng.randint(0, 4), 2), F(rng.randint(0, 4), 2)])
                col = tuple(sorted((i, rng.randint(1, p - 1)) for i in support))
                rels.append(Relation(grade, col))
            P = Presentation(2, p, gens, tuple(rels))
            M = minimize(P)
            for _ in range(25):
                a = g(F(rng.randint(-2, 24), 2), F(rng.randint(-2, 24), 2))
                assert M.hilbert(a) == P.hilbert(a) == dim_at(P, a), f"trial {trial} at ({a})"
            M2 = minimize(M)
            assert Counter(x.grade for x in M.gens) == Counter(x.grade for x in M2.gens)
            assert Counter(r.grade for r in M.rels) == Counter(r.grade for r in M2.rels)
            for r in M.rels:
                assert all(M.gens[i].grade != r.grade for i, _ in r.col)

    def test_no_equal_grade_unit_pair_left(self):
        rng = random.Random(23)
        for _ in range(20):
            M = minimize(random_module(rng, summands=2))
            for r in M.rels:
                for i, c in r.col:
                    assert M.gens[i].grade != r.grade


class TestBetti:
    def test_free_single(self):
        data = betti_and_grid(free([g(0, 0)]))
        assert data.xi0 == Counter({g(0, 0): 1})
        assert not data.xi1
        assert data.c == INF

    def test_incompleteness_module_n(self):
        N, _ = incompleteness_pair()
        data = betti_and_grid(N)
        assert data.xi0 == Counter({g(1, 0): 1, g(0, 1): 1})
        assert data.xi1 == Counter({g(10, 0): 1, g(0, 10): 1, g(1, 10): 1, g(10, 1): 1})
        assert data.c == 1
        assert data.partial_complexity == 6

    def test_cancelled_module(self):
        P = Presentation(
            2, 2,
            (Generator("b", g(1, 1)), Generator("b2", g(1, 1))),
            (Relation(g(1, 1), ((0, 1), (1, 1))),),
        )
        data = betti_and_grid(P)
        assert data.xi0 == Counter({g(1, 1): 1}) and not data.xi1

    def test_controlling_constant_translation_invariant(self):
        rng = random.Random(24)
        for _ in range(10):
            P = random_module(rng)
            assert betti_and_grid(shift(P, F(5, 2))).c == betti_and_grid(P).c


class TestHilbert:
    def test_free_origin(self):
        assert free([g(0, 0)]).hilbert(g(1, 1)) == 1

    def test_incompleteness_n_at_merge_corner(self):
        N, O = incompleteness_pair()
        assert N.hilbert(g(1, 1)) == 2 == dim_at(N, g(1, 1))
        assert O.hilbert(g(1, 1)) == 2 == dim_at(O, g(1, 1))

    def test_rectangle_death(self):
        P = staircase_interval([g(0, 0)], [g(2, 0), g(0, 3)])
        assert P.hilbert(g(2, 1)) == 0 == dim_at(P, g(2, 1))

    def test_random_against_oracle(self):
        rng = random.Random(25)
        for _ in range(10):
            P = random_module(rng, summands=2)
            for _ in range(15):
                a = g(F(rng.randint(-4, 48), 2), F(rng.randint(-4, 48), 2))
                assert P.hilbert(a) == dim_at(P, a)


def _integer_module(rng, p: int) -> Presentation:
    """Random 2-parameter presentation on integer grades with dense columns."""
    k = rng.randint(1, 6)
    gens = tuple(Generator(f"g{i}", g(rng.randint(0, 6), rng.randint(0, 6))) for i in range(k))
    rels = []
    for _ in range(rng.randint(0, 8)):
        support = rng.sample(range(k), rng.randint(1, k))
        grade = gens[support[0]].grade
        for i in support[1:]:
            grade = grade.join(gens[i].grade)
        grade = grade.plus([rng.randint(0, 3), rng.randint(0, 3)])
        rels.append(Relation(grade, tuple(sorted((i, rng.randint(1, p - 1)) for i in support))))
    return Presentation(2, p, gens, tuple(rels))


class TestRankBetween:
    def test_against_dense_oracle_at_unscaled_queries(self):
        # integer grades have scale 1, so queries in halves and sevenths are floored
        rng = random.Random(28)
        for trial in range(60):
            p = rng.choice([2, 3, 5])
            P = _integer_module(rng, p) if trial % 2 else random_module(rng, p=p, summands=3)
            for _ in range(20):
                den = rng.choice([2, 7])
                a = g(F(rng.randint(-2 * den, 14 * den), den), F(rng.randint(-2 * den, 14 * den), den))
                b = a.plus([F(rng.randint(0, 6 * den), den), F(rng.randint(0, 6 * den), den)])
                assert P.rank_between(a, b) == oracle_rank_between(P, a, b), f"trial {trial}: ({a}) -> ({b})"
                assert P.rank_between(a, a) == P.hilbert(a) == dim_at(P, a)

    def test_needs_a_below_b(self):
        P = staircase_interval([g(0, 0)], [g(4, 4)])
        assert P.rank_between(g(1, 1), g(3, 3)) == 1
        assert P.rank_between(g(1, 1), g(5, 5)) == 0
        with pytest.raises(PresentationError, match="needs a <= b"):
            P.rank_between(g(3, F(7, 2)), g(F(7, 2), 3))

    def test_scale_grade_is_exact_or_rejected(self):
        assert scale_grade(g(F(3, 4), F(-5, 6), 2), 12) == (9, -10, 24)
        with pytest.raises(PresentationError, match="does not clear"):
            scale_grade(g(F(1, 4), F(1, 3)), 6)

    def test_wrong_dimension_query_rejected(self):
        P = staircase_interval([g(0, 0)], [g(4, 4)])
        for a in (g(1), g(1, 1, 1)):
            with pytest.raises(PresentationError, match="grade dimension"):
                P.hilbert(a)
            with pytest.raises(PresentationError, match="grade dimension"):
                P.rank_between(a, a)
            with pytest.raises(PresentationError, match="grade dimension"):
                P.rank_between(g(0, 0), a)


class TestDirectSum:
    def test_zero_identity(self):
        P = free([g(0, 0)])
        S = direct_sum(P, zero_module(2, 2))
        for a in probe_grid():
            assert S.hilbert(a) == P.hilbert(a)

    def test_two_free_summands(self):
        S = direct_sum(free([g(0, 0)]), free([g(0, 0)]))
        assert S.hilbert(g(1, 1)) == 2

    def test_additivity_on_incompleteness_pair(self):
        N, O = incompleteness_pair()
        S = direct_sum(N, O)
        probe = g(1, 1)
        assert S.hilbert(probe) == N.hilbert(probe) + O.hilbert(probe) == 4
        rng = random.Random(26)
        for _ in range(25):
            a = g(F(rng.randint(0, 24), 2), F(rng.randint(0, 24), 2))
            assert S.hilbert(a) == N.hilbert(a) + O.hilbert(a) == dim_at(S, a)

    def test_mismatch_rejected(self):
        with pytest.raises(PresentationError):
            direct_sum(free([g(0, 0)]), zero_module(3, 2))
        with pytest.raises(PresentationError):
            direct_sum(free([g(0, 0)], p=2), free([g(0, 0)], p=5))


class TestShift:
    def test_zero_shift(self):
        P = free([g(0, 0)])
        assert shift(P, 0) == P

    def test_vector_shift(self):
        P = shift(free([g(0, 0)]), [1, 2])
        assert P.gens[0].grade == g(1, 2)

    def test_translate_witness_accepted(self):
        N, _ = incompleteness_pair()
        Q, w = shift_with_witness(N, F(1, 2))
        assert verify_interleaving(N, Q, w).accepted


def closed(births, deaths, top=40):
    """Add the two corners that bound up(births) minus up(deaths) at top."""
    x0 = min(b.coords[0] for b in births)
    y0 = min(b.coords[1] for b in births)
    return list(births), list(deaths) + [g(x0, top), g(top, y0)]


def random_antichain(rng, k, lo, hi):
    xs = sorted(rng.sample(range(lo, hi), k))
    ys = sorted(rng.sample(range(lo, hi), k), reverse=True)
    return [g(x, y) for x, y in zip(xs, ys)]


def entangle(P, rng):
    """A non-minimal presentation of the same module.

    Adds a generator z with a cancelling relation z + c * x_i at z's grade,
    mixes that relation into some of the relations above it, and appends a
    redundant relation: the sum of two others at a grade above both.
    """
    p = P.p
    i = rng.randrange(len(P.gens))
    a = P.gens[i].grade.plus([rng.randint(0, 3), rng.randint(0, 3)])
    z = len(P.gens)
    pair = [(z, 1), (i, rng.randint(1, p - 1))]
    rels = []
    for r in P.rels:
        col = list(r.col)
        if a.leq(r.grade) and rng.random() < 0.5:
            d = rng.randint(1, p - 1)
            col += [(j, d * c) for j, c in pair]
        rels.append(Relation(r.grade, make_column(col, p)))
    rels.append(Relation(a, make_column(pair, p)))
    r1, r2 = rng.sample(rels, 2)
    extra = make_column(list(r1.col) + list(r2.col), p)
    if extra:
        rels.append(Relation(r1.grade.join(r2.grade).plus([1, 0]), extra))
    return Presentation(2, p, P.gens + (Generator("z", a),), tuple(rels))


class TestIntervalRank:
    def test_matches_both_oracles(self):
        rng = random.Random(27)
        seen = Counter()
        for case in range(16):
            p = (2, 3)[case % 2]
            parts = [random_staircase(rng, p=p) for _ in range(rng.randint(1, 3))]
            P = parts[0]
            for S in parts[1:]:
                P = direct_sum(P, S)
            summands = [([x.grade for x in S.gens], [r.grade for r in S.rels if len(r.col) == 1])
                        for S in parts]
            intervals = [closed(b, d) for b, d in summands]
            intervals += [closed(random_antichain(rng, rng.randint(1, 3), 0, 12),
                                 random_antichain(rng, rng.randint(1, 3), 3, 30))]
            for births, deaths in list(intervals):
                e = F(rng.randint(1, 12), 2)
                intervals.append(([b.translate(e) for b in births], [d.translate(-e) for d in deaths]))
            E = entangle(P, rng)
            assert betti_and_grid(E).xi0 == betti_and_grid(P).xi0
            assert len(E.gens) > len(minimize(E).gens)
            for births, deaths in intervals:
                want = interval_rank_dense(P, births, deaths)
                for M in (minimize(P), E):
                    assert interval_rank(M, births, deaths) == want, (case, births, deaths)
                if want is not None:
                    assert want == interval_rank_by_summands(summands, births, deaths)
                seen[want] += 1
        assert {None, 0, 1, 2} <= set(seen), seen

    def test_rectangles_and_their_union(self):
        N, O = incompleteness_pair(1, 3)
        union = ([g(1, 0), g(0, 1)], [g(10, 0), g(0, 10)])
        assert interval_rank(O, *union) == 1
        assert interval_rank(N, *union) == 0
        for e in (F(1, 2), F(9, 10), 1):
            births, deaths = ([b.translate(e) for b in union[0]], [d.translate(-e) for d in union[1]])
            assert interval_rank(N, births, deaths) == (2 if e == 1 else 0)
        # a rectangle of N has rank 1 in both modules
        rect = ([g(1, 0)], [g(10, 0), g(1, 10)])
        assert interval_rank(N, *rect) == interval_rank(O, *rect) == 1

    def test_birth_inside_deaths_dropped(self):
        P = staircase_interval([g(0, 2), g(2, 0)], [g(6, 6)])
        births, deaths = closed([g(2, 2), g(7, 0)], [g(6, 0)])
        assert interval_rank(P, births, deaths) == interval_rank(P, [g(2, 2)], deaths) == 1
        assert interval_rank_dense(P, births, deaths) == 1
        assert interval_rank(P, [g(7, 0)], deaths) is None
        assert staircase_fences([(7, 0)], [(6, 0), (2, 40), (40, 0)]) == EMPTY

    def test_disconnected_is_none(self):
        P = staircase_interval([g(0, 4), g(4, 0)], [g(0, 10), g(6, 6), g(10, 0)])
        births, deaths = [g(0, 4), g(4, 0)], [g(0, 10), g(6, 6), g(10, 0)]
        assert interval_rank(P, births, deaths) == interval_rank_dense(P, births, deaths) == 1
        # eroded by 1 the join (5, 5) of the births meets the death corner (5, 5)
        births = [b.translate(1) for b in births]
        deaths = [d.translate(-1) for d in deaths]
        assert interval_rank(P, births, deaths) is None
        assert interval_rank_dense(P, births, deaths) is None
        assert staircase_fences([(1, 5), (5, 1)], [(-1, 9), (5, 5), (9, -1)]) == DISCONNECTED
        # the join (3, 3) of the births is a death corner
        assert staircase_fences([(0, 3), (3, 0)], [(0, 9), (3, 3), (9, 0)]) == DISCONNECTED

    def test_unbounded_rejected(self):
        P = staircase_interval([g(0, 0)], [g(2, 2)])
        with pytest.raises(PresentationError):
            interval_rank(P, [g(0, 0)], [g(2, 2)])
        with pytest.raises(PresentationError):
            interval_rank(free([g(0, 0, 0)]), [g(0, 0, 0)], [g(1, 1, 1)])
