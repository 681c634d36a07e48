import copy
import math
import pickle
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest

from multipres import (
    Grade,
    kernels,
    presentation,
    PresentationError,
    betti_and_grid,
    direct_sum,
    fio,
    free,
    minimize,
    shift,
    simplify,
    simplify_with_witness,
    staircase_interval,
    verify_interleaving,
)
from multipres.experiments import incompleteness_pair, jitter_module, random_staircase
from multipres.functors import InterleavingWitness, merge_with_witness, shift_with_witness, translate_image
from multipres.grades import GridFunction
from multipres.metrics import _interval_probes
from multipres.presentation import (
    DISCONNECTED,
    EMPTY,
    PRIME_LIMIT,
    Generator,
    Presentation,
    PresentationError,
    Relation,
    ScaledModule,
    _is_prime,
    common_scale,
    interval_rank,
    make_column,
    scale_grade,
    staircase_fences,
)

from oracles import dim_at, grid_points, interval_rank_by_summands, interval_rank_dense, minimize_by_scan
from oracles import betti_grades, incompleteness_pair_by_fractions, jitter_by_fractions, random_module
from oracles import normal_form, tangled_module, translated, zero_module
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

    def test_rejected_column_carries_its_index(self):
        a = (Generator("a", g(0, 0)),)
        for col in (((0, 1), (0, 1)), ((1, 1),), ((0, 2),)):
            with pytest.raises(PresentationError) as err:
                Presentation(2, 2, a, (Relation(g(1, 1), ()), Relation(g(1, 1), col)))
            assert err.value.relation == 1

    def test_zero_entries_checked_then_dropped(self):
        a = (Generator("a", g(0, 0)), Generator("b", g(0, 0)))
        P = Presentation(2, 2, a, (Relation(g(1, 1), ((0, 0), (1, 1))),))
        assert P.rels == (Relation(g(1, 1), ((1, 1),)),)
        with pytest.raises(PresentationError):
            Presentation(2, 2, a, (Relation(g(1, 1), ((2, 0),)),))

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
            points = grid_points(data.grid)[:60]
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

    def test_output_equals_scan_reference(self):
        # the same generators and relation columns in the same order, not
        # only the same module
        rng = random.Random(29)
        for p in (2, 3, 5):
            for _ in range(10):
                P = random_module(rng, p=p, summands=rng.randint(1, 4))
                E = entangle(entangle(P, rng), rng)
                for Q in (P, E, simplify(E, 2, minimized=False), simplify(P, F(3, 2), minimized=False)):
                    assert minimize(Q) == normal_form(minimize_by_scan(Q))

    def test_output_equals_scan_reference_with_a_pair_per_generator(self):
        # many cancellations per call, each cancelled generator held by
        # several later relations, and relations tied at one grade
        rng = random.Random(31)
        cancelled = 0
        for p in (2, 3, 5, 7):
            for _ in range(8):
                P = random_module(rng, p=p, summands=rng.randint(3, 6))
                for Q in (pair_every_generator(P, rng), pair_every_generator(entangle(P, rng), rng)):
                    M = minimize(Q)
                    assert M == normal_form(minimize_by_scan(Q))
                    assert len(M.gens) == len(minimize(P).gens)
                    cancelled += len(Q.gens) - len(M.gens)
        assert cancelled >= 400, cancelled

    def test_output_equals_scan_reference_on_tangled_modules(self):
        # tied grades and chained cancellations, where the reduction path
        # shows: a sweep that cleared only each column's top row differs
        # from the reference on about 8% of these modules
        rng = random.Random(41)
        cancelled = 0
        for k in range(2400):
            P = tangled_module(rng, 1 + k % 3, (2, 3, 5, 7)[k % 4])
            M = minimize(P)
            assert M == normal_form(minimize_by_scan(P)), k
            cancelled += len(P.gens) - len(M.gens)
        assert cancelled >= 4000, cancelled

    def test_output_depends_on_the_relation_module_alone(self):
        # the same output after shuffling the relations, and after adding to
        # one relation a multiple of another at a lower or equal grade
        rng = random.Random(43)
        for k in range(2000):
            p = (2, 3, 5, 7)[k % 4]
            P = tangled_module(rng, 1 + k % 3, p)
            M = minimize(P)
            rels = list(P.rels)
            rng.shuffle(rels)
            assert minimize(Presentation(P.n, p, P.gens, tuple(rels))) == M, k
            rels = list(P.rels)
            i = rng.randrange(len(rels))
            lower = [r for j, r in enumerate(rels) if j != i and r.grade.leq(rels[i].grade)]
            if lower:
                f, r = rng.randint(1, p - 1), rng.choice(lower)
                rels[i] = Relation(rels[i].grade, make_column(list(rels[i].col) + [(j, f * c) for j, c in r.col], p))
                assert minimize(Presentation(P.n, p, P.gens, tuple(rels))) == M, k

    @pytest.mark.parametrize("k", [8, 32])
    def test_each_relation_is_reduced_at_most_once(self, k, monkeypatch):
        # a work contract: one clearing per relation that cancels nothing,
        # none per cancelling one, on entangled sums of k staircases
        calls = []
        cleared = kernels.cleared
        monkeypatch.setattr(kernels, "cleared", lambda v, b, p: calls.append(v) or cleared(v, b, p))
        rng = random.Random(45 + k)
        for p in (2, 3, 5):
            P = direct_sum(*(random_staircase(rng, p=p) for _ in range(k)))
            kept = len(minimize(P).gens)
            for Q in (entangle(entangle(P, rng), rng), pair_every_generator(entangle(P, rng), rng)):
                calls.clear()
                M = minimize(Q)
                cancelled = len(Q.gens) - len(M.gens)
                assert len(M.gens) == kept and cancelled >= 2
                assert len(calls) <= len(Q.rels) - cancelled

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

    def test_scale_grade_is_exact_or_floored(self):
        assert scale_grade(g(F(3, 4), F(-5, 6), 2), 12) == (9, -10, 24)
        # a scale that does not clear the denominators rounds down, as ScaledModule.floor
        assert scale_grade(g(F(1, 4), F(-1, 4), F(1, 3)), 6) == (1, -2, 2)

    def test_wrong_dimension_query_rejected(self):
        P = staircase_interval([g(0, 0)], [g(4, 4)])
        for a in (g(1), g(1, 1, 1)):
            with pytest.raises(PresentationError, match="grade dimension"):
                P.hilbert(a)
            with pytest.raises(PresentationError, match="grade dimension"):
                P.rank_between(a, a)
            with pytest.raises(PresentationError, match="grade dimension"):
                P.rank_between(g(0, 0), a)


def exact_grade(rng, n):
    """A grade with denominators up to 97 and coordinates of either sign."""
    return Grade(F(rng.randint(-40, 40), rng.randint(1, 97)) for _ in range(n))


def fpres_text(n, p, gens, rels):
    """FPRES text of unchecked data: the relation k line is 6 + len(gens) + k."""
    lines = ["fpres 1", f"field {p}", f"params {n}", f"generators {len(gens)}"]
    lines += [f"g {x.label} {x.grade}" for x in gens]
    lines.append(f"relations {len(rels)}")
    lines += [f"r {r.grade} ; " + " ".join(f"{c}:{i}" for i, c in r.col) for r in rels]
    return "\n".join(lines) + "\n"


class TestIntegerForm:
    """The integer grades each Presentation derives once, against Fraction grades."""

    @staticmethod
    def random_columns(rng, n):
        """Generators and relations whose grades sit on, near and off the joins of their supports."""
        gens = tuple(Generator(f"g{i}", exact_grade(rng, n)) for i in range(rng.randint(1, 5)))
        rels = []
        for _ in range(rng.randint(1, 6)):
            support = sorted(rng.sample(range(len(gens)), rng.randint(1, len(gens))))
            top = gens[support[0]].grade
            for i in support[1:]:
                top = top.join(gens[i].grade)
            # at the join, above it, a hair below it in one coordinate, or anywhere
            shift = [rng.choice([0, F(1, rng.randint(1, 97))]) for _ in range(n)]
            if rng.random() < 0.2:
                shift[rng.randrange(n)] = F(-1, 97 * 97)
            grade = top.plus(shift) if rng.random() < 0.85 else exact_grade(rng, n)
            rels.append(Relation(grade, tuple((i, rng.randint(1, 2)) for i in support)))
        return gens, tuple(rels)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_homogeneity_check_matches_fraction_order(self, n):
        rng = random.Random(170 + n)
        rejected = accepted = 0
        for _ in range(150):
            gens, rels = self.random_columns(rng, n)
            want = next((k for k, r in enumerate(rels)
                         if not all(gens[i].grade.leq(r.grade) for i, _ in r.col)), None)
            if want is None:
                Presentation(n, 3, gens, rels)
                fio.parse_fpres(fpres_text(n, 3, gens, rels))
                accepted += 1
                continue
            # the message prints both grades as their Fraction Grades print
            r = rels[want]
            i = next(i for i, _ in r.col if not gens[i].grade.leq(r.grade))
            message = (f"relation {want} at grade ({r.grade}) lies below generator "
                       f"{gens[i].label!r} at ({gens[i].grade})")
            with pytest.raises(PresentationError) as err:
                Presentation(n, 3, gens, rels)
            assert (str(err.value), err.value.relation) == (message, want)
            S = 5 * common_scale(c for x in gens + rels for c in x.grade.coords)
            with pytest.raises(PresentationError) as err:
                Presentation.from_integers(n, 3, S, [x.label for x in gens], [scale_grade(x.grade, S) for x in gens],
                                           [scale_grade(x.grade, S) for x in rels], [x.col for x in rels])
            assert (str(err.value), err.value.relation) == (message, want)
            with pytest.raises(fio.FormatError) as err:
                fio.parse_fpres(fpres_text(n, 3, gens, rels))
            assert str(err.value) == f"line {6 + len(gens) + want}: {message}"
            rejected += 1
        assert rejected > 20 and accepted > 20, (rejected, accepted)

    def test_both_constructors_reject_columns_alike(self):
        gens = (Generator("a", g(0, F(1, 2))), Generator("b", g(1, 0)))
        cases = [((Relation(g(2, 2), ((0, 1),)), Relation(g(2, 2), ((2, 1),))), "relation 1 references generator index 2"),
                 ((Relation(g(2, 2), ((1, 1), (0, 1))),), "relation 0 names generator 0 twice or out of order"),
                 ((Relation(g(2, 2), ((0, 1), (0, 1))),), "relation 0 names generator 0 twice or out of order"),
                 ((Relation(g(2, 2), ((0, 3),)),), "relation 0 coefficient 3 out of range for F_3"),
                 ((Relation(g(2, 2), ()), Relation(g(2, 2, 2), ())), "relation 1 has dimension 3, expected 2"),
                 ((Relation(g(F(1, 3), 1), ((1, 1),)),), "relation 0 at grade (1/3 1) lies below generator 'b' at (1 0)")]
        for rels, message in cases:
            k = int(message.split()[1])
            with pytest.raises(PresentationError) as err:
                Presentation(2, 3, gens, rels)
            assert (str(err.value), err.value.relation) == (message, k)
            with pytest.raises(PresentationError) as err:
                Presentation.from_integers(2, 3, 12, ["a", "b"], [(0, 6), (12, 0)],
                                           [scale_grade(r.grade, 12) for r in rels], [r.col for r in rels])
            assert (str(err.value), err.value.relation) == (message, k)
        with pytest.raises(PresentationError, match="^generator 'b' has dimension 1, expected 2$"):
            Presentation.from_integers(2, 3, 1, ["a", "b"], [(0, 0), (1,)], [], [])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lazy_objects_and_both_constructors_agree(self, n):
        # gens and rels built on first use equal the Generators and
        # Relations given, and the integer form at any multiple of the scale
        # stores the same module
        rng = random.Random(190 + n)
        for _ in range(40):
            gens, rels = self.random_columns(rng, n)
            rels = tuple(r for r in rels if all(gens[i].grade.leq(r.grade) for i, _ in r.col))
            P = Presentation(n, 3, gens, rels)
            parsed = fio.parse_fpres(fpres_text(n, 3, gens, rels))
            for M in (P, parsed):
                assert M.gens == gens and M.rels == rels
                assert all(type(c) is F for x in M.gens + M.rels for c in x.grade.coords)
            for k in (1, 2, 6):
                Q = Presentation.from_integers(n, 3, k * P.scale, P.labels,
                                               [tuple(k * v for v in a) for a in P.scaled_gens],
                                               [tuple(k * v for v in a) for a in P.scaled_rels], P.cols)
                assert Q == P and hash(Q) == hash(P) and Q.scale == P.scale
            assert copy.copy(P) == pickle.loads(pickle.dumps(parsed)) == P

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_trusted_and_checked_store_steps_agree(self, n):
        # on the same valid data at any multiple of the scale, the unchecked
        # store step of derived modules keeps what the checked one keeps
        rng = random.Random(200 + n)
        for _ in range(40):
            gens, rels = self.random_columns(rng, n)
            P = Presentation(n, 3, gens, tuple(r for r in rels if all(gens[i].grade.leq(r.grade) for i, _ in r.col)))
            for k in (1, 2, 6):
                data = (n, 3, k * P.scale, P.labels, [tuple(k * v for v in a) for a in P.scaled_gens],
                        [tuple(k * v for v in a) for a in P.scaled_rels], P.cols)
                checked, trusted = Presentation.from_integers(*data), Presentation.trusted(*data)
                assert trusted == checked == P and hash(trusted) == hash(checked)
                assert trusted.scale == checked.scale == P.scale

    def test_functor_outputs_store_the_canonical_scale(self):
        # each functor works at a common scale of the module, eps and the
        # grid, and what it stores equals, and hashes like, its printed text
        # read back
        rng = random.Random(195)
        far = GridFunction([[F(1000, 7)], [F(1000, 7)]])
        for trial in range(24):
            P = random_module(rng, p=3, summands=3)
            if trial % 2:
                P = jitter_module(P, rng, F(1, 3))
            outs = [simplify_with_witness(P, F(1, 6))[0], translate_image(P, F(5, 7)), P.minimal,
                    merge_with_witness(P, GridFunction([[F(1, 5), 3], [0, F(7, 10)]]), F(1, 10))[0],
                    shift(P, [F(1, 4), F(-3, 4)]), direct_sum(P, shift(P, F(1, 2)))]
            for out in outs:
                back = fio.parse_fpres(fio.serialize_fpres(out))
                assert back == out and hash(back) == hash(out) and back.scale == out.scale
                assert Presentation(out.n, out.p, out.gens, out.rels) == out
            # nothing snaps onto a grid this far away: merged at a multiple of 14, stored at P's scale
            merged, _ = merge_with_witness(P, far, F(1, 2))
            assert merged == P and merged.scale == P.scale

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_scaled_module_matches_scale_grade(self, n):
        rng = random.Random(180 + n)
        for _ in range(60):
            gens, rels = self.random_columns(rng, n)
            P = Presentation(n, 3, gens, tuple(r for r in rels
                                               if all(gens[i].grade.leq(r.grade) for i, _ in r.col)))
            grades = betti_grades(P)
            assert P.scale == common_scale(c for a in grades for c in a.coords)
            for S in (P.scale, 4 * P.scale, math.lcm(P.scale, 7)):
                M = ScaledModule(P, S)
                assert M.gens == [scale_grade(x.grade, S) for x in P.gens]
                assert [a for a, _ in M.rels] == [scale_grade(r.grade, S) for r in P.rels]
                assert [col for _, col in M.rels] == [dict(r.col) for r in P.rels]

    def test_scale_must_be_a_multiple_of_the_module_scale(self):
        P = free([g(F(1, 6), 0)])
        assert P.scale == 6
        with pytest.raises(PresentationError, match="not a multiple"):
            ScaledModule(P, 4)


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
        with pytest.raises(PresentationError):
            direct_sum(free([g(0, 0)]), free([g(0, 0)]), zero_module(3, 2))

    def test_many_summands_equal_the_pairwise_sums(self):
        rng = random.Random(27)
        for _ in range(20):
            parts = [random_staircase(rng, p=3) for _ in range(rng.randint(1, 5))]
            parts += [shift(parts[0], F(1, rng.randint(1, 6))), zero_module(2, 3)]
            rng.shuffle(parts)
            folded = parts[0]
            for Q in parts[1:]:
                folded = direct_sum(folded, Q)
            S = direct_sum(*parts)
            assert S == folded and S.labels == folded.labels
            assert len(set(S.labels[len(parts[0].labels):])) == len(S.labels) - len(parts[0].labels)


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


def pair_every_generator(P, rng):
    """A shuffled non-minimal presentation of P with one trivial pair per generator.

    For each generator of P a new generator z is added at a relation grade of
    P or just above the generator, with the relation z + (some generators
    below it) at z's grade.  That relation is added to about half of the
    relations above it, the earlier pairs' relations included, so a
    cancellation of z rewrites several later relations.
    """
    p = P.p
    gens = [x.grade for x in P.gens]
    rels = [(r.grade, dict(r.col)) for r in P.rels]
    for i in range(len(P.gens)):
        at = rng.choice([gens[i].plus([rng.randint(0, 2), rng.randint(0, 2)])] + [a for a, _ in rels])
        pair = {len(gens): 1}
        for j, b in enumerate(gens):
            if b.leq(at) and rng.random() < 0.5:
                pair[j] = rng.randint(1, p - 1)
        gens.append(at)
        for k, (a, col) in enumerate(rels):
            if at.leq(a) and rng.random() < 0.5:
                d = rng.randint(1, p - 1)
                rels[k] = (a, dict(make_column(list(col.items()) + [(j, d * c) for j, c in pair.items()], p)))
        rels.append((at, pair))
    order = list(range(len(gens)))
    rng.shuffle(order)
    new = {old: k for k, old in enumerate(order)}
    rng.shuffle(rels)
    return Presentation(P.n, p, tuple(Generator(f"g{k}", gens[old]) for k, old in enumerate(order)), tuple(
        Relation(a, make_column({new[i]: c for i, c in col.items()}, p)) for a, col in rels))


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
                intervals.append(([translated(b, e) for b in births], [translated(d, -e) for d in deaths]))
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

    def test_lower_bound_probes_match_dense_oracle(self):
        """The interval probes rank_lower_bound reads off minimal forms
        (metrics._interval_probes, in its quarter units), eroded at several
        eps, on each module of the pair: the minimal form of a sum and that
        of a shuffled non-minimal presentation of it.  The dense oracle runs
        per summand, the generalized rank being additive over direct sums.
        """
        rng = random.Random(5)
        seen = Counter()
        for case, sizes in enumerate([(2, 3), (3, 4), (4, 2)]):
            p = (2, 3, 5)[case]
            pair = []
            for k in sizes:
                parts = [random_staircase(rng, p=p) for _ in range(k)]
                P = parts[0]
                for S in parts[1:]:
                    P = direct_sum(P, S)
                E = pair_every_generator(entangle(P, rng), rng)
                pair.append((parts, [ScaledModule(M.minimal, 4) for M in (P, E)]))
            # rank_lower_bound closes the probes a Betti-grid width above the grid
            corners = [q for _, views in pair for V in views for q in V.gens + [a for a, _ in V.rels]]
            lo, hi = ([f(q[i] for q in corners) for i in range(2)] for f in (min, max))
            pad = max(h - l for h, l in zip(hi, lo))
            top = (hi[0] + pad, hi[1] + pad)
            probes = {(tuple(b), tuple(d)) for _, views in pair for V in views for b, d in _interval_probes(V, top)}
            for births, deaths in sorted(probes):
                for e in (0, 2, 4):
                    B, D = [(x + e, y + e) for x, y in births], [(x - e, y - e) for x, y in deaths]
                    fences = staircase_fences(B, D)
                    tops = 0 if isinstance(fences, str) else len(fences[2])
                    GB, GD = ([g(F(x, 4), F(y, 4)) for x, y in C] for C in (B, D))
                    for parts, views in pair:
                        ranks = [interval_rank_dense(S, GB, GD) for S in parts]
                        want = None if None in ranks else sum(ranks)
                        for V in views:
                            assert V.interval_rank(B, D) == want, (case, B, D)
                        seen[want, min(tops, 3)] += 1
        # nonzero and zero ranks over intervals with three or more tops
        assert any(r and t == 3 for r, t in seen) and seen[0, 3], seen

    def test_rectangles_and_their_union(self):
        N, O = incompleteness_pair(1, 3)
        union = ([g(1, 0), g(0, 1)], [g(10, 0), g(0, 10)])
        assert interval_rank(O, *union) == 1
        assert interval_rank(N, *union) == 0
        for e in (F(1, 2), F(9, 10), 1):
            births, deaths = ([translated(b, e) for b in union[0]], [translated(d, -e) for d in union[1]])
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
        births = [translated(b, 1) for b in births]
        deaths = [translated(d, -1) for d in deaths]
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


class TestBasisMemo:
    """ScaledModule grows each basis of its memo from a memoized subset."""

    def test_queries_in_any_order_match_oracles(self):
        rng = random.Random(31)
        seen = Counter()
        for case in range(9):
            p = (2, 3, 5)[case % 3]
            parts = [random_staircase(rng, p=p) for _ in range(rng.randint(1, 3))]
            P = parts[0]
            for S in parts[1:]:
                P = direct_sum(P, S)
            summands = [([x.grade for x in S.gens], [r.grade for r in S.rels if len(r.col) == 1])
                        for S in parts]
            intervals = [closed(b, d) for b, d in summands]
            intervals += [closed(random_antichain(rng, rng.randint(1, 3), 0, 12),
                                 random_antichain(rng, rng.randint(1, 3), 3, 30)) for _ in range(2)]
            for births, deaths in list(intervals):
                e = F(rng.randint(1, 8), 2)
                intervals.append(([translated(b, e) for b in births], [translated(d, -e) for d in deaths]))
            queries = []
            for _ in range(12):
                a = g(F(rng.randint(-2, 50), 2), F(rng.randint(-2, 50), 2))
                b = a.plus([F(rng.randint(0, 24), 2), F(rng.randint(0, 24), 2)])
                queries += [("dim", a, dim_at(P, a)), ("rank", (a, b), oracle_rank_between(P, a, b))]
            for births, deaths in intervals:
                if not isinstance(staircase_fences(*([scale_grade(c, 2) for c in C] for C in (births, deaths))), str):
                    queries.append(("interval", (births, deaths), interval_rank_by_summands(summands, births, deaths)))
            for M in (P, entangle(P, rng), entangle(entangle(P, rng), rng)):
                for _ in range(3):
                    rng.shuffle(queries)
                    V = ScaledModule(M, 2 * M.scale)
                    for kind, q, want in queries:
                        if kind == "dim":
                            got = V.dim(V.floor(q))
                        elif kind == "rank":
                            got = V.rank_between(V.floor(q[0]), V.floor(q[1]))
                        else:
                            got = V.interval_rank(*([scale_grade(c, V.scale) for c in C] for C in q))
                        assert got == want, (case, kind, q)
                        seen[kind, min(want, 2)] += 1
        assert all(seen[kind, r] for kind in ("dim", "rank", "interval") for r in (0, 1, 2)), seen

    def test_growth_reduces_only_the_added_columns(self, monkeypatch):
        P = staircase_interval([g(0, 6), g(3, 3), g(6, 0)], [g(8, 9), g(9, 8)], p=3)
        assert len(P.rels) == 4
        full = kernels.rank([dict(r.col) for r in P.rels], 3)
        calls = []
        extend = kernels.extend

        def counting(basis, columns, p):
            calls.append((len(basis), len(columns)))
            return extend(basis, columns, p)

        monkeypatch.setattr(kernels, "extend", counting)
        V = ScaledModule(P, 1)
        R = len(V.rels)
        V.rel_basis(0b0011)
        assert calls == [(0, 2)]
        # grown from 0b0011: only relations 2 and 3 are reduced
        assert len(V.rel_basis(0b1111)) == full
        assert calls[-1] == (2, 2)
        # a repeated key reduces nothing
        V.rel_basis(0b1111)
        V.rel_basis(0b0011)
        assert len(calls) == 2
        # units on top of the largest memoized subset: one column each
        units = 0b101 << R
        V.rel_basis(0b1111 | units)
        assert calls[-1] == (len(V.rel_basis(0b1111)), 2)
        # no memoized subset but the empty key
        V.rel_basis(0b0100 | 0b010 << R)
        assert calls[-1] == (0, 2)
        # rank_between reads two memoized bases and reduces nothing new for a repeat
        n = len(calls)
        first = V.rank_between((3, 3), (9, 9))
        assert V.rank_between((3, 3), (9, 9)) == first == oracle_rank_between(P, g(3, 3), g(9, 9))
        assert len(calls) <= n + 2

    def test_window_bounds_the_subsets_searched(self, monkeypatch):
        monkeypatch.setattr(presentation, "BASIS_WINDOW", 2)
        P = staircase_interval([g(0, 6), g(3, 3), g(6, 0)], [g(8, 9), g(9, 8)], p=2)
        V = ScaledModule(P, 1)
        calls = []
        extend = kernels.extend
        monkeypatch.setattr(kernels, "extend", lambda b, c, p: calls.append(len(c)) or extend(b, c, p))
        for key in (0b0001, 0b0010, 0b0100):
            V.rel_basis(key)
        # 0b0001 has left the window, so 0b0011 grows from 0b0010
        V.rel_basis(0b0011)
        assert calls == [1, 1, 1, 1]
        V.rel_basis(0b1011)
        assert calls[-1] == 1


class TestSpanCertificate:
    def test_multiple_of_a_column_is_certified_only_below_its_grade(self, monkeypatch):
        P = Presentation(2, 5, (Generator("a", g(0, 0)), Generator("b", g(1, 0))), (
            Relation(g(2, 2), ((0, 1), (1, 2))),
            Relation(g(4, 4), ((0, 3),)),
        ))
        V = ScaledModule(P, 1)
        reduced = []
        residual = kernels.residual
        monkeypatch.setattr(kernels, "residual", lambda v, b, p: reduced.append(v) or residual(v, b, p))
        # 3 * (a + 2b) and 4 * (3a): multiples of a column at or below the grade
        assert V.in_span({0: 3, 1: 1}, (2, 2)) and V.in_span({0: 4}, (4, 4))
        assert V.in_span({}, (0, 0))
        assert reduced == []
        # a multiple of the column at (4, 4), asked at (3, 3), is not certified
        assert not V.in_span({0: 2}, (3, 3))
        assert reduced == [{0: 2}]
        # the wrong ratio between the entries is no multiple of a + 2b
        assert not V.in_span({0: 3, 1: 2}, (2, 2))
        # a combination of both columns is found by the residual test
        assert V.in_span({0: 1, 1: 4}, (4, 4))
        assert not V.in_span({1: 1}, (3, 3)) and V.in_span({1: 1}, (4, 4))

    @pytest.mark.parametrize("p", [3, 5])
    def test_verify_still_rejects(self, p):
        P = direct_sum(staircase_interval([g(0, 6), g(6, 0)], [g(20, 20)], p=p),
                       staircase_interval([g(3, 3)], [g(9, 9)], p=p))
        ident = tuple((i, i, 1) for i in range(len(P.gens)))
        eps = F(2)
        S, w = simplify_with_witness(P, eps)
        assert verify_interleaving(P, S, w).accepted and verify_interleaving(S, P, w).accepted
        # smaller eps: S's relations reach P a little before P's own do
        smaller = InterleavingWitness(eps - F(1, 7), ident, ident)
        report = verify_interleaving(S, P, smaller)
        assert not report.accepted and "outside the relation submodule" in report.reason
        # f sends generator 0 to 2 times itself: the merge relation's image
        # is no multiple of a relation column
        changed = tuple((i, i, 2 if i == 0 else 1) for i in range(len(P.gens)))
        report = verify_interleaving(P, P, InterleavingWitness(F(0), changed, ident))
        assert report.reason == "f sends relation 0 (grade 6 6) outside the relation submodule"


class TestIntegerConstructions:
    """The modules the library builds from integer grades, against their
    Fraction routes in tests/oracles.py."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_jitter_matches_fraction_reference(self, p):
        # amounts whose denominators the module's scale does not clear, on
        # integer modules and on modules already jittered to twelfths
        rng = random.Random(2810 + p)
        for trial in range(30):
            P = random_module(rng, p=p, summands=3)
            if trial % 2:
                P = jitter_module(P, rng, F(1, 3))
            amount = F(rng.randint(0, 9), rng.choice([1, 2, 5, 7, 12]))
            seed = rng.random()
            Q = jitter_module(P, random.Random(seed), amount)
            assert Q == jitter_by_fractions(P, random.Random(seed), amount), (P, amount)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_incompleteness_pair_matches_fraction_reference(self, p):
        for eps in (0, 1, 2, F(1, 2), F(3, 7), "5/3"):
            assert incompleteness_pair(eps, p) == incompleteness_pair_by_fractions(eps, p), eps

    def test_labels_and_columns_must_match_the_grades(self):
        with pytest.raises(PresentationError, match="^1 labels and 0 columns for 2 generators and 0 relations$"):
            free([g(0, 0), g(1, 1)], labels=["a"])
        with pytest.raises(PresentationError, match="^1 labels and 0 columns for 1 generators and 1 relations$"):
            Presentation.from_integers(2, 2, 1, ["a"], [(0, 0)], [(1, 1)], [])

    def test_incompleteness_pair_with_negative_eps_is_rejected(self):
        for build in (incompleteness_pair, incompleteness_pair_by_fractions):
            with pytest.raises(PresentationError, match="lies below generator"):
                build(-1)
