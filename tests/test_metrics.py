import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from multipres import (
    Barcode,
    Grade,
    bottleneck,
    direct_sum,
    free,
    local_equivalence_experiment,
    matching_distance,
    merge_with_witness,
    path_length_d0,
    rank_lower_bound,
    sample_lines,
    shift,
    simplify_with_witness,
    staircase_interval,
    interpolate,
    verify_interleaving,
)
from multipres.functors import InterleavingWitness, shift_with_witness
from multipres.cli import main
from multipres.fibered import barcode, integer_lines, pair_bars, restrict
from multipres.grades import LineSpec
from multipres import fio, kernels, metrics, presentation
from multipres.metrics import (
    LineSample,
    _rank_violation,
    bottleneck_at_most,
)
from multipres.experiments import (
    incompleteness_pair,
    incompleteness_witness,
    jitter_module,
    random_staircase,
)
from multipres.presentation import (
    Generator,
    Presentation,
    PresentationError,
    Relation,
    ScaledModule,
    betti_and_grid,
    common_scale,
    interval_rank,
    make_column,
    minimize,
)

from oracles import barcode_of, bars_of, brute_bottleneck, sample_lines_by_fractions, slot_min_max_assignment
from oracles import betti_grades, lines_of, random_module, translate_joint, zero_module
from oracles import barcode_by_push, entangled, push, refine_near_by_fractions

INF = math.inf
GOLDEN = Path(__file__).resolve().parent / "golden"


def g(*coords):
    return Grade(coords)


def units_of(line, scale):
    """The IntegerLine of line for the grade scale: integer_lines of its one-line sample."""
    (group,) = LineSample.of((line,)).groups
    return next(integer_lines(group.direction, group.denominator, group.bases, scale))


def slot_distance(B1, B2):
    """The bottleneck distance by tests/oracles.py's slot matching."""
    xs, ys = bars_of(B1), bars_of(B2)

    def cost(x, y):
        if (x[1] == INF) != (y[1] == INF):
            return INF
        return abs(x[0] - y[0]) if x[1] == INF else max(abs(x[0] - y[0]), abs(x[1] - y[1]))

    def deletion(x):
        return INF if x[1] == INF else (x[1] - x[0]) / 2

    return slot_min_max_assignment([[cost(x, y) for y in ys] for x in xs],
                                   [deletion(x) for x in xs], [deletion(y) for y in ys])


def split(bars):
    """Bars (birth, death) in birth order, split as fibered.pair_bars returns
    them: equal finite bars one after the other are one entry with a count,
    and the infinite births are [birth, count] runs."""
    births, deaths, counts, infinite = [], [], [], []
    for b, d in bars:
        if d == INF:
            if infinite and infinite[-1][0] == b:
                infinite[-1][1] += 1
            else:
                infinite.append([b, 1])
        elif births and (births[-1], deaths[-1]) == (b, d):
            counts[-1] += 1
        else:
            births.append(b)
            deaths.append(d)
            counts.append(1)
    return births, deaths, counts, infinite


def random_barcode(rng, max_bars=4, allow_inf=True):
    bars = {}
    for _ in range(rng.randint(0, max_bars)):
        b = F(rng.randint(0, 12), 2)
        if allow_inf and rng.random() < 0.25:
            d = INF
        else:
            d = b + F(rng.randint(1, 10), 2)
        bars[(b, d)] = bars.get((b, d), 0) + 1
    return barcode_of(bars)


class TestBottleneck:
    def test_self_distance_zero(self):
        B = barcode_of({(0, 2): 1, (1, INF): 1})
        assert bottleneck(B, B) == 0

    def test_single_deletion(self):
        assert bottleneck(barcode_of({(0, 2): 1}), barcode_of({})) == 1

    def test_mixed_example(self):
        B1 = barcode_of({(0, 10): 1, (0, 1): 1})
        B2 = barcode_of({(1, 9): 1})
        assert bottleneck(B1, B2) == 1
        assert brute_bottleneck(bars_of(B1), bars_of(B2)) == 1

    def test_unmatched_infinite_bars(self):
        assert bottleneck(barcode_of({(0, INF): 1}), barcode_of({})) == INF
        assert bottleneck(barcode_of({(0, INF): 1}), barcode_of({(3, INF): 1})) == 3

    def test_against_brute_force(self):
        rng = random.Random(61)
        for _ in range(60):
            B1, B2 = random_barcode(rng), random_barcode(rng)
            assert bottleneck(B1, B2) == brute_bottleneck(bars_of(B1), bars_of(B2))

    def test_at_most_probe(self):
        rng = random.Random(66)
        for _ in range(60):
            B1, B2 = random_barcode(rng), random_barcode(rng)
            d = bottleneck(B1, B2)
            for c in (0, -1, F(1, 3), F(7, 2), INF):
                assert bottleneck_at_most(B1, B2, c) == (d <= c)
            if d not in (0, INF):
                for c in (d, d - F(1, 97), d + F(1, 97)):
                    assert bottleneck_at_most(B1, B2, c) == (d <= c)

    def test_metric_axioms_sampled(self):
        rng = random.Random(62)
        for _ in range(25):
            A, B, C = (random_barcode(rng, allow_inf=False) for _ in range(3))
            ab, ba = bottleneck(A, B), bottleneck(B, A)
            assert ab == ba
            assert bottleneck(A, C) <= ab + bottleneck(B, C)

    def test_against_slot_matching(self):
        # crowded bars on a small lattice: the greedy pass leaves work for long
        # augmenting paths, and some candidates are feasible only after them
        rng = random.Random(67)
        for _ in range(40):
            B1, B2 = (random_barcode(rng, max_bars=14, allow_inf=rng.random() < 0.3)
                      for _ in range(2))
            assert bottleneck(B1, B2) == slot_distance(B1, B2)

    def test_probe_against_slot_matching(self):
        # integer bars on a small lattice, so the doubled units are c * 2 and
        # every threshold k / 2, odd k and even k, sits on or between costs;
        # ties, infinite bars and unequal infinite counts included
        rng = random.Random(69)
        for trial in range(120):
            span = (3, 6, 12)[trial % 3]

            def bars():
                out = []
                for _ in range(rng.randint(0, 10)):
                    b = rng.randint(0, span)
                    out.append((b, INF if rng.random() < 0.2 else b + rng.randint(1, span)))
                return out

            xs = bars()
            # a near copy shares most bars with ties, a fresh list shares few
            ys = [(b + rng.randint(-1, 1), d) for b, d in xs if d == INF or d > b + 1] if trial % 2 else bars()
            B1, B2 = barcode_of(xs), barcode_of(ys)
            d = slot_distance(B1, B2)
            for k in range(-1, 2 * span + 3):
                assert bottleneck_at_most(B1, B2, F(k, 2)) == (d <= F(k, 2)), (xs, ys, k)
        A = Barcode(1, [(i, i + 10, 1) for i in range(500)])
        B = Barcode(2, [(2 * i + 1, 2 * i + 20, 1) for i in range(500)])
        # distance 1/2, two doubled units at scale 2
        assert [bottleneck_at_most(A, B, F(k, 4)) for k in range(-1, 5)] == [False] * 3 + [True] * 3

    def test_bars_in_birth_order_need_no_sort(self):
        # _Bars needs its bars sorted by birth only (the pairing hands it the
        # canonical form, sorted by birth and death); the order among equal
        # births must not change any probe or the distance.
        # Every other trial repeats bars: fully sorted, each repeated bar is
        # one entry with its count, and in birth order alone the shuffled
        # ties can split it into several entries
        rng = random.Random(70)
        for trial in range(120):
            def bars():
                out = [(b, INF if rng.random() < 0.2 else b + rng.randint(1, 6))
                       for b in (rng.randint(0, 4) for _ in range(rng.randint(0, 10)))]
                if trial % 2:
                    out = [bar for bar in out for _ in range(rng.randint(1, 3))]
                rng.shuffle(out)
                return sorted(out, key=lambda bar: bar[0])  # stable: equal births stay shuffled

            xs, ys = bars(), bars()
            birth_ordered = metrics._Bars(split(xs), split(ys))
            fully_sorted = metrics._Bars(split(sorted(xs)), split(sorted(ys)))
            for c in range(-1, 24):
                assert birth_ordered.at_most(c) == fully_sorted.at_most(c), (xs, ys, c)
                if not fully_sorted.at_most(c):
                    assert birth_ordered.least_above(c) == fully_sorted.least_above(c), (xs, ys, c)

    def test_split_bars_against_brute_force(self, monkeypatch):
        # _Bars on the split form, against exhaustive matching: zero-length
        # bars, which pair_bars drops but the probe must read as free to
        # delete, equal births in shuffled order, unequal infinite counts,
        # and repeated bars, which reach _Bars as counts above 1 on both
        # sides.  Some probe must move copies off a full counted bar along
        # an augmenting path, not only place them greedily.
        rng = random.Random(73)
        seen = set()
        find_path = metrics._augmenting_path

        def spy(root, held, room, side, other, h):
            path = find_path(root, held, room, side, other, h)
            if path and any(other[2][v] > 1 for v in path[1:-1:2]):
                seen.add("copies moved off a counted bar")
            return path

        monkeypatch.setattr(metrics, "_augmenting_path", spy)

        def bars(repeated):
            out = []
            for _ in range(rng.randint(1, 2) if repeated else rng.randint(0, 4)):
                b = rng.randint(0, 3)
                bar = (b, INF if rng.random() < 0.25 else b + rng.randint(0, 4))
                out += [bar] * (rng.randint(1, 3) if repeated else 1)
            rng.shuffle(out)
            return sorted(out, key=lambda bar: bar[0])

        pairs = [(bars(trial >= 150), bars(trial >= 150)) for trial in range(300)]
        # at c = 2 the greedy pass gives both copies of [0, 4) to the two
        # [0, 3), and [1, 5) is covered only once a copy moves on to [1, 3)
        pairs.append(([(0, 3), (0, 3), (1, 5)], [(0, 4), (0, 4), (1, 3)]))
        for xs, ys in pairs:
            seen |= {"zero-length" for b, d in xs + ys if b == d}
            seen |= {"equal births" for bars_ in (xs, ys) for x, y in zip(bars_, bars_[1:]) if x[0] == y[0]}
            if sum(m for _, m in split(xs)[3]) != sum(m for _, m in split(ys)[3]):
                seen.add("unequal infinite counts")
            if min(max(split(bars_)[2], default=0) for bars_ in (xs, ys)) > 1:
                seen.add("counts above 1 on both sides")
            bars_ = metrics._Bars(split(xs), split(ys))
            d = 2 * brute_bottleneck(xs, ys)  # doubled units
            for c in range(-1, 16):
                assert bars_.at_most(c) == (d <= c), (xs, ys, c)
                if d > c:
                    assert bars_.least_above(c) == d, (xs, ys, c)
        assert seen == {"zero-length", "equal births", "unequal infinite counts",
                        "counts above 1 on both sides", "copies moved off a counted bar"}

    def test_equal_bars_are_not_cancelled(self):
        # matching [0, 2) with its copy leaves [-1, 3) to delete at 2; the
        # optimum moves [0, 2) onto [-1, 3) and deletes the copy, both at 1
        assert bottleneck(Barcode(1, [(0, 2, 1)]), Barcode(1, [(0, 2, 1), (-1, 3, 1)])) == 1

    def test_five_hundred_shifted_bars(self):
        # a recursive augmenting-path search overflowed the stack on this pair
        A = Barcode(1, [(i, i + 10, 1) for i in range(500)])
        B = Barcode(2, [(2 * i + 1, 2 * i + 20, 1) for i in range(500)])
        assert bottleneck(A, B) == F(1, 2)

    def test_equal_inputs_make_no_matching_calls(self, monkeypatch):
        # equal split lists are feasible at every c >= 0: the entangled golden
        # pair (distance 0) and 22 000 shuffled distinct bars at a 30-digit
        # scale against themselves run no cover_within probe at all
        calls, lines = [], []
        original_cover, original_restrict = metrics.cover_within, metrics.restrict

        def counting_cover(*args):
            calls.append(1)
            return original_cover(*args)

        def counting_restrict(*args):
            lines.append(1)
            return original_restrict(*args)

        monkeypatch.setattr(metrics, "cover_within", counting_cover)
        monkeypatch.setattr(metrics, "restrict", counting_restrict)
        A, B = (fio.parse_fpres((GOLDEN / f"entangled_{side}.fpres").read_text()) for side in "AB")
        assert metrics.identity_bound(A, B) is None
        assert matching_distance(A, B).value == 0 and lines and calls == []
        rng = random.Random(102)
        scale = 999_983 * 1_000_003 * 999_999_937 * 1_000_000_007
        bars = set()
        while len(bars) < 22_000:
            b = rng.randint(-10**9, 10**9) * (scale // rng.choice((999_983, 1_000_003)))
            d = INF if rng.random() < 0.1 else b + rng.randint(1, 10**12) * (scale // rng.choice((999_999_937, 1_000_000_007)))
            bars.add((b, d))
        bars = list(bars)
        rng.shuffle(bars)
        C = Barcode(scale, [(b, d, 1) for b, d in bars])
        assert C.scale == scale and len(C.bars) == 22_000
        assert bottleneck(C, C) == 0 and calls == []
        # one bar moved by one unit is another multiset, and the probes run again
        C = Barcode(scale, [(b, d, 1) for b, d in bars[:200]])
        D = Barcode(scale, [(b, d, 1) for b, d in bars[1:200]] + [(bars[0][0] - 1, bars[0][1], 1)])
        assert bottleneck(C, D) == F(1, scale) and calls


class TestMatchingDistance:
    def test_self_distance(self):
        P = staircase_interval([g(0, 0)], [g(2, 0), g(0, 3)])
        assert matching_distance(P, P, slopes=6).value == 0

    def test_incompleteness_pair_is_invisible(self):
        N, O = incompleteness_pair()
        assert matching_distance(N, O, slopes=8).value == 0

    def test_translate_attained_exactly(self):
        rng = random.Random(63)
        P = random_staircase(rng)
        report = matching_distance(P, shift(P, F(1, 2)), slopes=6)
        assert report.value == F(1, 2)
        assert report.argmax_line is not None

    def test_monotone_in_sample(self):
        rng = random.Random(64)
        P, Q = random_module(rng), random_module(rng)
        small = sample_lines(P, Q, slopes=4)
        big = LineSample.of(lines_of(small) + lines_of(sample_lines(P, Q, slopes=10)))
        assert matching_distance(P, Q, sample=small).value <= \
            matching_distance(P, Q, sample=big).value

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            LineSample(())
        with pytest.raises(ValueError):
            LineSample.of(())

    def test_gain_of_one_unit_is_not_pruned(self):
        # one bar [0, 2) on the slope-1 line through the origin and [0, 1) on
        # the one through (1, 0): values 1 and 1/2, one doubled unit apart
        P = staircase_interval([g(0, 0)], [g(2, 0), g(0, 3)])
        Z = zero_module(2, 2)
        near, far = LineSpec([1, 1], g(1, 0)), LineSpec([1, 1], g(0, 0))
        assert matching_distance(P, Z, sample=LineSample.of((near,))).value == F(1, 2)
        report = matching_distance(P, Z, sample=LineSample.of((near, far)))
        assert (report.value, report.argmax_line) == (1, far)

    def test_no_line_is_restricted_after_an_infinite_value(self, monkeypatch):
        # one free generator against two: every line gives INF, so the first
        # line settles the distance and no later line, sampled or refined, is
        # restricted
        P, Q = free([g(0, 0)]), free([g(0, 0), g(1, 1)])
        sample = sample_lines(P, Q, slopes=8)
        assert len(sample) > 1
        restricted = []
        original = metrics.restrict

        def counting(view, line):
            restricted.append(line)
            return original(view, line)

        monkeypatch.setattr(metrics, "restrict", counting)
        report = matching_distance(P, Q, sample=sample, adaptive_rounds=2)
        assert (report.value, report.argmax_line) == (INF, lines_of(sample)[0])
        assert len(restricted) == 2

    def test_adaptive_never_decreases(self):
        rng = random.Random(65)
        P, Q = random_module(rng), random_module(rng)
        base = matching_distance(P, Q, slopes=6)
        refined = matching_distance(P, Q, slopes=6, adaptive_rounds=2)
        assert refined.value >= base.value


def weighted_bottleneck(P, Q, line):
    """w(L) times the bottleneck of the two restricted barcodes, by the line loop: the one-line sample's value."""
    return matching_distance(P, Q, LineSample.of((line,))).value


def reference_distance(P, Q, lines, adaptive_rounds=0):
    """The sampled matching distance composed from the Fraction restriction, bottleneck
    and the LineSpec refinement (tests/oracles.py)."""

    def value(line):
        return min(line.direction) * bottleneck(barcode_by_push(P, line), barcode_by_push(Q, line))

    best, arg = F(0), None
    for line in lines:
        v = value(line)
        if v > best:
            best, arg = v, line
    if adaptive_rounds and arg is not None:
        pts = set()
        for M in (P, Q):
            data = betti_and_grid(M)
            pts |= set(data.xi0) | set(data.xi1)
        pts = sorted(pts, key=lambda x: x.lex_key())
        for _ in range(adaptive_rounds):
            improved = False
            for line in refine_near_by_fractions(arg, pts):
                v = value(line)
                if v > best:
                    best, arg, improved = v, line, True
            if not improved:
                break
    return best, arg


class TestIntegerLineLoop:
    """The integer line loop reproduces the Fraction composition exactly."""

    @staticmethod
    def pairs():
        rng = random.Random(72)
        for p in (2, 3):
            for k in (1, 2, 3, 4):
                P = random_staircase(rng, p=p)
                for _ in range(k - 1):
                    P = direct_sum(P, random_staircase(rng, p=p))
                yield P, jitter_module(P, rng, F(1, 3))
                yield entangled(P, rng), jitter_module(P, rng, F(2, 7))
        # one immortal summand more on one side: infinite bars cannot match
        S = random_staircase(rng)
        yield direct_sum(S, random_staircase(rng, immortal=True)), S
        # two entangled forms of one module: distance 0, so every line's probe
        # at c = 0 holds and both sides pair equal bar multisets
        for p in (2, 3):
            S = direct_sum(random_staircase(rng, p=p), random_staircase(rng, p=p))
            yield entangled(S, rng), entangled(S, rng)

    @staticmethod
    def off_grid(seed):
        rng = random.Random(seed)
        out = []
        for _ in range(4):
            point = g(*(F(rng.randint(-40, 200), rng.randint(1, 97)) for _ in range(2)))
            out.append(LineSpec.through(point, [F(rng.randint(1, 89), rng.randint(1, 89)), 1]))
        return out

    @classmethod
    def lines(cls, P, Q, seed):
        """The Fraction-built sample, then four lines off its grid."""
        return list(sample_lines_by_fractions(P, Q, slopes=3, seed=seed, extra=6)) + cls.off_grid(seed)

    @classmethod
    def sample(cls, P, Q, seed):
        """The integer sample of the same lines, in the same order."""
        groups = sample_lines(P, Q, slopes=3, seed=seed, extra=6).groups
        return LineSample(groups + LineSample.of(cls.off_grid(seed)).groups)

    def test_bars_match_restricted_barcode(self):
        for n, (P, Q) in enumerate(self.pairs()):
            scale = common_scale(c for M in (P, Q) for x in betti_grades(M) for c in x.coords)
            views = [ScaledModule(M, scale) for M in (P, Q)]
            for line in self.lines(P, Q, n):
                units = units_of(line, scale)
                for M, view in zip((P, Q), views):
                    births, deaths, counts, infinite = barcode(restrict(view, units))
                    got = Barcode(units.unit, [(b, INF, m) for b, m in infinite] + list(zip(births, deaths, counts)))
                    assert got == barcode_by_push(M, line), (n, str(line))

    @staticmethod
    def assert_refused(P, Q):
        line = LineSpec([1, 1], g(0, 0))
        for pair in ((P, Q), (Q, P)):
            for compare in (weighted_bottleneck, lambda M, N, _: matching_distance(M, N)):
                with pytest.raises(PresentationError, match="needs matching dimension and field"):
                    compare(*pair, line)

    def test_dimension_mismatch_rejected(self):
        P = staircase_interval([g(0, 0)], [g(2, 0), g(0, 3)])
        R = free([g(0, 0, 0)])
        self.assert_refused(P, R)
        with pytest.raises(ValueError):
            restrict(ScaledModule(R, 1), units_of(LineSpec([1, 1], g(0, 0)), 1))

    def test_field_mismatch_rejected(self):
        P = staircase_interval([g(0, 0)], [g(2, 0), g(0, 3)])
        self.assert_refused(P, Presentation(2, 3, P.gens, P.rels))  # the same staircase over F_3

    def test_weighted_bottleneck_matches_composition(self):
        for n, (P, Q) in enumerate(self.pairs()):
            for line in self.lines(P, Q, n)[::5]:
                assert weighted_bottleneck(P, Q, line) == min(line.direction) * bottleneck(
                    barcode_by_push(P, line), barcode_by_push(Q, line))

    @pytest.mark.parametrize("rounds", [0, 2])
    def test_distance_and_argmax_match_reference(self, rounds):
        values = set()
        for n, (P, Q) in enumerate(self.pairs()):
            lines = self.lines(P, Q, n)
            report = matching_distance(P, Q, sample=self.sample(P, Q, n), adaptive_rounds=rounds)
            assert (report.value, report.argmax_line) == reference_distance(P, Q, lines, rounds), n
            values.add(report.value)
            # re-check only the one-summand pairs and the unmatched pair; not the distance-0 pairs
            if not rounds or n % 8 >= 2 or n > 16:
                continue
            # the rounds refine around the Betti points of the modules compared;
            # the reference loops over the Fraction-built sample
            sample = sample_lines(P, Q, slopes=3, seed=n, extra=6)
            report = matching_distance(P, Q, sample=sample, adaptive_rounds=rounds)
            lines = sample_lines_by_fractions(P, Q, slopes=3, seed=n, extra=6)
            assert (report.value, report.argmax_line) == reference_distance(P, Q, lines, rounds), n
        assert {0, INF} < values  # and some positive finite distance

    def test_lines_with_equal_fibers_keep_the_reference(self, monkeypatch):
        # a staircase sum against an entangled copy of it with one summand
        # moved along the first axis: on lines where the second coordinate
        # sets that summand's pushes the two fibers agree, and _Bars settles
        # them without a probe; the other lines run the matching.  Value and
        # argmax are the Fraction composition's
        seen = Counter()

        class Recording(metrics._Bars):
            def __init__(self, xs, ys):
                super().__init__(xs, ys)
                seen[self.equal] += 1

        monkeypatch.setattr(metrics, "_Bars", Recording)
        rng = random.Random(76)
        for n, p in enumerate((2, 3, 2)):
            S = [random_staircase(rng, p=p) for _ in range(3)]
            P = direct_sum(*S)
            Q = entangled(direct_sum(S[0], S[1], shift(S[2], [F(1, 2), 0])), rng)
            report = matching_distance(P, Q, sample=self.sample(P, Q, n), adaptive_rounds=2)
            assert (report.value, report.argmax_line) == reference_distance(P, Q, self.lines(P, Q, n), 2), n
            assert report.value > 0
        assert seen[True] and seen[False]

    def test_refinement_keeps_the_lines_and_groups(self):
        # the integer refinement holds the LineSpec refinement's lines, in its
        # groups and order, repeats included: anchors on a small lattice put
        # several on one refined line
        rng = random.Random(73)
        repeats = 0
        for _ in range(60):
            scale = rng.randint(1, 12)
            anchors = sorted({(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.randint(1, 12))})
            m = F(rng.randint(1, 40), rng.randint(1, 40))
            group = metrics.LineGroup(metrics._direction_for_slope(m), rng.randint(1, 50), ())
            k = (rng.randint(-200, 200),)
            refined = LineSample(tuple(metrics._refine_near(group, k, anchors, scale)))
            pts = [g(F(x, scale), F(y, scale)) for x, y in anchors]
            expected = LineSample.of(refine_near_by_fractions(group.line(k), pts))
            assert [lines_of(LineSample((grp,))) for grp in refined.groups] == \
                [lines_of(LineSample((grp,))) for grp in expected.groups]
            repeats += len(refined) - len(set(lines_of(refined)))
        assert repeats
        assert metrics._refine_near(metrics.LineGroup((1, 1, 1), 1, ((0, 0),)), (0, 0), [], 1) == []

    def test_rounds_stop_without_refinement(self):
        # lines in three parameters have no refinement: the rounds change nothing
        P, Q = three_parameter_pair()
        report = matching_distance(P, Q, adaptive_rounds=2)
        assert report.argmax_line is not None
        assert report == matching_distance(P, Q)


def three_parameter_pair():
    def col(*entries):
        return make_column(list(entries), 2)

    P = Presentation(3, 2, (Generator("a", g(0, 0, 0)), Generator("b", g(1, F(1, 2), 0))),
                     (Relation(g(2, 0, 1), col((0, 1))), Relation(g(1, 3, 2), col((0, 1), (1, 1)))))
    Q = Presentation(3, 2, (Generator("a", g(0, F(1, 3), 0)), Generator("b", g(1, F(1, 2), F(1, 5)))),
                     (Relation(g(2, 1, 1), col((0, 1))), Relation(g(3, 3, 2), col((1, 1)))))
    return P, Q


def random_cube_module(rng, p):
    """A 3-parameter module: one to three generators on a small lattice, and
    up to three relations above the join of the generators each one names."""
    k = rng.randint(1, 3)
    gens = [Generator(f"x{i}", g(*(rng.randint(0, 6) for _ in range(3)))) for i in range(k)]
    rels = []
    for _ in range(rng.randint(0, 3)):
        named = sorted(rng.sample(range(k), rng.randint(1, k)))
        top = gens[named[0]].grade
        for i in named[1:]:
            top = top.join(gens[i].grade)
        rels.append(Relation(top.plus([rng.randint(0, 6) for _ in range(3)]),
                             make_column([(i, rng.randint(1, p - 1)) for i in named], p)))
    return Presentation(3, p, tuple(gens), tuple(rels))


class TestIdentityBound:
    """Pairs that share their matrix stop at eps = identity_bound with the full walk's result."""

    @staticmethod
    def pairs():
        rng = random.Random(84)
        for p in (2, 3, 5):
            for _ in range(25):
                P = random_module(rng, p=p)
                yield P, jitter_module(P, rng, F(rng.randint(1, 4), 3))
                yield P, shift(P, [F(rng.randint(-4, 4), 4), F(rng.randint(-4, 4), 3)])
                C = random_cube_module(rng, p)
                yield C, jitter_module(C, rng, F(1, 2))
                yield C, shift(C, [F(rng.randint(-4, 4), 4), 0, F(rng.randint(-4, 4), 5)])

    def test_early_exit_matches_the_full_walk(self, monkeypatch):
        reached = 0
        for i, (P, Q) in enumerate(self.pairs()):
            bound = metrics.identity_bound(P, Q)
            assert bound is not None and bound == metrics.identity_bound(Q, P)
            kw = {"sample": sample_lines(P, Q, slopes=2, seed=i, extra=4) if i % 2 else sample_lines(P, Q, slopes=2),
                  "adaptive_rounds": 2 if i % 3 == 0 else 0}
            report = matching_distance(P, Q, **kw)
            # without the bound, every _best_line call walks every line (upper=INF)
            with monkeypatch.context() as m:
                m.setattr(metrics, "identity_bound", lambda P, Q: None)
                full = matching_distance(P, Q, **kw)
            assert report == full, i
            assert full.value <= bound, i
            reached += full.value == bound
        assert i == 299 and reached > 100

    def test_none_without_a_shared_matrix(self):
        rng = random.Random(85)
        for p, other in ((2, 3), (3, 5), (5, 7)):
            P = random_module(rng, p=p, summands=3)
            Q = jitter_module(P, rng, F(1, 3))
            assert metrics.identity_bound(P, Q) is not None

            def variant(n=Q.n, p=Q.p, labels=Q.labels, gens=Q.scaled_gens, rels=Q.scaled_rels, cols=Q.cols):
                return Presentation.from_integers(n, p, Q.scale, labels, gens, rels, cols)

            k = rng.randrange(len(Q.cols))
            for R in (variant(cols=Q.cols[:k] + ((),) + Q.cols[k + 1:]),
                      variant(labels=Q.labels + ("y",), gens=Q.scaled_gens + Q.scaled_gens[:1]),
                      variant(p=other),
                      variant(n=3, gens=[a + (0,) for a in Q.scaled_gens], rels=[a + (0,) for a in Q.scaled_rels])):
                assert metrics.identity_bound(P, R) is None and metrics.identity_bound(R, P) is None


class TestSampleOracle:
    """The integer sample holds the Fraction-built sample's lines, in its order."""

    @staticmethod
    def pairs():
        rng = random.Random(81)
        for p in (2, 3):
            for k in (1, 2, 3, 4):
                P = random_staircase(rng, p=p)
                for _ in range(k - 1):
                    P = direct_sum(P, random_staircase(rng, p=p))
                yield P, jitter_module(P, rng, F(rng.randint(1, 96), 97))
                yield P, jitter_module(P, rng, F(1, rng.choice([2, 3, 7, 97])))
        yield zero_module(2, 2), zero_module(2, 2)
        yield incompleteness_pair()
        yield three_parameter_pair()

    @staticmethod
    def check(P, Q, **kw):
        sample = sample_lines(P, Q, **kw)
        assert lines_of(sample) == sample_lines_by_fractions(P, Q, **kw)
        assert len(sample) == len(lines_of(sample))

    def test_slope_counts(self):
        for n, (P, Q) in enumerate(self.pairs()):
            for slopes in ((0, 1, 2, 3, 16, 64) if n % 4 == 0 else (2, 3)):
                self.check(P, Q, slopes=slopes)

    def test_seeded_extras(self):
        for n, (P, Q) in enumerate(self.pairs()):
            self.check(P, Q, slopes=2, seed=n, extra=40)

    def test_of_keeps_the_order_and_repeats(self):
        P, Q = next(self.pairs())
        lines = sample_lines_by_fractions(P, Q, slopes=3, seed=1, extra=3)
        mixed = lines[::2] + lines[1::2] + lines[:3]
        assert lines_of(LineSample.of(mixed)) == mixed
        assert len(LineSample.of(mixed)) == len(mixed)


class TestRestrictCache:
    """A ScaledModule multiplies its grades once per direction and gives the same fibers."""

    @staticmethod
    def fresh(view, units):
        """The Fiber of units computed from scratch from the scaled grades."""
        def params(grades):
            return [max(x * m - o for x, m, o in zip(a, units.slopes, units.offsets)) for a in grades]

        return params(view.gens), params([a for a, _ in view.rels]), [c for _, c in view.rels], view.p

    def test_directions_a_b_a(self):
        rng = random.Random(82)
        P = direct_sum(random_staircase(rng, p=3), random_staircase(rng, p=3))
        cases = [(P, [LineSpec([F(1, 3), 1], g(F(5, 2), 0)), LineSpec([1, F(2, 7)], g(-4, 0)),
                      LineSpec([F(1, 3), 1], g(F(-1, 5), 0))]),
                 (three_parameter_pair()[1],
                  [LineSpec([1, F(1, 2), F(3, 4)], g(F(1, 3), -1, 0)), LineSpec([1, 1, 1], g(0, 0, 0)),
                   LineSpec([1, F(1, 2), F(3, 4)], g(2, F(-2, 5), 0))])]
        for M, lines in cases:
            scale = common_scale(c for x in betti_grades(M) for c in x.coords)
            view = ScaledModule(M, scale)
            for line in lines:
                units = units_of(line, scale)
                fiber = restrict(view, units)
                # the four restriction fields, and the view's own template memo
                assert fiber[:4] == self.fresh(ScaledModule(M, scale), units)
                assert fiber.templates is view.templates
                assert fiber.gen_params == [push(line, x.grade) * units.unit for x in M.gens]
            # the last direction's products are reused, and a wrong dimension is still refused
            assert view.along(units.slopes)[0] is view.along(units.slopes)[0]
            with pytest.raises(ValueError):
                restrict(view, units_of(LineSpec([1] * (M.n + 1), g(*[0] * (M.n + 1))), scale))

    def test_line_loop_builds_no_line_spec_per_line(self, monkeypatch):
        # a non-minimal presentation of a jittered copy shares no matrix with
        # P, so every group is walked; the jittered copy itself shares P's
        # matrix, and the walk stops at its identity bound before the last group
        rng = random.Random(83)
        P = direct_sum(random_staircase(rng), random_staircase(rng))
        J = jitter_module(P, rng, F(1, 3))
        Q = entangled(J, rng)
        assert metrics.identity_bound(P, Q) is None
        sample, shared = sample_lines(P, Q, slopes=16), sample_lines(P, J, slopes=16)
        assert len(sample) > 50
        specs, units = [], []
        original_init, original_lines = LineSpec.__init__, metrics.integer_lines

        def counting_init(self, *args):
            specs.append(1)
            original_init(self, *args)

        def counting_lines(*args):
            units.append(1)
            return original_lines(*args)

        monkeypatch.setattr(LineSpec, "__init__", counting_init)
        monkeypatch.setattr(metrics, "integer_lines", counting_lines)
        report = matching_distance(P, Q)
        assert report.value > 0 and report.argmax_line is not None
        assert (len(specs), len(units)) == (1, len(sample.groups))
        specs.clear()
        units.clear()
        report = matching_distance(P, J)
        assert report.value == metrics.identity_bound(P, J) and report.argmax_line is not None
        assert len(specs) == 1 and len(units) < len(shared.groups)


class TestBarcodeTemplates:
    """pair_bars reduces once per (generator order, relation order) of a view,
    and the memo that holds the pairings lives one matching_distance call."""

    @staticmethod
    def module(rng, p):
        return entangled(direct_sum(random_staircase(rng, p=p), random_staircase(rng, p=p)), rng)

    @staticmethod
    def orders(fiber):
        return (tuple(sorted(range(len(fiber.gen_params)), key=fiber.gen_params.__getitem__)),
                tuple(sorted(range(len(fiber.rel_params)), key=fiber.rel_params.__getitem__)))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_templated_bars_equal_a_fresh_pairing(self, p):
        # lines of a few slopes on a coarse grid of bases, lines through every
        # generator and relation grade (ties), and all of them again (repeats)
        rng = random.Random(91 + p)
        M = self.module(rng, p)
        directions = [[1, 1], [1, F(1, 2)], [F(1, 3), 1], [1, F(2, 3)]]
        lines = [LineSpec(d, g(F(rng.randint(-24, 24), 2), 0)) for d in directions for _ in range(6)]
        lines += [LineSpec.through(x, d) for d in directions for x in betti_grades(M)]
        lines += rng.sample(lines, len(lines))
        view = ScaledModule(M, M.scale)
        ties = 0
        for line in lines:
            fiber = restrict(view, units_of(line, M.scale))
            ties += len(set(fiber.gen_params + fiber.rel_params)) < len(fiber.gen_params + fiber.rel_params)
            assert pair_bars(*fiber) == pair_bars(*fiber[:4], {}), line
        # distinct lines shared templates, and some lines had tied parameters
        assert 0 < len(view.templates) < len(set(lines)) and ties

    @pytest.mark.parametrize("p", [2, 3])
    def test_one_reduction_per_distinct_orders_in_a_call(self, monkeypatch, p):
        rng = random.Random(95 + p)
        P, Q = self.module(rng, p), self.module(rng, p)
        assert metrics.identity_bound(P, Q) is None
        keys, reductions = [], []
        original_restrict, original_reduce = metrics.restrict, kernels.reduce_pivots

        def recording(view, units):
            fiber = original_restrict(view, units)
            keys.append((id(view), self.orders(fiber)))
            return fiber

        def counting(*args):
            reductions.append(1)
            return original_reduce(*args)

        monkeypatch.setattr(metrics, "restrict", recording)
        monkeypatch.setattr(kernels, "reduce_pivots", counting)
        matching_distance(P, Q, slopes=8, adaptive_rounds=2)
        assert len(reductions) == len(set(keys)) < len(keys)

    def test_no_memo_outlives_a_cli_call(self, monkeypatch, capsys):
        argv = ["match-dist", str(GOLDEN / "entangled_A.fpres"), str(GOLDEN / "entangled_B.fpres"), "--lines", "4"]
        reductions, original = [], kernels.reduce_pivots

        def counting(*args):
            reductions.append(1)
            return original(*args)

        monkeypatch.setattr(kernels, "reduce_pivots", counting)
        counts, outs = [], []
        for _ in range(2):
            reductions.clear()
            assert main(argv) == 0
            counts.append(len(reductions))
            outs.append(capsys.readouterr().out)
        assert counts[0] == counts[1] > 0 and outs[0] == outs[1]


class TestMinimalFormsOnce:
    """Each module is minimized once, and the line loop restricts that minimal form."""

    @staticmethod
    def module(seed):
        rng = random.Random(seed)
        P = random_staircase(rng)
        for _ in range(3):
            P = direct_sum(P, random_staircase(rng))
        return entangled(P, rng)

    def test_line_loop_restricts_minimal_forms(self, monkeypatch):
        P, Q = self.module(75), self.module(76)
        wrapped, views = [], []
        original = metrics.ScaledModule

        def recording(M, scale):
            wrapped.append(M)
            views.append(original(M, scale))
            return views[-1]

        monkeypatch.setattr(metrics, "ScaledModule", recording)
        assert matching_distance(P, Q, slopes=4, adaptive_rounds=2).argmax_line is not None
        assert [id(M) for M in wrapped] == [id(P.minimal), id(Q.minimal)]
        for M, view in zip((P, Q), views):
            least = minimize(M)
            assert len(view.gens) == len(least.gens) < len(M.gens)
            assert len(view.rels) == len(least.rels)

    def test_local_equivalence_minimizes_each_module_once(self, monkeypatch):
        M = self.module(77)
        N, w = shift_with_witness(M, F(1, 2))
        calls = []
        original = presentation.minimize

        def counting(P):
            calls.append(id(P))
            return original(P)

        monkeypatch.setattr(presentation, "minimize", counting)
        local_equivalence_experiment(M, N, F(1, 35), certified_eps=F(1, 2), witness=w, slopes=4)
        assert sorted(calls) == sorted([id(M), id(N)])


class TestVerifyInterleaving:
    def test_identity_accepted(self):
        P = staircase_interval([g(0, 0)], [g(2, 0), g(0, 3)])
        w = InterleavingWitness(F(0), {0: ((0, 1),)}, {0: ((0, 1),)})
        assert verify_interleaving(P, P, w).accepted

    def test_translate_identity_maps(self):
        rng = random.Random(66)
        P = random_module(rng)
        Q, w = shift_with_witness(P, F(1, 2))
        assert verify_interleaving(P, Q, w).accepted

    def test_incompleteness_witness_accepted(self):
        N, O = incompleteness_pair()
        assert verify_interleaving(N, O, incompleteness_witness()).accepted

    def test_partial_identity_rejected_with_reason(self):
        N, O = incompleteness_pair()
        w = InterleavingWitness(
            F(1, 2),
            f={0: ((0, 1),), 1: ((1, 1),)},
            g={0: ((0, 1),), 1: ((1, 1),)},
        )
        report = verify_interleaving(N, O, w)
        assert not report.accepted
        # first failure: the merge relation of O has no counterpart in N
        assert "relation 0" in report.reason

    def test_produced_witnesses_accepted(self):
        rng = random.Random(67)
        for _ in range(5):
            P = random_module(rng)
            grid = betti_and_grid(P).grid
            Q1, w1 = merge_with_witness(P, grid, F(1, 4))
            assert verify_interleaving(P, Q1, w1).accepted
            Q2, w2 = simplify_with_witness(P, F(1, 2))
            assert verify_interleaving(P, Q2, w2).accepted

    def test_grade_violation_rejected(self):
        P = free([g(0, 0)])
        Q = free([g(5, 5)])
        w = InterleavingWitness(F(1), {0: ((0, 1),)}, {})
        report = verify_interleaving(P, Q, w)
        assert not report.accepted and "grades" in report.reason

    def test_third_of_a_unit(self):
        P = direct_sum(staircase_interval([g(0, 9), g(6, 3), g(9, 0)], [g(24, 24)], p=3),
                       staircase_interval([g(9, 6)], [g(24, 21)], p=3))
        ident = {i: ((i, 1),) for i in range(len(P.gens))}
        below = F(1, 3) - F(1, 97)
        Q = shift(P, F(1, 3))
        S, _ = simplify_with_witness(P, F(1, 3))
        cases = [
            (P, Q, "f entry b0 -> b0 violates grades"),
            (Q, P, "g entry b0 -> b0 violates grades"),
            (P, S, "g sends relation 2 (grade 71/3 62/3) outside the relation submodule"),
            (S, P, "f sends relation 2 (grade 71/3 62/3) outside the relation submodule"),
        ]
        for A, B, reason in cases:
            assert verify_interleaving(A, B, InterleavingWitness(F(1, 3), ident, ident)).accepted
            report = verify_interleaving(A, B, InterleavingWitness(below, ident, ident))
            assert report.render() == f"reject at epsilon 94/291: {reason}"
        twice = {i: ((i, 2),) for i in range(len(P.gens))}
        report = verify_interleaving(P, Q, InterleavingWitness(F(1, 3), ident, twice))
        assert report.reason == "coherence g.f fails at generator b0"

    def test_stability_per_line(self):
        rng = random.Random(68)
        for _ in range(5):
            P = random_module(rng)
            Q, w = simplify_with_witness(P, F(3, 4))
            sample = sample_lines(P, Q, slopes=6)
            for line in lines_of(sample):
                assert weighted_bottleneck(P, Q, line) <= w.epsilon


class TestRankLowerBound:
    def test_self_is_zero(self):
        P = staircase_interval([g(0, 0)], [g(2, 0), g(0, 3)])
        assert rank_lower_bound(P, P).value == 0

    def test_free_vs_zero_infinite(self):
        assert rank_lower_bound(free([g(0, 0)]), zero_module(2, 2)).value == INF

    def test_probe_of_wrong_dimension_rejected(self):
        P = staircase_interval([g(0, 0)], [g(2, 0), g(0, 3)])
        for probe in (g(1, 1, 1), g(1)):
            with pytest.raises(PresentationError, match=rf"probe \({probe}\)"):
                rank_lower_bound(P, P, [probe])

    def test_square_vs_zero(self):
        P = staircase_interval([g(0, 0)], [g(2, 0), g(0, 2)])
        assert rank_lower_bound(P, zero_module(2, 2)).value == 1

    def test_translates_certified(self):
        rng = random.Random(69)
        for _ in range(5):
            P = random_staircase(rng)
            delta = F(rng.randint(1, 4), 8)
            assert rank_lower_bound(P, shift(P, delta)).value == delta

    def test_sound_against_witnessed_upper_bound(self):
        rng = random.Random(70)
        for _ in range(5):
            P = random_module(rng)
            Q, w = simplify_with_witness(P, F(1, 2))
            assert verify_interleaving(P, Q, w).accepted
            assert rank_lower_bound(P, Q).value <= w.epsilon

    def test_sound_on_jitter_pairs(self):
        rng = random.Random(72)
        for i in range(30):
            p = (2, 3)[i % 2]
            parts = [random_staircase(rng, p=p, scale=rng.choice((1, 2, 3)))
                     for _ in range(rng.randint(2, 4))]
            P = parts[0]
            for S in parts[1:]:
                P = direct_sum(P, S)
            amount = F(rng.randint(1, 8), 4)
            Q = jitter_module(P, rng, amount)
            assert rank_lower_bound(P, Q).value <= amount
            assert rank_lower_bound(Q, P).value <= amount

    @pytest.mark.parametrize("eps", [1, F(1, 2)])
    @pytest.mark.parametrize("p", [2, 3])
    def test_incompleteness_pair_certified(self, eps, p):
        N, O = incompleteness_pair(eps, p)
        w = incompleteness_witness(eps)
        assert verify_interleaving(N, O, w).accepted
        assert rank_lower_bound(N, O).value == rank_lower_bound(O, N).value == w.epsilon == eps

    def test_empty_or_disconnected_erosion_never_violates(self):
        births, deaths = [(0, 4), (4, 0)], [(0, 10), (6, 6), (10, 0)]
        M = staircase_interval([g(*b) for b in births], [g(*d) for d in deaths])
        assert interval_rank(M, [g(*b) for b in births], [g(*d) for d in deaths]) == 1
        views = [ScaledModule(M, 1), ScaledModule(zero_module(2, 2), 1)]
        probes = [(0, births, deaths, 1)]
        # rank 1 against 0 while the erosion is connected (e < 1), then the
        # erosion is disconnected (1 <= e < 3) and empty (e >= 3)
        assert _rank_violation(views, [], probes, 0)
        for e in (1, 2, 3, 4):
            assert not _rank_violation(views, [], probes, e)

    def test_candidates_stream_in_order_once_each(self):
        rng = random.Random(74)
        cases = [[], [[]], [[5]], [[3, 3, 3]], [[-4, 7], [0]]]
        cases += [[[rng.randint(-30, 30) for _ in range(rng.randint(0, 12))] for _ in range(rng.randint(1, 3))]
                  for _ in range(200)]
        for axes in cases:
            want = {0}
            for axis in axes:
                for v in axis:
                    for w in axis:
                        if w > v:
                            want |= {w - v, (w - v) // 2}
            assert list(metrics._differences(axes)) == sorted(want)[1:], axes

    def test_memory_linear_on_general_position_pairs(self):
        # a free module of 200 generators with 30-digit coordinates and its
        # translate by one unit: the bound, that unit, takes five checks, and
        # the candidates must not all be held at once (a set of every pairwise
        # difference peaked above 20 MB)
        rng = random.Random(75)
        gens = [(rng.randrange(10 ** 29, 10 ** 30), rng.randrange(10 ** 29, 10 ** 30)) for _ in range(200)]
        labels = [f"x{i}" for i in range(200)]
        P = Presentation.from_integers(2, 2, 9973, labels, gens, [], [])
        Q = Presentation.from_integers(2, 2, 9973, labels, [(x + 1, y + 1) for x, y in gens], [], [])
        tracemalloc.start()
        try:
            assert rank_lower_bound(P, Q).value == F(1, 9973)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


class TestPathLength:
    def test_constant_path(self):
        P = staircase_interval([g(0, 0)], [g(2, 0), g(0, 3)])
        assert path_length_d0([P, P, P], slopes=4) == 0

    def test_translate_waypoints(self):
        rng = random.Random(71)
        P = random_staircase(rng)
        path = [P, shift(P, F(1, 2)), shift(P, 1)]
        assert path_length_d0(path, slopes=4) == 1

    def test_interpolated_waypoints(self):
        rng = random.Random(72)
        P = random_staircase(rng, immortal=True)
        J = translate_joint(P, 1)
        path = [interpolate(J, t) for t in (0, F(1, 2), 1)]
        assert path_length_d0(path, slopes=4) == 1

    def test_needs_two_modules(self):
        with pytest.raises(ValueError):
            path_length_d0([free([g(0, 0)])])


class TestLocalEquivalence:
    KAPPA = F(1, 34) - F(1, 1000)

    def test_certified_translate_passes(self):
        rng = random.Random(73)
        M = random_staircase(rng, immortal=True)
        eps = F(1, 2)
        N, w = shift_with_witness(M, eps)
        rep = local_equivalence_experiment(M, N, self.KAPPA, certified_eps=eps,
                                           witness=w, slopes=6)
        assert rep.hypothesis_ok and rep.status == "PASS"
        assert rep.d0 == eps and rep.strict_holds and rep.nonstrict_holds

    @pytest.mark.parametrize("certified", [F(1, 100), F(1)])
    def test_certified_eps_outside_the_verified_interval_is_refused(self, certified):
        # the rank lower bound and the accepted witness both give 1/2
        M = random_staircase(random.Random(73))
        N, w = shift_with_witness(M, F(1, 2))
        with pytest.raises(ValueError, match=r"outside the verified interval \[1/2, 1/2\]"):
            local_equivalence_experiment(M, N, self.KAPPA, certified_eps=certified, witness=w, slopes=4)

    def test_anchor_counterexample_reports_caveat(self):
        rng = random.Random(74)
        N, O = incompleteness_pair()
        M = random_staircase(rng, immortal=True)
        rep = local_equivalence_experiment(direct_sum(M, N), direct_sum(M, O),
                                           self.KAPPA, slopes=6)
        assert rep.d0 == 0
        assert rep.status == "HYPOTHESIS-FAIL"
        assert "not claimed" in rep.hypothesis_note

    def test_identical_modules_trivial(self):
        M = staircase_interval([g(0, 0)], [g(6, 0), g(0, 6)])
        w = InterleavingWitness(F(0), {0: ((0, 1),)}, {0: ((0, 1),)})
        rep = local_equivalence_experiment(M, M, self.KAPPA, certified_eps=0, witness=w, slopes=4)
        assert rep.eps_exact == 0 and rep.d0 == 0
        assert rep.hypothesis_ok and rep.nonstrict_holds

    def test_kappa_range_enforced(self):
        M = free([g(0, 0)])
        with pytest.raises(ValueError):
            local_equivalence_experiment(M, M, F(1, 34))
