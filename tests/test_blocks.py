import math
import random
from fractions import Fraction as F

import pytest

from multipres import Grade, betti_and_grid, rank_lower_bound, verify_interleaving
from multipres.blocks import (
    Block,
    KINDS,
    block_matching_distance,
    extend_block,
    unextended_block_distance,
)
from multipres.experiments import random_block
from multipres.functors import InterleavingWitness

from oracles import (
    block_presentation,
    dim_at,
    matched_pairs_by_dense_shifts,
    matched_pairs_witness_entries,
    rectangle_distance,
    saturates,
    slot_min_max_assignment,
    zero_module,
)

INF = math.inf


def g(*coords):
    return Grade(coords)


class TestExtendBlock:
    def test_open_open(self):
        r = extend_block(Block("oo", 1, 3))
        assert r.lower == g(-3, 1) and r.upper == (F(-1), F(3))

    def test_closed_closed_origin_is_quadrant(self):
        r = extend_block(Block("cc", 0, 0))
        assert r.lower == g(0, 0) and r.upper == (INF, INF)

    def test_closed_open(self):
        r = extend_block(Block("co", 2, 5))
        assert r.lower == g(-5, 2) and r.upper == (INF, F(5))

    def test_open_closed(self):
        r = extend_block(Block("oc", 1, 3))
        assert r.lower == g(-3, 1) and r.upper == (F(1), INF)

    def test_degenerate_rejected(self):
        # blocks whose extension would be empty
        for kind, a, b in (("oo", 2, 2), ("co", 1, 1), ("oc", -3, 1), ("oc", -1, 1)):
            with pytest.raises(ValueError, match="^empty block"):
                Block(kind, a, b)
        assert extend_block(Block("oc", -1, 2)).upper == (F(-1), INF)
        with pytest.raises(ValueError):
            Block("cc", 3, 1)
        with pytest.raises(ValueError):
            Block("xx", 0, 1)
        with pytest.raises(ValueError):
            Block("co", 0, INF)


class TestBlockPresentation:
    def test_single_quadrant_is_free(self):
        P = block_presentation([Block("cc", 0, 0)])
        assert len(P.gens) == 1 and not P.rels
        assert P.gens[0].grade == g(0, 0)

    def test_open_block_rectangle(self):
        P = block_presentation([Block("oo", 1, 3)])
        assert P.gens[0].grade == g(-3, 1)
        assert sorted(str(r.grade) for r in P.rels) == ["-1 1", "-3 3"]
        for x in range(-4, 1):
            for y in range(0, 4):
                inside = -3 <= x < -1 and 1 <= y < 3
                assert P.hilbert(g(x, y)) == int(inside) == dim_at(P, g(x, y))

    def test_two_blocks_additive(self):
        P = block_presentation([Block("oo", 1, 3), Block("co", 2, 5)])
        assert len(P.gens) == 2 and len(P.rels) == 3
        A = block_presentation([Block("oo", 1, 3)])
        B = block_presentation([Block("co", 2, 5)])
        rng = random.Random(81)
        for _ in range(30):
            a = g(F(rng.randint(-12, 6), 2), F(rng.randint(-2, 12), 2))
            assert P.hilbert(a) == A.hilbert(a) + B.hilbert(a)

    def test_summand_count_is_xi0(self):
        rng = random.Random(82)
        for _ in range(10):
            blocks = [random_block(rng, rng.choice(KINDS)) for _ in range(rng.randint(1, 4))]
            data = betti_and_grid(block_presentation(blocks))
            assert sum(data.xi0.values()) == len(blocks)


class TestBlockMatching:
    def test_self_distance(self):
        A = [Block("oo", 0, 2), Block("cc", 1, 1)]
        assert block_matching_distance(A, A) == 0

    def test_deletion_cost(self):
        assert block_matching_distance([Block("oo", 0, 2)], []) == 1

    def test_quadrant_corner_distance(self):
        assert block_matching_distance([Block("cc", 0, 0)], [Block("cc", 1, 1)]) == 1

    def test_quadrant_cannot_be_deleted(self):
        assert block_matching_distance([Block("cc", 0, 0)], []) == INF

    def test_kind_mismatch_forces_deletions(self):
        d = block_matching_distance([Block("oo", 0, 2)], [Block("co", 0, 2)])
        assert d == max(F(1), F(1))  # both deleted at their radii

    def test_against_slot_matching(self):
        # the slot oracle with the closed-form rectangle distance as every
        # pair's cost: all kinds, empty lists, tied blocks (drawn from a small
        # pool), and quadrant-only lists of unequal length, which give INF
        rng = random.Random(87)
        values = []
        for trial in range(120):
            kinds = ("cc",) if trial % 4 == 0 else KINDS
            pool = [random_block(rng, rng.choice(kinds)) for _ in range(4)]
            A, B = ([rng.choice(pool) for _ in range(rng.randint(0, 6))] for _ in range(2))
            ra, rb = [extend_block(x) for x in A], [extend_block(y) for y in B]
            expected = slot_min_max_assignment([[rectangle_distance(x, y) for y in rb] for x in ra],
                                               [r.radius() for r in ra], [r.radius() for r in rb])
            values.append(block_matching_distance(A, B))
            assert values[-1] == expected, (A, B)
        assert {0, INF} < set(values)
        assert block_matching_distance([], []) == 0

    def test_deletion_certified_both_ways(self):
        # cost-to-zero of an open block: rank bound below, witness above
        P = block_presentation([Block("oo", 0, 2)])
        Z = zero_module(2, 2)
        assert rank_lower_bound(P, Z).value == 1
        w = InterleavingWitness(F(1), (), ())
        assert verify_interleaving(P, Z, w).accepted

    def test_corner_shift_certified_both_ways(self):
        P = block_presentation([Block("cc", 0, 0)])
        Q = block_presentation([Block("cc", 1, 1)])
        assert rank_lower_bound(P, Q).value == 1
        w = InterleavingWitness(F(1), ((0, 0, 1),), ((0, 0, 1),))
        assert verify_interleaving(P, Q, w).accepted

    def test_value_certified_on_small_instances(self):
        rng = random.Random(83)
        certified = 0
        for trial in range(20):
            A = [random_block(rng, rng.choice(KINDS)) for _ in range(rng.randint(1, 12))]
            kinds = [rng.choice(KINDS) for _ in range(rng.randint(0, 12))]
            if trial % 2:
                # quadrants cannot be deleted: give B as many as A, so the value is finite
                quadrants = sum(x.kind == "cc" for x in A)
                kinds = [k for k in kinds if k != "cc"][:12 - quadrants] + ["cc"] * quadrants
            B = [random_block(rng, k) for k in kinds]
            value = block_matching_distance(A, B)
            PA = block_presentation(A, 2)
            PB = block_presentation(B, 2) if B else zero_module(2, 2)
            if value != INF:
                assert rank_lower_bound(PA, PB).value <= value
                if value > 0:
                    assert matched_pairs_witness_entries(A, B, value - F(1, 1000)) is None
                entries = matched_pairs_witness_entries(A, B, value)
                assert entries is not None
                f, gmat = entries
                w = InterleavingWitness(
                    value,
                    tuple((i, j, c) for (i, j), c in sorted(f.items())),
                    tuple((i, j, c) for (i, j), c in sorted(gmat.items())),
                )
                assert verify_interleaving(PA, PB, w).accepted
                certified += 1
        assert certified >= 10

    def test_witness_on_twelve_block_lists(self):
        rng = random.Random(86)
        for _ in range(4):
            A = [random_block(rng, rng.choice(KINDS)) for _ in range(12)]
            B = [random_block(rng, x.kind) for x in A]
            rng.shuffle(B)
            value = block_matching_distance(A, B)
            assert 0 < value < INF
            assert matched_pairs_witness_entries(A, B, value - F(1, 1000)) is None
            f, gmat = matched_pairs_witness_entries(A, B, value)
            w = InterleavingWitness(value, tuple((i, j, c) for (i, j), c in sorted(f.items())),
                                    tuple((i, j, c) for (i, j), c in sorted(gmat.items())))
            assert verify_interleaving(block_presentation(A), block_presentation(B), w).accepted

    def test_witness_rows_match_the_dense_shift_matrix(self):
        # all four kinds, ties (blocks drawn from a small pool), negative
        # endpoints, and thresholds at, below and between the distances
        rng = random.Random(88)

        def block(kind):
            a = F(rng.randint(-12, 12), rng.choice([1, 2, 3]))
            b = a + F(rng.randint(1, 12), rng.choice([1, 2]))
            if kind == "oc" and a + b <= 0:
                a, b = -a + 1, b - 2 * a + 1
            return Block(kind, a, b)

        found = 0
        for trial in range(60):
            pool = [block(rng.choice(KINDS)) for _ in range(6)]
            A, B = ([rng.choice(pool) for _ in range(rng.randint(0, 10))] for _ in range(2))
            value = block_matching_distance(A, B)
            for eps in {F(0), F(1, 3), F(5, 2), F(40), F(-1)} | ({value, value - F(1, 1000)} if value != INF else set()):
                got = matched_pairs_witness_entries(A, B, eps)
                assert got == matched_pairs_by_dense_shifts(A, B, eps), (A, B, eps)
                found += got is not None
        assert found > 40

    def test_saturates_after_greedy_conflict(self):
        # the matcher of the two witness oracles: left vertices 1 and 2 both
        # need right vertex 2, which the greedy pass gives to vertex 0; after
        # vertex 1 takes it over, vertex 2 must fail
        rows = [[2, 0, 1], [2], [2]]
        assert saturates(rows, 3, [0, 1, 2]) is None
        assert saturates(rows, 3, [0, 1]) == [0, -1, 1]


class TestSandwich:
    def test_same_kind_pairs_within_factor_two(self):
        rng = random.Random(84)
        for _ in range(50):
            kind = rng.choice(KINDS)
            x, y = random_block(rng, kind), random_block(rng, kind)
            d = unextended_block_distance(x, y)
            ext = block_matching_distance([x], [y])
            assert d <= ext <= 2 * d

    def test_rectangle_distance_symmetry(self):
        rng = random.Random(85)
        for _ in range(30):
            kind = rng.choice(KINDS)
            x, y = random_block(rng, kind), random_block(rng, kind)
            rx, ry = extend_block(x), extend_block(y)
            assert rectangle_distance(rx, ry) == rectangle_distance(ry, rx)
