"""Acceptance suite: one check per shipped guarantee, exact tolerances.

Each criterion prints its own PASS/FAIL line (run with -s to see them all).
All equalities are over exact rationals; nothing is checked up to epsilon.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

from multipres import (
    Grade,
    LineSpec,
    barcode,
    betti_and_grid,
    bottleneck,
    direct_sum,
    fio,
    grid_align,
    interleaving_witness,
    interpolate,
    matching_distance,
    minimize,
    path_length_d0,
    rank_lower_bound,
    restrict,
    sample_lines,
    shift,
    simplify,
    simplify_barcode,
    translate_joint,
    verify_interleaving,
)
from multipres.experiments import (
    incompleteness_pair,
    jitter_module,
    random_block,
    random_module,
    random_staircase,
)
from multipres.functors import PIPELINE_TOTAL, shift_with_witness
from multipres.grades import grid_from_grades
from multipres.blocks import KINDS, block_matching_distance, unextended_block_distance
from multipres.fibered import Barcode
from multipres.presentation import Generator, Presentation, Relation

from oracles import brute_bottleneck

INF = math.inf
FIXTURES = Path(__file__).resolve().parent.parent / "src" / "multipres" / "fixtures"


def check(label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {label}: {status}{suffix}")
    assert ok, f"{label} failed{suffix}"


def random_one_param(rng, max_gens, p=2):
    k = rng.randint(1, max_gens)
    grades = sorted(F(rng.randint(0, 60), 2) for _ in range(k))
    gens = tuple(Generator(f"g{i}", Grade([x])) for i, x in enumerate(grades))
    rels = []
    for _ in range(rng.randint(0, max_gens)):
        support = rng.sample(range(k), rng.randint(1, min(3, k)))
        grade = max(grades[i] for i in support) + F(rng.randint(0, 40), 2)
        col = tuple(sorted((i, rng.randint(1, p - 1)) for i in support))
        rels.append(Relation(Grade([grade]), col))
    return Presentation(1, p, gens, tuple(rels))


def test_criterion_1_incompleteness_reproduction():
    t0 = time.monotonic()
    N, O = incompleteness_pair(eps=1, p=2)
    assert fio.parse_fpres((FIXTURES / "example31_N.fpres").read_text()) == N
    assert fio.parse_fpres((FIXTURES / "example31_O.fpres").read_text()) == O
    sample = sample_lines(N, O, slopes=64)
    assert len(sample.lines) >= 500
    report = matching_distance(N, O, sample=sample)
    w = fio.parse_witness((FIXTURES / "example31_witness.txt").read_text(), N, O)
    verdict = verify_interleaving(N, O, w)
    elapsed = time.monotonic() - t0
    check(
        "1 matching distance blind to the pair",
        report.value == 0 and len(sample.lines) >= 500,
        f"{len(sample.lines)} lines, d0={report.value}",
    )
    check(
        "1 shipped witness certifies d_I <= 1",
        verdict.accepted and w.epsilon == 1,
    )
    check("1 runtime under 30 s", elapsed < 30, f"{elapsed:.2f}s")
    lower = rank_lower_bound(N, O).value
    check(
        "1 rank lower bound separates the pair",
        lower > 0,
        f"lower bound {lower}; the pair shares its fibered bar code, so point "
        "rank probes stay at 0 and the interval-rank probes separate it",
    )


def test_criterion_2_functor_witness_bounds():
    t0 = time.monotonic()
    rng = random.Random(201)
    steps = (F(1, 8), F(1, 4), F(1, 2))
    for i in range(25):
        M = random_staircase(rng)
        grid = betti_and_grid(M).grid
        c = betti_and_grid(M).c
        P = jitter_module(M, rng, F(1, 16))
        for step in steps:
            assert step < c / 2
            merged, wm = interleaving_witness(P, "merge", grid=grid, delta=step)
            assert wm.epsilon == step
            assert verify_interleaving(P, merged, wm).accepted, f"merge witness {i} at {step}"
            simplified, ws = interleaving_witness(P, "simplify", eps=step)
            assert ws.epsilon == step
            assert verify_interleaving(P, simplified, ws).accepted, f"simplify witness {i} at {step}"
    elapsed = time.monotonic() - t0
    check("2 functor witnesses verify at their exact budgets", True, f"{elapsed:.2f}s")
    check("2 runtime under 60 s", elapsed < 60, f"{elapsed:.2f}s")


def test_criterion_3_barcode_simplification_commutes():
    rng = random.Random(202)
    for i in range(100):
        P = random_one_param(rng, max_gens=40, p=2 if i % 4 else 5)
        eps = F(rng.randint(0, 24), 4)
        left = barcode(simplify(P, eps)).as_counter()
        right = simplify_barcode(barcode(P), eps).as_counter()
        assert left == right, f"case {i} at eps={eps}"
    check("3 barcode simplification commutes with the functor", True)


def test_criterion_4_bottleneck_oracle():
    rng = random.Random(203)

    def rand_barcode():
        bars = Counter()
        for _ in range(rng.randint(0, 6)):
            b = F(rng.randint(0, 16), 2)
            d = INF if rng.random() < 0.2 else b + F(rng.randint(1, 12), 2)
            bars[(b, d)] += 1
        return Barcode(bars)

    for i in range(200):
        B1, B2 = rand_barcode(), rand_barcode()
        assert bottleneck(B1, B2) == brute_bottleneck(B1.expand(), B2.expand()), f"pair {i}"
    check("4 bottleneck equals exhaustive matching on 200 pairs", True)


def test_criterion_5_translate_sandwich():
    rng = random.Random(204)
    for i in range(50):
        P = random_staircase(rng)
        delta = F(rng.randint(1, 8), 8)
        Q = shift(P, delta)
        d0 = matching_distance(P, Q, slopes=4).value
        assert d0 == delta, f"pair {i}: d0 {d0} != {delta}"
        lb = rank_lower_bound(P, Q).value
        assert lb == delta, f"pair {i}: lower bound {lb} != {delta}"
    check("5 translates: sampled matching distance and rank bound equal delta", True)


def test_criterion_6_local_equivalence():
    from multipres.metrics import local_equivalence_experiment

    rng = random.Random(205)
    kappa = F(1, 34) - F(1, 1000)
    for i in range(20):
        M = random_staircase(rng, immortal=bool(i % 2))
        c_m = betti_and_grid(M).c
        bound = c_m / (2 * (34 * kappa + 1)) if c_m != INF else INF
        eps = min(F(1, 2), bound / 2)
        N, w = shift_with_witness(M, eps)
        rep = local_equivalence_experiment(M, N, kappa, certified_eps=eps,
                                           witness=w, slopes=6)
        assert rep.hypothesis_ok, f"instance {i}: hypothesis unexpectedly failed"
        assert rep.status == "PASS" and rep.strict_holds, f"instance {i}"
    Npair, Opair = incompleteness_pair()
    anchor = random_staircase(rng, immortal=True)
    d_anchor = matching_distance(direct_sum(anchor, Npair), direct_sum(anchor, Opair),
                                 slopes=8).value
    check("6 certified perturbations pass the strict bound", True)
    check("6 anchored counterexample stays at distance zero", d_anchor == 0,
          f"d0={d_anchor}")


def test_criterion_7_grid_alignment_pipeline():
    rng = random.Random(206)
    kap = F(1, 16)
    for i in range(10):
        M = random_staircase(rng)
        grid = betti_and_grid(M).grid
        c = betti_and_grid(M).c
        assert c > 40 * kap
        N = jitter_module(M, rng, 2 * kap)
        res = grid_align(N, grid, kap)
        data = betti_and_grid(res.module)
        on_grid = set(data.xi0) | set(data.xi1) <= set(grid.points())
        assert on_grid, f"instance {i}: Betti grades escape the grid"
        assert res.budget == PIPELINE_TOTAL * kap == res.witness.epsilon
        assert verify_interleaving(N, res.raw, res.witness).accepted, f"instance {i}"
    check("7 pipeline lands on the grid with a verified 34-step certificate", True)


def test_criterion_8_interpolation():
    rng = random.Random(207)
    P = random_staircase(rng, immortal=True)
    J = translate_joint(P, 1)
    gamma0, gamma1 = interpolate(J, 0), interpolate(J, 1)
    endpoints_ok = True
    for k in range(25):
        line = LineSpec.slope_one(Grade([F(k, 3), F(k % 5, 2)]))
        endpoints_ok &= barcode(restrict(gamma0, line)).as_counter() == \
            barcode(restrict(P, line)).as_counter()
        endpoints_ok &= barcode(restrict(gamma1, line)).as_counter() == \
            barcode(restrict(shift(P, 1), line)).as_counter()
    check("8 interpolation endpoints match on 25 lines", endpoints_ok)
    lipschitz_ok = True
    for _ in range(20):
        t, s = F(rng.randint(0, 16), 16), F(rng.randint(0, 16), 16)
        d = matching_distance(interpolate(J, t), interpolate(J, s), slopes=4).value
        lipschitz_ok &= d <= abs(t - s)
    check("8 path is 1-Lipschitz into the sampled matching distance", lipschitz_ok)
    length = path_length_d0([interpolate(J, t) for t in (0, F(1, 2), 1)], slopes=4)
    check("8 waypoint path length equals 1", length == 1, f"length={length}")


def test_criterion_9_blocks_sandwich():
    rng = random.Random(208)
    for i in range(50):
        kind = rng.choice(KINDS)
        x, y = random_block(rng, kind), random_block(rng, kind)
        d = unextended_block_distance(x, y)
        ext = block_matching_distance([x], [y])
        assert d <= ext <= 2 * d, f"pair {i}: {x} vs {y} gives {ext} outside [{d}, {2*d}]"
    check("9 extended block distances sit inside the doubling sandwich", True)


def test_criterion_10_minimization_soundness():
    rng = random.Random(209)
    for i in range(50):
        P = random_module(rng, summands=2)
        M = minimize(P)
        grid = grid_from_grades(set(P.betti_grades()))
        points = grid.points()
        points += [
            Grade([F(rng.randint(-8, 80), 4), F(rng.randint(-8, 80), 4)])
            for _ in range(100)
        ]
        for a in points:
            assert M.hilbert(a) == P.hilbert(a), f"module {i} differs at ({a})"
    check("10 minimization preserves the Hilbert function", True)
