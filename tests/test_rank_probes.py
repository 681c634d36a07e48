"""The rank lower bound's probes against the routes they replaced.

ScaledModule.interval_rank walks the lower fence with a generator mask and
metrics._rank_violation settles point probes by counts; oracles keeps the
unit-vector walk and the check that computes every rank.  The modules are
the benchmark's staircase sums (clibench/gen.py) over F2/F3/F5: as built,
entangled into shuffled non-minimal presentations, and minimal.
"""

import random
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "clibench"))

import gen
from multipres import metrics
from multipres.experiments import jitter_module
from multipres.presentation import ScaledModule, scale_grade, staircase_fences

from oracles import interval_rank_by_units, rank_violation_by_ranks

TOP = 1000


def antichain(rng, k, x0, y0, span):
    xs = sorted(rng.sample(range(x0, x0 + span), k))
    ys = sorted(rng.sample(range(y0, y0 + span), k), reverse=True)
    return list(zip(xs, ys))


def closed(births, deaths):
    """deaths plus the two corners that bound up(births) minus up(deaths) at TOP."""
    return deaths + [(min(x for x, _ in births), TOP), (TOP, min(y for _, y in births))]


def probes(rng, corners, scale):
    """(births, deaths) pairs in the units of scale: each summand's interval
    eroded a little, an antichain of 1-4 births inside each summand's support
    (so the sum has positive rank there), and random antichains."""
    out = []
    for births, deaths in corners:
        B = [scale_grade(b, scale) for b in births]
        D = closed(B, [scale_grade(d, scale) for d in deaths])
        for e in (0, 1, 2, 5):
            out.append(([(x + e, y + e) for x, y in B], [(x - e, y - e) for x, y in D]))
        join = (max(x for x, _ in B), max(y for _, y in B))
        d = rng.randint(0, 8)
        inside = antichain(rng, rng.randint(1, 4), *join, 40)
        out.append((inside, closed(inside, [(x - d, y - d) for x, y in D[:-2]])))
    for _ in range(4):
        births = antichain(rng, rng.randint(1, 4), 0, 0, 15 * scale)
        out.append((births, closed(births, antichain(rng, rng.randint(1, 3), 4 * scale, 4 * scale, 40 * scale))))
    return out


def pairs(rng, count):
    """count pairs of each kind: a sum against its jitter by 1/2, 1 and 3/2,
    against an unrelated sum, and two entangled forms of it (bound 0)."""
    for i in range(5 * count):
        p, kind = (2, 3, 5)[i % 3], i % 5
        M, _ = gen.staircase_sum(rng, rng.randint(1, 4), p)
        if kind < 3:
            yield M, jitter_module(M, rng, F(kind + 1, 2))
        elif kind == 3:
            yield M, gen.staircase_sum(rng, rng.randint(1, 4), p)[0]
        else:
            yield gen.entangle(M, rng), gen.entangle(M, rng)


def test_interval_rank_equals_unit_vector_walk():
    rng = random.Random(22)
    seen = Counter()
    for case in range(36):
        M, corners = gen.staircase_sum(rng, case % 6 + 1, (2, 3, 5)[case % 3])
        views = [ScaledModule(S, 4) for S in (M, gen.entangle(M, rng), M.minimal)]
        for births, deaths in probes(rng, corners, 4):
            fences = staircase_fences(births, deaths)
            walk = 0 if isinstance(fences, str) else len(fences[0])
            for V in views:
                want = interval_rank_by_units(V, births, deaths)
                assert V.interval_rank(births, deaths) == want, (case, births, deaths)
                seen[want if not want else "positive", min(walk, 3)] += 1
    assert seen["positive", 3] >= 100 and seen[0, 3] and seen[None, 0], seen


def test_rank_violation_equals_rank_check(monkeypatch):
    seen = Counter()
    settle = metrics._rank_violation

    def both(views, points, intervals, e):
        got = settle(views, points, intervals, e)
        assert got == rank_violation_by_ranks(views, points, intervals, e), (points, intervals, e)
        seen[got, bool(intervals)] += 1
        return got

    monkeypatch.setattr(metrics, "_rank_violation", both)
    for P, Q in pairs(random.Random(23), 12):
        metrics.rank_lower_bound(P, Q)
    assert all(seen[v, True] for v in (True, False)), seen


def test_rank_lower_bound_equals_rank_route(monkeypatch):
    values = Counter()
    for P, Q in pairs(random.Random(24), 40):
        with monkeypatch.context() as m:
            m.setattr(metrics, "_rank_violation", rank_violation_by_ranks)
            m.setattr(ScaledModule, "interval_rank", interval_rank_by_units)
            want = metrics.rank_lower_bound(P, Q).value
        assert metrics.rank_lower_bound(P, Q).value == want, (P, Q)
        values[want > 0] += 1
    assert sum(values.values()) == 200 and values[True] and values[False], values
