"""Built-in experiment harnesses and the incompleteness example pair.

The pair (N, O) below is the classic demonstration that the fibered bar
code, and hence any distance computed from it, is globally incomplete: two
non-isomorphic 2-parameter modules whose restrictions to every positively
sloped line have identical barcodes.  N is a sum of two overlapping
rectangles; O is the sum of their union and intersection.  A shipped
witness certifies that their interleaving distance is at most eps even
though the sampled matching distance is exactly zero.  The rank lower
bound certifies eps from below through its interval probes: the union U
is a summand of O, and N's generalized rank over U eroded by any
eps' < eps is 0.  So d_I(N, O) = eps exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .functors import InterleavingWitness, shift_with_witness
from .grades import Grade, rat, rat_dec, rat_str
from .metrics import (
    DistanceReport,
    LocalEquivalenceReport,
    local_equivalence_experiment,
    matching_distance,
    rank_lower_bound,
    sample_lines,
    verify_interleaving,
)
from .presentation import Presentation, direct_sum, staircase_interval
from .blocks import Block, KINDS, block_matching_distance, unextended_block_distance


def incompleteness_pair(eps=1, p: int = 2) -> tuple[Presentation, Presentation]:
    """Two modules with equal fibered barcodes at positive interleaving distance.

    N = <a:(e,0), b:(0,e) | x1^9e a, x2^9e b, x2^10e a, x1^10e b>, and O adds
    a generator c at (e,e) with the merge relation x1^e b - x2^e a and the
    relations x1^9e c, x2^9e c.  Both are built in units of 1/den(e), in
    which e is the integer u.
    """
    e = rat(eps)
    u = e.numerator
    rels = [(10 * u, 0), (0, 10 * u), (u, 10 * u), (10 * u, u)]
    cols = [((0, 1),), ((1, 1),), ((0, 1),), ((1, 1),)]
    N = Presentation.from_integers(2, p, e.denominator, ["a", "b"], [(u, 0), (0, u)], rels, cols)
    O = Presentation.from_integers(2, p, e.denominator, ["a", "b", "c"], [(u, 0), (0, u), (u, u)],
                                   [(u, u)] + rels + [(10 * u, u), (u, 10 * u)],
                                   [((0, p - 1), (1, 1))] + cols + [((2, 1),), ((2, 1),)])
    return N, O


def incompleteness_witness(eps=1) -> InterleavingWitness:
    """Explicit eps-interleaving between the pair: f: a->a, b->c; g: a->a, b->a, c->b."""
    return InterleavingWitness(rat(eps), f=((0, 0, 1), (1, 2, 1)), g=((0, 0, 1), (1, 0, 1), (2, 1, 1)))


@dataclass(frozen=True)
class Example31Report:
    d0: DistanceReport
    lines_sampled: int
    d_i_lower: object
    witness_ok: bool
    witness_eps: object
    passed: bool

    def render(self) -> str:
        out = [
            "incompleteness experiment (equal fibered barcodes, positive interleaving distance)",
            f"lines sampled      {self.lines_sampled}",
            f"d0 sampled         {rat_dec(self.d0.value)}",
            f"d_I lower bound    {rat_dec(self.d_i_lower)}",
            f"d_I upper bound    {rat_dec(self.witness_eps)}"
            f" [witness {'accepted' if self.witness_ok else 'REJECTED'}]",
            "note: point rank conditions cannot separate modules sharing a fibered bar",
            "code; the interval probes do: O has the union U of N's rectangles as a",
            "summand, and N's generalized rank over U eroded by eps' < eps is 0, so the",
            f"certified interval is [{rat_str(self.d_i_lower)}, {rat_str(self.witness_eps)}].",
            f"status             {'PASS' if self.passed else 'FAIL'}",
        ]
        return "\n".join(out)


def run_example31(min_lines: int = 500) -> Example31Report:
    """Sampled matching distance 0 across >= min_lines lines (64 slopes, more
    lines if needed) for the pair at eps 1 over F_2, with the interleaving
    distance certified from both sides: a positive rank lower bound and the
    witness upper bound."""
    N, O = incompleteness_pair()
    sample = sample_lines(N, O, slopes=64)
    if len(sample) < min_lines:
        sample = sample_lines(N, O, slopes=64, seed=0, extra=min_lines - len(sample))
    d0 = matching_distance(N, O, sample=sample)
    lower = rank_lower_bound(N, O).value
    w = incompleteness_witness()
    check = verify_interleaving(N, O, w)
    passed = d0.value == 0 and check.accepted and len(sample) >= min_lines and lower > 0
    return Example31Report(d0, len(sample), lower, check.accepted, w.epsilon, passed)


# -- random module generators (shared by the harnesses and the test suite) ------------

# a random staircase has at most MAX_BIRTHS birth corners, on scale * {0..SPREAD-1}^2
MAX_BIRTHS, SPREAD = 3, 4


def random_staircase(rng: random.Random, p: int = 2, scale: int = 3, immortal: bool = False) -> Presentation:
    """Random 2-d staircase interval on a coarse lattice (grid gaps >= scale).

    Births form an antichain on scale * {0..SPREAD-1}^2.  Unless immortal,
    one or two death corners sit a margin of scale*(SPREAD+1) above the join
    of the births, so every bar a birth opens on its slope-1 line is long
    relative to the step sizes used in the harnesses.
    """
    k = rng.randint(1, MAX_BIRTHS)
    xs = sorted(rng.sample(range(SPREAD), k))
    ys = sorted(rng.sample(range(SPREAD), k), reverse=True)
    births = [Grade([scale * x, scale * y]) for x, y in zip(xs, ys)]
    deaths = []
    if not immortal:
        x, y = scale * (xs[-1] + SPREAD + 1), scale * (ys[0] + SPREAD + 1)  # the join of the births plus the margin
        deaths = [Grade([x, y])] if rng.random() < 0.5 else [Grade([x, y + scale]), Grade([x + scale, y])]
    return staircase_interval(births, deaths, p=p)


def jitter_module(P: Presentation, rng: random.Random, amount) -> Presentation:
    """Homogeneity-safe perturbation: generators move down, relations up,
    by random multiples of amount/4 up to amount per coordinate.

    The module is built at the scale S = lcm(P.scale, 4 * amount's
    denominator), where amount/4 is the integer step.
    """
    amt = rat(amount)
    S = math.lcm(P.scale, 4 * amt.denominator)
    step, factor = amt.numerator * S // (4 * amt.denominator), S // P.scale
    gens = [tuple(v * factor - step * rng.randint(0, 4) for v in a) for a in P.scaled_gens]
    rels = [tuple(v * factor + step * rng.randint(0, 4) for v in a) for a in P.scaled_rels]
    return Presentation.from_integers(P.n, P.p, S, P.labels, gens, rels, P.cols)


# -- local equivalence harness ---------------------------------------------------------


@dataclass(frozen=True)
class LocalEquivSweep:
    reports: tuple[LocalEquivalenceReport, ...]
    anchor_d0: object
    passed: bool

    def render(self) -> str:
        out = []
        for i, rep in enumerate(self.reports):
            out.append(f"-- instance {i}")
            out.append(rep.render())
        out.append(f"anchor counterexample d0(M+N, M+O) = {rat_str(self.anchor_d0)} (must be 0)")
        out.append(f"status {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(out)


def run_local_equiv(seed: int = 0, instances: int = 5) -> LocalEquivSweep:
    """Certified diagonal translates by eps = 1/2 must satisfy d0 > kappa * eps;
    the incompleteness pair glued to a common anchor must stay at d0 = 0.
    Each d0 samples 8 slopes."""
    rng = random.Random(seed)
    kappa = Fraction(1, 34) - Fraction(1, 1000)
    reports = []
    ok = True
    e, slopes = Fraction(1, 2), 8
    for _ in range(instances):
        M = random_staircase(rng, immortal=True)
        Nmod, w = shift_with_witness(M, e)
        rep = local_equivalence_experiment(
            M, Nmod, kappa, certified_eps=e, witness=w, slopes=slopes,
        )
        reports.append(rep)
        ok = ok and rep.status == "PASS"
    N, O = incompleteness_pair()
    anchor = random_staircase(rng, immortal=True)
    left = direct_sum(anchor, N)
    right = direct_sum(anchor, O)
    anchor_d0 = matching_distance(left, right, slopes=slopes).value
    ok = ok and anchor_d0 == 0
    return LocalEquivSweep(tuple(reports), anchor_d0, ok)


# -- blocks sandwich harness -----------------------------------------------------------


def random_block(rng: random.Random, kind: str) -> Block:
    a = Fraction(rng.randint(0, 16), 2)
    width = Fraction(rng.randint(1, 12), 2)
    return Block(kind, a, a + width)


@dataclass(frozen=True)
class SandwichReport:
    cases: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def render(self) -> str:
        out = [f"block sandwich check over {self.cases} same-kind pairs"]
        out += [f"FAIL {f}" for f in self.failures]
        out.append(f"status {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(out)


def run_sandwich(seed: int = 0, cases: int = 50) -> SandwichReport:
    """Extended-rectangle distance must land in [d, 2d] of the unextended one."""
    rng = random.Random(seed)
    failures = []
    for _ in range(cases):
        kind = rng.choice(KINDS)
        x, y = random_block(rng, kind), random_block(rng, kind)
        d = unextended_block_distance(x, y)
        ext = block_matching_distance([x], [y])
        if not d <= ext <= 2 * d:
            failures.append(f"{x} vs {y}: unextended {rat_str(d)}, extended {rat_str(ext)}")
    return SandwichReport(cases, tuple(failures))
