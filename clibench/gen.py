"""Seeded inputs for the CLI benchmark.

Every module is an explicit direct sum of exactly k ``random_staircase``
summands, so a size class means what it says.  From one seed the generator
writes FPRES module files and witness files into a directory and returns the
operation stream (``multipres`` argv lists plus what each output must
satisfy) for one workload.  The program under test only ever sees the
written files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from multipres import fio
from multipres.experiments import jitter_module, random_staircase
from multipres.grades import Grade
from multipres.presentation import (
    Generator,
    Presentation,
    Relation,
    direct_sum,
    make_column,
    shift,
)

# jitter amount: the identity map is an interleaving of a module and its
# jittered copy at this epsilon
JITTER = Fraction(1, 2)
# simplify threshold and grid-align base budget for certify-f3; grid-align
# needs 40 * KAP_EPS below the grid's controlling constant (lattice step 3)
SIMPLIFY_EPS = Fraction(1, 2)
KAP_EPS = Fraction(1, 64)

# instances per size class (summand count), per workload.
# Heavy classes get more instances.  The tail percentile of a run sits about
# ten operations below the slowest of two passes, so it lands inside the
# slowest class, away from its edges, only when that class holds about twenty
# operations in two passes: certify-f3 has ten 32-summand modules for that.
INSTANCES = {
    "match-jitter": {2: 3, 4: 3, 8: 8},
    "match-entangled": {2: 1, 4: 1, 8: 17},
    "certify-f3": {8: 2, 16: 2, 32: 10},
}
# the operation names (Op.name) in each workload's stream; with INSTANCES they
# name the per-size-class rows of the traced report
OP_NAMES = {
    "match-jitter": ("match-dist", "verify"),
    "match-entangled": ("match-dist",),
    "certify-f3": ("minimize", "betti", "simplify", "simplify-raw", "verify",
                   "lower-bound", "grid-align", "hilbert"),
}
# hilbert queries per certify-f3 module, each checked against the summands
HILBERT_QUERIES = 4
# slope count passed to match-dist --lines; README.md ("Slope count") has
# the measurement behind it
SLOPES = 2
# (birth corners, death corners) of the summands, in order; every prefix of
# two or more has two births per summand on average
SHAPES = ((2, 1), (2, 2), (1, 1), (3, 2), (1, 2), (3, 1))


def staircase_sum(rng: random.Random, k: int, p: int):
    """Direct sum of exactly k random staircase intervals, labels g0, g1, ...

    Summand i has the birth and death corner counts SHAPES[i % 6] (drawn
    from random_staircase until it has them), so modules of one size class
    carry the same numbers of generators and relations and differ only in
    where the corners sit.  Returns the module and each summand's
    (births, deaths) corner lists.
    """
    parts, corners = [], []
    for i in range(k):
        births, deaths = SHAPES[i % len(SHAPES)]
        while True:
            S = random_staircase(rng, p=p)
            if (len(S.gens), len(S.rels) - len(S.gens) + 1) == (births, deaths):
                break
        parts.append(S)
        # staircase_interval lists the births - 1 merge relations first
        corners.append(([g.grade for g in S.gens], [r.grade for r in S.rels[births - 1:]]))
    out = parts[0]
    for S in parts[1:]:
        out = direct_sum(out, S)
    gens = tuple(Generator(f"g{i}", g.grade) for i, g in enumerate(out.gens))
    return Presentation(out.n, out.p, gens, out.rels), corners


def interval_dimension(corners, a: Grade) -> int:
    """dim M_a of a sum of staircase intervals: summands whose support holds a."""
    return sum(
        any(b.leq(a) for b in births) and not any(d.leq(a) for d in deaths)
        for births, deaths in corners
    )


def entangle(P: Presentation, rng: random.Random) -> Presentation:
    """A non-minimal presentation of the same module, in shuffled order.

    Adds one trivial generator/relation pair per generator (the relation
    sits at the new generator's grade and also touches older generators
    below it), one redundant relation per relation (a sum of two relations
    at a grade above both), and first adds to randomly drawn relation
    columns another column whose grade lies below theirs.  Each step keeps
    the relation span at every grade, so the module is unchanged.
    """
    p = P.p
    gens = [g.grade for g in P.gens]
    rels = [(r.grade, dict(r.col)) for r in P.rels]
    for _ in range(len(rels)):
        i, j = rng.randrange(len(rels)), rng.randrange(len(rels))
        (gi, ci), (gj, cj) = rels[i], rels[j]
        if i != j and gj.leq(gi):
            c = rng.randrange(1, p)
            mixed = dict(ci)
            for row, v in cj.items():
                mixed[row] = mixed.get(row, 0) + c * v
            rels[i] = (gi, dict(make_column(mixed, p)))
    for _ in range(len(P.rels)):
        i, j = rng.randrange(len(rels)), rng.randrange(len(rels))
        (gi, ci), (gj, cj) = rels[i], rels[j]
        total = dict(ci)
        for row, v in cj.items():
            total[row] = total.get(row, 0) + v
        lift = [3 * rng.randint(0, 1) for _ in range(P.n)]
        rels.append((gi.join(gj).plus(lift), dict(make_column(total, p))))
    for _ in range(len(P.gens)):
        at = rels[rng.randrange(len(rels))][0]
        t = len(gens)
        gens.append(at)
        col = {t: 1}
        for i, g in enumerate(gens[:t]):
            if g.leq(at) and rng.random() < 0.5:
                col[i] = rng.randrange(1, p)
        rels.append((at, col))
    gen_order = list(range(len(gens)))
    rng.shuffle(gen_order)
    new_index = {old: new for new, old in enumerate(gen_order)}
    rng.shuffle(rels)
    return Presentation(
        P.n, p,
        tuple(Generator(f"g{k}", gens[old]) for k, old in enumerate(gen_order)),
        tuple(
            Relation(grade, make_column({new_index[i]: v for i, v in col.items()}, p))
            for grade, col in rels
        ),
    )


def identity_witness_text(P: Presentation, epsilon: Fraction) -> str:
    """Witness file mapping each generator of P to the same label, both ways."""
    rows = [f"witness {epsilon}"]
    rows += [f"f {g.label} -> 1:{g.label}" for g in P.gens]
    rows += [f"g {g.label} -> 1:{g.label}" for g in P.gens]
    return "\n".join(rows) + "\n"


@dataclass
class Op:
    """One CLI call: argv, its size class, and what its output must satisfy.

    kind names the check the runner applies, and expect is what it checks
    against: the epsilon a distance, lower bound or accepted witness must
    respect, the grid-align budget, a (generators, relations) count, or a
    Hilbert dimension.  save_as names a file that the stdout is written to,
    for a later operation to read.
    """

    argv: list[str]
    size: int
    kind: str
    expect: object
    save_as: str | None = None

    @property
    def name(self) -> str:
        return self.argv[0] + ("-raw" if "--raw" in self.argv else "")


def build(workload: str, seed: int, root: Path) -> list[Op]:
    """Write the inputs of one workload into root and return its stream."""
    if workload not in INSTANCES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    ops: list[Op] = []

    def write(name: str, text: str) -> str:
        path = root / name
        path.write_text(text)
        return str(path)

    for k, count in INSTANCES[workload].items():
        for inst in range(count):
            tag = f"k{k}-{inst}"
            if workload == "match-jitter":
                M, _ = staircase_sum(rng, k, 2)
                J = jitter_module(M, rng, JITTER)
                a = write(f"{tag}-M.fpres", fio.serialize_fpres(M))
                b = write(f"{tag}-J.fpres", fio.serialize_fpres(J))
                w = write(f"{tag}-W.txt", identity_witness_text(M, JITTER))
                ops.append(Op(["match-dist", a, b, "--lines", str(SLOPES)], k, "match", JITTER))
                ops.append(Op(["verify", a, b, w], k, "accept", JITTER))
                ops.append(Op(["verify", b, a, w], k, "accept", JITTER))
            elif workload == "match-entangled":
                M, _ = staircase_sum(rng, k, 2)
                a = write(f"{tag}-A.fpres", fio.serialize_fpres(entangle(M, rng)))
                b = write(f"{tag}-B.fpres", fio.serialize_fpres(entangle(M, rng)))
                ops.append(Op(["match-dist", a, b, "--lines", str(SLOPES)], k, "match", 0))
            else:
                M, corners = staircase_sum(rng, k, 3)
                J = jitter_module(M, rng, JITTER)
                m = write(f"{tag}-M.fpres", fio.serialize_fpres(M))
                j = write(f"{tag}-J.fpres", fio.serialize_fpres(J))
                off = write(f"{tag}-O.fpres", fio.serialize_fpres(shift(M, [KAP_EPS, -KAP_EPS])))
                wj = write(f"{tag}-WJ.txt", identity_witness_text(M, JITTER))
                ws = write(f"{tag}-WS.txt", identity_witness_text(M, SIMPLIFY_EPS))
                s = str(root / f"{tag}-S.fpres")
                sizes = (len(M.gens), len(M.rels))
                eps = str(SIMPLIFY_EPS)
                ops += [
                    Op(["minimize", m], k, "minimal", sizes),
                    Op(["betti", m], k, "betti", sizes),
                    Op(["simplify", m, "--eps", eps], k, "simplify", sizes),
                    Op(["simplify", m, "--eps", eps, "--raw"], k, "simplify-raw", sizes,
                       save_as=s),
                    Op(["verify", m, j, wj], k, "accept", JITTER),
                    Op(["verify", j, m, wj], k, "accept", JITTER),
                    Op(["verify", m, s, ws], k, "accept", SIMPLIFY_EPS),
                    Op(["lower-bound", m, j], k, "lower", JITTER),
                    Op(["grid-align", off, "--grid-of", m, "--kap-eps", str(KAP_EPS)],
                       k, "grid", 34 * KAP_EPS),
                ]
                for _ in range(HILBERT_QUERIES):
                    a = Grade([Fraction(rng.randint(0, 60), 2) for _ in range(2)])
                    ops.append(Op(["hilbert", m, "--at", str(a)], k, "hilbert",
                                  interval_dimension(corners, a)))
    return ops
