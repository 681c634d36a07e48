"""Seeded mutations of witness, barcode, joint and blocks files, run through the CLI.

Every witness or barcode mutant goes to `verify` as the witness file and to
`bottleneck` as the first barcode file; every joint mutant to `interpolate
--t 1/2`, and every blocks mutant to `blocks extend` and to `blocks dist` as
the first file.  Each run exits 0, or 2 for a rejected witness, or 1 with a
message that names a line of the file; none raises.
"""

import random
import re
from pathlib import Path

import pytest

from multipres import fio
from multipres.cli import main
from multipres.experiments import incompleteness_pair, jitter_module, random_staircase
from multipres.fibered import barcode, restrict
from multipres.grades import Grade, LineSpec
from multipres.presentation import direct_sum

from oracles import joint_text, translate_joint_by_fractions

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "multipres" / "fixtures"
# tokens a mutation inserts or substitutes: malformed ones, and valid ones
# that change an epsilon, an entry, a bar or a multiplicity
ODD_TOKENS = ["1/0", "inf", "-inf", "1_0", "3.5", "1e3", "12345678901234567890", "-7", "0", "+2", "7/3", "-5/6",
              "x", "->", "f", "g", "witness", "bar", "1:a", "2:b", "0:c", "-1:a", "3:b0", "1:z", "1_1:a", ":a", "1:",
              "1:b0", "2:b1"]
LINE_PATTERN = re.compile(r"line ([0-9]+): ")


def mutate(rng, lines):
    """One random edit of the token lines: a token swapped, deleted, inserted
    or replaced, or a line duplicated or dropped."""
    lines = [line.split() for line in lines if line.split()]
    kind = rng.randrange(6)
    i = rng.randrange(len(lines))
    toks = lines[i]
    if kind == 0:
        j = rng.randrange(len(lines))
        a, b = rng.randrange(len(toks)), rng.randrange(len(lines[j]))
        toks[a], lines[j][b] = lines[j][b], toks[a]
    elif kind == 1:
        del toks[rng.randrange(len(toks))]
    elif kind == 2:
        toks.insert(rng.randrange(len(toks) + 1), rng.choice(ODD_TOKENS))
    elif kind == 3:
        toks[rng.randrange(len(toks))] = rng.choice(ODD_TOKENS)
    elif kind == 4:
        lines.insert(i, list(toks))
    else:
        del lines[i]
    return "\n".join(" ".join(t) for t in lines) + "\n"


def identity_witness(P, eps: str) -> str:
    """The witness text mapping each generator of P to its namesake, both ways."""
    rows = [f"{side} {label} -> 1:{label}" for side in "fg" for label in P.labels]
    return "\n".join([f"witness {eps}"] + rows) + "\n"


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    """(module file, other module file, witness text) triples and barcode texts."""
    root = tmp_path_factory.mktemp("mutants")
    rng = random.Random(3000)
    N, O = incompleteness_pair()
    pairs = [(N, O, (FIXTURES / "example31_witness.txt").read_text())]
    for p in (2, 3):
        M = direct_sum(random_staircase(rng, p=p), random_staircase(rng, p=p))
        pairs.append((M, jitter_module(M, rng, "1/2"), identity_witness(M, "1/2")))
    witnesses = []
    for k, (P, Q, text) in enumerate(pairs):
        (root / f"{k}-P.fpres").write_text(fio.serialize_fpres(P))
        (root / f"{k}-Q.fpres").write_text(fio.serialize_fpres(Q))
        witnesses.append((str(root / f"{k}-P.fpres"), str(root / f"{k}-Q.fpres"), text))
    line = LineSpec.through(Grade([0, 0]), [1, 1])
    bars = [fio.serialize_barcode(barcode(restrict(P, line))) for P, _, _ in pairs]
    bars.append("bar 0 10 1\nbar 0 1 1\nbar 1/2 inf 2\n")
    (root / "other.bars").write_text(bars[-1])
    return root, witnesses, bars


def check_run(argv, mutant, capsys, codes) -> None:
    """main(argv) exits 0 with output, or 2 from verify, or 1 naming a line of the mutant."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv[0], mutant, code)
    if code == 1:
        m = LINE_PATTERN.search(err)
        assert not out and m is not None, (argv[0], mutant, err)
        assert 1 <= int(m[1]) <= max(1, len(mutant.splitlines())), (argv[0], mutant, err)
    else:
        assert out and not err, (argv[0], mutant, err)
    assert code != 2 or argv[0] == "verify", (mutant, out)
    codes[code] += 1


@pytest.mark.parametrize("seed", [0, 1])
def test_mutants_exit_cleanly_or_fail_at_a_line(cases, capsys, seed):
    root, witnesses, bars = cases
    rng = random.Random(3100 + seed)
    path = str(root / f"mutant-{seed}.txt")
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(150):
        P, Q, text = rng.choice(witnesses)
        source = text if rng.random() < 0.6 else rng.choice(bars)
        mutant = mutate(rng, source.splitlines())
        Path(path).write_text(mutant)
        for argv in (["verify", P, Q, path], ["bottleneck", path, str(root / "other.bars")]):
            check_run(argv, mutant, capsys, codes)
    assert min(codes.values()) >= 5, codes


def test_joint_and_blocks_mutants_exit_cleanly_or_fail_at_a_line(tmp_path, capsys):
    rng = random.Random(3200)
    joints = [joint_text(translate_joint_by_fractions(direct_sum(random_staircase(rng, p=p), random_staircase(rng, p=p)),
                                                      eps)) for p, eps in ((2, "1/2"), (3, "2"))]
    blocks = ["blocks 1\nblk oo 0 2\nblk cc 1 1\nblk co 1/2 5/2\nblk oc -1 3/4\n"]
    other = tmp_path / "other.blocks"
    other.write_text("blocks 1\nblk oo 1/2 2\nblk cc 1 3/2\n")
    path = str(tmp_path / "mutant.txt")
    codes = {0: 0, 1: 0, 2: 0}
    for k in range(800):
        source, runs = ((rng.choice(joints), [["interpolate", path, "--t", "1/2"]]) if k % 2 else
                        (blocks[0], [["blocks", "extend", path], ["blocks", "dist", path, str(other)]]))
        mutant = mutate(rng, source.splitlines())
        Path(path).write_text(mutant)
        for argv in runs:
            check_run(argv, mutant, capsys, codes)
    assert codes[0] >= 20 and codes[1] >= 500, codes
