"""Seeded mutations of FPRES text: every mutant parses to a module that
round-trips, or fails with a FormatError naming one of its lines."""

import random
import re

import pytest

from multipres import fio
from multipres.experiments import jitter_module, random_staircase
from multipres.presentation import direct_sum

# tokens a mutation inserts or substitutes: malformed ones, and valid ones
# that change a count, a dimension, a grade or a column
ODD_TOKENS = ["1/0", "inf", "-inf", "1_0", "3.5", "1e3", "12345678901234567890", "-98765432109876543210",
              "1:-1", "-1:0", "1:12345678901234567890", "0:0", "2:1", "1:0", ";", "g", "r", "fpres",
              "0", "-3", "+2", "7/3", "-5/6", "0/4", "4/2", "x"]
# grades that keep a module valid: generators move down, relations up
LOW = ["-1/2", "-5/6", "-7", "-12345678901234567890", "-1/98765432109876543210"]
HIGH = ["100", "301/3", "12345678901234567890", "98765432109876543210/7"]
LINE_PATTERN = re.compile(r"line ([0-9]+): ")


def sources(rng):
    """F2 and F3 staircase sums of 1 to 4 summands, and jittered copies with rational grades."""
    out = []
    for p in (2, 3):
        for k in (1, 2, 4):
            P = random_staircase(rng, p=p)
            for _ in range(k - 1):
                P = direct_sum(P, random_staircase(rng, p=p))
            out += [P, jitter_module(P, rng, "1/3")]
    return out


def mutate(rng, lines):
    """One random edit of the token lines: a token swapped, deleted, inserted
    or replaced, a line duplicated or dropped, a count made wrong, or a
    grade coordinate moved where the module stays valid."""
    lines = [line.split() for line in lines]
    kind = rng.randrange(8)
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
    elif kind == 5:
        del lines[i]
    elif kind == 6:
        # field, params, generators or relations off by a little, or far off
        heads = [k for k, t in enumerate(lines) if t[0] in ("field", "params", "generators", "relations")]
        k = rng.choice(heads)
        value = int(lines[k][1]) if lines[k][1].lstrip("-").isdigit() else 0
        lines[k][1] = str(rng.choice([value - 1, value + 1, 0, -1, 4, 10**20]))
    else:
        k = rng.choice([k for k, t in enumerate(lines) if t[0] in ("g", "r")])
        toks = lines[k]
        if toks[0] == "g":
            toks[rng.randrange(2, len(toks))] = rng.choice(LOW)
        else:
            toks[rng.randrange(1, toks.index(";"))] = rng.choice(HIGH)
    return "\n".join(" ".join(t) for t in lines) + "\n"


@pytest.mark.parametrize("seed", [0, 1])
def test_mutants_round_trip_or_fail_at_a_line(seed):
    rng = random.Random(2000 + seed)
    parsed = failed = 0
    for P in sources(rng):
        lines = fio.serialize_fpres(P).splitlines()
        for _ in range(21):
            text = mutate(rng, lines)
            try:
                Q = fio.parse_fpres(text)
            except fio.FormatError as exc:
                m = LINE_PATTERN.match(str(exc))
                assert m is not None, (text, str(exc))
                assert 1 <= int(m[1]) <= max(1, len(text.splitlines())), (text, str(exc))
                failed += 1
                continue
            assert fio.parse_fpres(fio.serialize_fpres(Q)) == Q, text
            parsed += 1
    assert parsed > 20 and failed > 100, (parsed, failed)
