import io
import itertools
import math
import random
import re
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest

from multipres import Grade, fio, metrics
from multipres.grades import rat_str
from multipres.blocks import Block
from multipres.cli import MAX_COUNT, build_parser, main
from multipres.experiments import incompleteness_pair, incompleteness_witness, jitter_module, random_staircase
from multipres.fibered import Barcode
from multipres.presentation import (Generator, Presentation, Relation, direct_sum, free, leq, shift,
                                    staircase_interval)

from oracles import barcode_of, betti_grades, entangled, random_module, translate_joint, translated, zero_module

INF = math.inf

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "multipres" / "fixtures"


def g(*coords):
    return Grade(coords)


class TestFpresFormat:
    def test_round_trip_simple(self):
        P = free([g(0, 0)])
        assert fio.parse_fpres(fio.serialize_fpres(P)) == P

    def test_round_trip_random(self):
        rng = random.Random(91)
        for _ in range(10):
            P = random_module(rng)
            assert fio.parse_fpres(fio.serialize_fpres(P)) == P

    def test_text_round_trip(self):
        # serialize(parse(t)) == t for staircase sums, their jittered copies
        # with denominators up to 97, and 1- and 3-parameter modules
        rng = random.Random(92)

        def exact(k):
            return F(rng.randint(-40, 40), rng.randint(1, 97)) if k else F(0)

        def jittered(P):
            # generators move down and relations up, so the columns stay homogeneous
            return Presentation(P.n, P.p,
                                tuple(Generator(x.label, x.grade.plus([-abs(exact(rng.randint(0, 1)))] * P.n))
                                      for x in P.gens),
                                tuple(Relation(r.grade.plus([abs(exact(rng.randint(0, 1)))] * P.n), r.col)
                                      for r in P.rels))

        def lifted(n, p):
            gens = tuple(Generator(f"x{i}", Grade(exact(1) for _ in range(n))) for i in range(rng.randint(0, 5)))
            rels = []
            for _ in range(rng.randint(0, 5) if gens else 0):
                support = sorted(rng.sample(range(len(gens)), rng.randint(1, len(gens))))
                top = [max(gens[i].grade.coords[k] for i in support) + abs(exact(rng.randint(0, 1)))
                       for k in range(n)]
                rels.append(Relation(Grade(top), tuple((i, rng.randint(1, p - 1)) for i in support)))
            return Presentation(n, p, gens, tuple(rels))

        modules = []
        for k in (1, 2, 4, 8):
            p = rng.choice([2, 3, 5])
            P = random_staircase(rng, p=p)
            for _ in range(k - 1):
                P = direct_sum(P, random_staircase(rng, p=p))
            modules += [P, jittered(P)]
        modules += [lifted(n, p) for n in (1, 3) for p in (2, 7) for _ in range(5)]
        assert {P.n for P in modules} == {1, 2, 3} and any(P.scale > 97 for P in modules)
        for P in modules:
            text = fio.serialize_fpres(P)
            assert fio.serialize_fpres(fio.parse_fpres(text)) == text
            assert fio.parse_fpres(text) == P

    def test_round_trip_zero_module(self):
        Z = zero_module(2, 2)
        assert fio.parse_fpres(fio.serialize_fpres(Z)) == Z

    def test_zero_coefficient_entries_are_dropped(self):
        text = "\n".join([
            "fpres 1", "field 2", "params 1",
            "generators 1", "g a 0",
            "relations 1", "r 5 ; 0:0",
        ])
        P = fio.parse_fpres(text)
        assert P.rels[0].col == ()

    def test_fixture_module_n(self):
        N, _ = incompleteness_pair()
        parsed = fio.parse_fpres((FIXTURES / "example31_N.fpres").read_text())
        assert parsed == N
        assert len(parsed.gens) == 2 and len(parsed.rels) == 4

    def test_fixture_module_o(self):
        _, O = incompleteness_pair()
        assert fio.parse_fpres((FIXTURES / "example31_O.fpres").read_text()) == O

    def test_relation_below_generator_rejected_with_line(self):
        bad = "\n".join([
            "fpres 1", "field 2", "params 2",
            "generators 1", "g a 1 1",
            "relations 1", "r 0 0 ; 1:0",
        ])
        with pytest.raises(fio.FormatError) as err:
            fio.parse_fpres(bad)
        assert "line 7" in str(err.value)

    def test_malformed_header(self):
        with pytest.raises(fio.FormatError):
            fio.parse_fpres("fpres 2\n")

    def test_integer_grammar(self):
        # integers are [+-]digits: int() would read 0_1 as 1 and a fullwidth 3 as 3
        head = "fpres 1\nfield 2\nparams 2\ngenerators 2\ng a 0 0\ng b 0 0\nrelations 1\n"
        for text, lineno in ((head + "r 3 3 ; 1:0_1\n", 8), (head + "r 3 3 ; +1:-0\n", None),
                             ("fpres 1\nfield \uff13\nparams 1\ngenerators 0\nrelations 0\n", 2),
                             ("fpres 1\nfield 2\nparams 2\ngenerators 0\nrelations 0_0\n", 5)):
            if lineno is None:
                assert fio.parse_fpres(text).rels[0].col == ((0, 1),)
                continue
            with pytest.raises(fio.FormatError, match=f"^line {lineno}: "):
                fio.parse_fpres(text)

    @pytest.mark.parametrize("entry", ["1_0:0", "1:\u0663", "+:1", "1:2:3", ":1"])
    def test_column_entry_grammar(self, entry):
        # one '[+-]digits:[+-]digits' match per entry, with grades.integer's rules
        text = f"fpres 1\nfield 2\nparams 1\ngenerators 1\ng a 0\nrelations 1\nr 1 ; {entry}\n"
        with pytest.raises(fio.FormatError, match=f"^line 7: bad column entry {re.escape(repr(entry))}$"):
            fio.parse_fpres(text)

    def test_rational_grammar(self):
        assert fio.parse_rational("3/4") == F(3, 4)
        assert fio.parse_rational("-7") == -7
        assert fio.parse_rational("+1/003") == F(1, 3)
        for bad in ("1/0", "1e3", "0.5", "1/-2", " 1", "1_0", "inf", "-inf"):
            with pytest.raises(fio.FormatError):
                fio.parse_rational(bad, 3)
        # only the fields that take an infinite upper end read 'inf'
        assert fio.parse_barcode("bar 0 inf 1\nbar -1 -3/4 1\n") == barcode_of([(0, INF), (-1, F(-3, 4))])
        for text in ("bar 0 -inf 1\n", "bar inf inf 1\n"):
            with pytest.raises(fio.FormatError, match="^line 1: bad rational"):
                fio.parse_barcode(text)


class TestOtherFormats:
    def test_barcode_round_trip(self):
        B = barcode_of({(0, 2): 2, (F(1, 2), INF): 1})
        assert fio.parse_barcode(fio.serialize_barcode(B)) == B

    def test_shuffled_distinct_bars_at_large_scales(self):
        # distinct bars in no order, with denominators near 10^6 and 10^9,
        # are read at the lcm of all of them and written back unchanged
        rng = random.Random(96)
        bars = {}
        for i in range(3000):
            b = F(rng.randint(-10**9, 10**9), rng.choice((999_983, 1_000_003)))
            d = INF if i % 7 == 0 else b + F(rng.randint(1, 10**12), rng.choice((999_999_937, 1_000_000_007)))
            bars[b, d] = rng.randint(1, 3)
        B = fio.parse_barcode("".join(f"bar {rat_str(b)} {rat_str(d)} {m}\n" for (b, d), m in bars.items()))
        assert B == barcode_of(bars) and B.total() == sum(bars.values())
        assert B.scale == 999_983 * 1_000_003 * 999_999_937 * 1_000_000_007
        assert fio.parse_barcode(fio.serialize_barcode(B)) == B

    def test_blocks_file(self):
        blocks = [Block("oo", 1, 3), Block("cc", 0, 0), Block("co", F(1, 2), 5)]
        assert fio.parse_blocks("blocks 1\nblk oo 1 3\n# a comment\nblk cc 0 0\nblk co 1/2 5\n") == blocks

    def test_block_infinite_endpoint_rejected(self):
        # block endpoints are finite rationals; 'inf' is read only for bar deaths
        with pytest.raises(fio.FormatError, match=r"^line 2: bad rational 'inf'$"):
            fio.parse_blocks("blocks 1\nblk co 0 inf\n")
        with pytest.raises(fio.FormatError, match=r"^line 2: expected 'blk <kind> <a> <b>'$"):
            fio.parse_blocks("blocks 1\nblk co 0\n")

    def test_multiplicities_are_bounded_integers(self):
        for text, lineno in (("bar 0 1 1_0\n", 1), ("bar 0 1 1000000000000\n", 1),
                             (f"bar 0 1 {fio.MAX_BARS // 2}\nbar 0 2 {fio.MAX_BARS // 2}\nbar 0 3 1\n", 3)):
            with pytest.raises(fio.FormatError, match=f"^line {lineno}: "):
                fio.parse_barcode(text)
        assert fio.parse_barcode(f"bar 0 1 {fio.MAX_BARS}\n").total() == fio.MAX_BARS

    def test_witness_coefficient_grammar(self):
        P = free([g(0, 0)], labels=["a"])
        with pytest.raises(fio.FormatError, match=r"^line 3: bad entry '1_1:a'$"):
            fio.parse_witness("witness 0\nf a -> 1:a\ng a -> 1_1:a\n", P, P)

    def test_witness_fixture(self):
        N, O = incompleteness_pair()
        fixture = (FIXTURES / "example31_witness.txt").read_text()
        assert fio.parse_witness(fixture, N, O) == incompleteness_witness()

    def test_joint_file(self):
        assert fio.parse_joint(RECT_JOINT) == translate_joint(RECT, 1)

    def test_joint_entry_with_coefficient_zero_is_checked_at_both_ends(self):
        # the second module's relation at (1, 1) holds m.a with coefficient 0:
        # it lies below m.a at t = 1 only, where m.a sits at (3/2, 3/2)
        text = ("epsilon 1\nfpres 1\nfield 3\nparams 2\ngenerators 1\ng a 1/2 1/2\nrelations 1\nr 2 2 ; 1:0 2:1\n"
                "fpres 1\nfield 3\nparams 2\ngenerators 1\ng a 1 1\nrelations 1\nr 1 1 ; 0:0 1:1\n")
        with pytest.raises(fio.FormatError, match=r"^line 15: relation 1 at grade \(1 1\) lies below generator "
                                                  r"'m.a' at \(3/2 3/2\)$"):
            fio.parse_joint(text)


def run_cli(*args):
    # a hanging input fails its test instead of stalling the suite
    proc = subprocess.run(
        [sys.executable, "-m", "multipres.cli", *args],
        capture_output=True, text=True, timeout=10,
    )
    return proc.returncode, proc.stdout, proc.stderr


RECT = staircase_interval([g(0, 0)], [g(2, 0), g(0, 3)])
# RECT and its translate by 1, joined by a relation from each generator to its copy on both sides
RECT_JOINT = """epsilon 1
fpres 1
field 2
params 2
generators 1
g b0 0 0
relations 3
r 2 0 ; 1:0
r 0 3 ; 1:0
r 2 2 ; 1:0 1:1
fpres 1
field 2
params 2
generators 1
g b0 1 1
relations 3
r 3 1 ; 1:0
r 1 4 ; 1:0
r 1 1 ; 1:0 1:1
"""


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    N, O = incompleteness_pair()
    (root / "N.fpres").write_text(fio.serialize_fpres(N))
    (root / "O.fpres").write_text(fio.serialize_fpres(O))
    witness = (FIXTURES / "example31_witness.txt").read_text()
    (root / "w.txt").write_text(witness)
    (root / "w_bad.txt").write_text(witness.replace("witness 1\n", "witness 1/2\n"))
    rect = RECT
    (root / "rect.fpres").write_text(fio.serialize_fpres(rect))
    (root / "one.fpres").write_text("fpres 1\nfield 2\nparams 1\ngenerators 1\ng a 1/2\nrelations 1\nr 3 ; 1:0\n")
    (root / "rect_shift.fpres").write_text(
        fio.serialize_fpres(Presentation(
            2, 2,
            tuple(Generator(x.label, translated(x.grade, F(1, 2))) for x in rect.gens),
            tuple(Relation(translated(r.grade, F(1, 2)), r.col) for r in rect.rels),
        ))
    )
    (root / "J.joint").write_text(RECT_JOINT)
    (root / "A.blocks").write_text("blocks 1\nblk oo 0 2\nblk cc 1 1\n")
    (root / "B.blocks").write_text("blocks 1\nblk oo 1/2 2\n")
    (root / "B1.bars").write_text("bar 0 10 1\nbar 0 1 1\n")
    (root / "B2.bars").write_text("bar 1 9 1\n")
    (root / "long1.bars").write_text("".join(f"bar {i} {i + 10} 1\n" for i in range(1000)))
    (root / "long2.bars").write_text("".join(f"bar {2 * i + 1}/2 {i + 10} 1\n" for i in range(1000)))
    (root / "broken.fpres").write_text("fpres 1\nfield 2\nparams 2\ngenerators 1\ng a 1 1\nrelations 1\nr 0 0 ; 1:0\n")
    (root / "rect_f3.fpres").write_text(fio.serialize_fpres(rect).replace("field 2", "field 3"))
    (root / "cube.fpres").write_text(fio.serialize_fpres(free([g(0, 0, 0), g(1, F(1, 2), 0)])))
    (root / "cube_shift.fpres").write_text(
        fio.serialize_fpres(free([g(0, F(1, 3), 0), g(1, F(1, 2), F(1, 5))])))
    mersenne = fio.serialize_fpres(rect).replace("field 2", f"field {2 ** 61 - 1}")
    (root / "mersenne.fpres").write_text(mersenne)
    return root


class TestCli:
    def test_minimize_round_trips(self, files):
        code, out, _ = run_cli("minimize", str(files / "O.fpres"))
        assert code == 0
        assert len(fio.parse_fpres(out).rels) == 5

    def test_betti(self, files):
        code, out, _ = run_cli("betti", str(files / "N.fpres"))
        assert code == 0
        assert "controlling-constant 1" in out
        assert "partial-complexity 6" in out

    def test_hilbert(self, files):
        code, out, _ = run_cli("hilbert", str(files / "N.fpres"), "--at", "1 1")
        assert code == 0 and out.strip() == "2"
        # the grammar is [+-]digits[/digits]: no exponents, no decimals
        for at in ("1e3 1", "0.5 1", "1/0 1"):
            code, out, err = run_cli("hilbert", str(files / "N.fpres"), "--at", at)
            assert code == 1 and not out and "bad grade" in err and "Traceback" not in err

    @pytest.mark.parametrize("args", [
        ("match-dist", "N.fpres", "O.fpres", "--lines", "x"),
        ("match-dist", "N.fpres"),
        ("restrict", "rect.fpres", "--direction", "1 1", "--base", "0 0", "--through", "1 1"),
        ("barcode", "rect.fpres", "--direction", "1 1", "--through", "1 1", "--base", "0 0"),
        # a 1-parameter module is its own restriction: line options would change nothing
        ("barcode", "one.fpres", "--through", "3"),
        ("barcode", "one.fpres", "--direction", "1", "--base", "0"),
        # one grid, from --grid or from --grid-of
        ("merge", "N.fpres", "--grid", "0 5; 0 5", "--grid-of", "N.fpres", "--delta", "2", "--raw"),
        ("grid-align", "rect.fpres", "--kap-eps", "1/128"),
        # integers are [+-]digits: no '_' separators, no non-ASCII digits
        ("match-dist", "N.fpres", "O.fpres", "--lines", "1_0"),
        ("match-dist", "N.fpres", "O.fpres", "--seed", "1_0", "--extra", "2"),
        ("experiment", "local-equiv", "--seed", "\uff17"),
        # an unknown option is reported by the subcommand that got it, with its usage
        ("experiment", "sandwich", "--lines", "3"),
        ("lower-bound", "N.fpres", "O.fpres", "--bogus"),
        # every count option stops at cli.MAX_COUNT
        ("match-dist", "N.fpres", "O.fpres", "--lines", "4097"),
        ("match-dist", "N.fpres", "O.fpres", "--lines", "100000000"),
        ("match-dist", "N.fpres", "O.fpres", "--adaptive", "4097"),
        ("match-dist", "N.fpres", "O.fpres", "--seed", "1", "--extra", "4097"),
        ("path-length", "N.fpres", "O.fpres", "--lines", "4097"),
        ("experiment", "example31", "--lines", "4097"),
        ("experiment", "local-equiv", "--instances", "4097"),
        ("experiment", "sandwich", "--instances", "4097"),
    ])
    def test_bad_arguments_exit_one_with_usage(self, files, args):
        code, out, err = run_cli(*(str(files / a) if a.endswith(".fpres") else a for a in args))
        command = " ".join(itertools.takewhile(lambda a: not a.startswith("-") and "." not in a, args))
        assert code == 1 and not out and f"usage: multipres {command} " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("args", [
        ("match-dist", "N.fpres", "O.fpres", "--lines", "-3"),
        ("match-dist", "N.fpres", "O.fpres", "--adaptive", "-1"),
        ("match-dist", "N.fpres", "O.fpres", "--seed", "1", "--extra", "-5"),
        ("path-length", "N.fpres", "O.fpres", "--lines", "-1"),
        ("experiment", "example31", "--lines", "-1"),
        ("experiment", "local-equiv", "--instances", "-2"),
        ("experiment", "local-equiv", "--instances", "0"),
    ])
    def test_negative_count_exits_one_with_usage(self, files, args):
        code, out, err = run_cli(*(str(files / a) if a.endswith(".fpres") else a for a in args))
        option = next(a for a in reversed(args) if a.startswith("--"))
        assert code == 1 and not out and f"usage: multipres {args[0]}" in err
        assert f"argument {option}: count" in err and "Traceback" not in err

    def test_negative_fraction_arguments(self, files):
        # '-1/2' is a value, as '-1' is, not an unknown option
        for argv, key in ((["hilbert", "m", "--at", "-1/2"], "at"),
                          (["restrict", "m", "--direction", "1", "--through", "-1/2"], "through"),
                          (["barcode", "m", "--direction", "1", "--base", "-1/2"], "base"),
                          (["lower-bound", "m", "n", "--probe", "-1/2"], "probe")):
            assert getattr(build_parser().parse_args(argv), key) in ("-1/2", ["-1/2"])
        one = str(files / "one.fpres")
        assert run_cli("hilbert", one, "--at", "-1/2") == (0, "0\n", "")
        code, out, err = run_cli("restrict", one, "--direction", "1", "--through", "-1/2")
        assert code == 0 and fio.parse_fpres(out) == fio.parse_fpres((files / "one.fpres").read_text()), err
        # the value reaches the command, which refuses a base off {x_n = 0}
        code, out, err = run_cli("restrict", one, "--direction", "1", "--base", "-1/2")
        assert code == 1 and not out and "{x_n = 0}" in err
        code, out, err = run_cli("lower-bound", one, one, "--probe", "-1/2")
        assert code == 0 and out.startswith("interleaving-lower-bound 0 "), err
        # a token that is no number stays an option
        code, out, err = run_cli("hilbert", one, "--at", "-x")
        assert code == 1 and not out and "argument --at: expected one argument" in err

    def test_count_options_accept_the_maximum(self):
        top = str(MAX_COUNT)
        for argv, key in ((["match-dist", "a", "b", "--lines", top], "lines"),
                          (["match-dist", "a", "b", "--adaptive", top], "adaptive"),
                          (["match-dist", "a", "b", "--extra", top], "extra"),
                          (["path-length", "a", "b", "--lines", top], "lines"),
                          (["experiment", "example31", "--lines", top], "lines"),
                          (["experiment", "sandwich", "--instances", top], "instances")):
            assert getattr(build_parser().parse_args(argv), key) == MAX_COUNT

    @pytest.mark.parametrize("pair", [("cube", "rect"), ("rect", "cube"), ("rect", "rect_f3")])
    def test_match_dist_mismatch_exits_one_without_traceback(self, files, pair):
        code, out, err = run_cli("match-dist", *(str(files / f"{name}.fpres") for name in pair))
        assert code == 1 and not out and "Traceback" not in err
        assert err.strip() == "error: matching distance needs matching dimension and field"

    def test_extra_lines_need_a_seed(self, files):
        args = ("match-dist", str(files / "N.fpres"), str(files / "O.fpres"), "--lines", "2")
        code, out, err = run_cli(*args, "--extra", "3")
        assert code == 1 and not out and "Traceback" not in err
        assert err.strip() == "error: extra jittered lines need a seed (--seed)"
        code, out, _ = run_cli(*args, "--extra", "0")
        assert code == 0 and "matching-distance 0 (0.000000)" in out

    def test_seed_needs_extra_lines(self, files):
        # without extra lines a seed changed nothing, so it is refused
        code, out, err = run_cli("match-dist", str(files / "N.fpres"), str(files / "O.fpres"),
                                 "--lines", "2", "--seed", "7")
        assert code == 1 and not out and "Traceback" not in err
        assert err.strip() == "error: a seed needs extra jittered lines (--extra)"

    def test_match_dist_adaptive_rounds_in_three_parameters(self, files):
        # lines in three parameters have no refinement, so the rounds stop at once
        args = ("match-dist", str(files / "cube.fpres"), str(files / "cube_shift.fpres"), "--emit-argmax")
        code, out, err = run_cli(*args, "--adaptive", "2")
        assert code == 0 and "argmax line" in out, err
        assert run_cli(*args) == (code, out, err)

    def test_match_dist_adaptive_rounds_in_two_parameters(self, files, monkeypatch, capsys):
        # a 2-parameter pair with an argmax line: each round builds the
        # refinement around it with _refine_near
        args = ["match-dist", str(files / "rect.fpres"), str(files / "rect_shift.fpres"), "--lines", "2"]
        samples = []
        refine = metrics._refine_near

        def counting(*args):
            samples.append(metrics.LineSample(tuple(refine(*args))))
            return samples[-1].groups

        def value():
            return F(re.search(r"^matching-distance (\S+) ", capsys.readouterr().out, re.M).group(1))

        assert main(args) == 0
        plain = value()
        monkeypatch.setattr(metrics, "_refine_near", counting)
        assert main([*args, "--adaptive", "2"]) == 0
        assert value() >= plain == F(1, 2)
        assert samples and all(len(s) for s in samples)

    def test_help_exits_zero(self):
        code, out, _ = run_cli("match-dist", "--help")
        assert code == 0 and "usage: multipres match-dist" in out

    def test_merge_and_simplify(self, files):
        code, out, _ = run_cli("merge", str(files / "rect.fpres"),
                               "--grid", "0 2; 0 3", "--delta", "1/4")
        assert code == 0 and "fpres 1" in out
        code, out, _ = run_cli("simplify", str(files / "rect.fpres"), "--eps", "1/2")
        assert code == 0 and "fpres 1" in out

    def test_grid_align(self, files):
        code, out, err = run_cli("grid-align", str(files / "rect.fpres"),
                                 "--grid-of", str(files / "rect.fpres"),
                                 "--kap-eps", "1/128")
        assert code == 0
        assert "certified interleaving budget 17/64" in err

    def test_restrict_and_barcode(self, files):
        code, out, _ = run_cli("restrict", str(files / "rect.fpres"),
                               "--direction", "1 1", "--base", "0 0")
        assert code == 0 and "params 1" in out
        code, out, _ = run_cli("barcode", str(files / "rect.fpres"),
                               "--direction", "1 1", "--base", "0 0")
        assert code == 0 and out.strip() == "bar 0 2 1"
        code, out, _ = run_cli("barcode", str(files / "rect.fpres"),
                               "--direction", "1 1", "--base", "0 0", "--simplify", "1")
        assert code == 0 and out.strip() == "bar 0 1 1"
        assert run_cli("barcode", str(files / "one.fpres"), "--simplify", "1") == (0, "bar 1/2 2 1\n", "")
        code, out, err = run_cli("restrict", str(files / "rect.fpres"),
                                 "--direction", "1 1", "--through", "1 2 2")
        assert code == 1 and not out and "error:" in err and "Traceback" not in err
        for direction in ("0 0", "-1 -1"):
            for cmd in ("restrict", "barcode"):
                code, out, err = run_cli(cmd, str(files / "rect.fpres"), f"--direction={direction}")
                assert code == 1 and not out and "must all be positive" in err
                assert "Traceback" not in err
        code, out, err = run_cli("restrict", str(files / "rect.fpres"),
                                 "--direction", "1 1", "--base", "0 1")
        assert code == 1 and not out and "{x_n = 0}" in err and "Traceback" not in err

    def test_match_dist_deterministic(self, files):
        args = ("match-dist", str(files / "N.fpres"), str(files / "O.fpres"),
                "--lines", "8", "--seed", "7", "--extra", "20", "--emit-argmax")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first == second
        assert first[0] == 0 and "matching-distance 0 (0.000000)" in first[1]

    def test_bottleneck(self, files):
        code, out, _ = run_cli("bottleneck", str(files / "B1.bars"), str(files / "B2.bars"))
        assert code == 0 and "bottleneck 1 (1.000000)" in out

    def test_bottleneck_thousand_bars(self, files):
        # a recursive augmenting-path search overflowed the stack on this pair
        code, out, err = run_cli("bottleneck", str(files / "long1.bars"), str(files / "long2.bars"))
        assert code == 0 and out.strip() == "bottleneck 1/2 (0.500000)", err

    def test_bottleneck_of_twenty_thousand_equal_bars(self, tmp_path):
        # each file is one bar with its count, and the probe places copies by
        # the count: a demand of 20000 on a capacity of 20000 is one step
        short, long_ = tmp_path / "short.bars", tmp_path / "long.bars"
        short.write_text("bar 0 1 20000\n")
        long_.write_text("bar 0 3 20000\n")
        for other, want in ((short, "bottleneck 0 (0.000000)"), (long_, "bottleneck 3/2 (1.500000)")):
            start = time.perf_counter()
            code, out, err = run_cli("bottleneck", str(short), str(other))
            assert (code, out.strip()) == (0, want), err
            assert time.perf_counter() - start < 5

    def test_bottleneck_of_equal_births_with_rescans(self, tmp_path):
        # each long bar of the first file has a partner only after all the
        # short bars of the second, which share its birth: both are counted
        # bars, so the probe passes the short ones in one step
        first, second = tmp_path / "first.bars", tmp_path / "second.bars"
        first.write_text("bar 0 3 8000\n")
        second.write_text("bar 0 1 8000\nbar 0 3 8000\n")
        start = time.perf_counter()
        code, out, err = run_cli("bottleneck", str(first), str(second))
        assert (code, out.strip()) == (0, "bottleneck 1/2 (0.500000)"), err
        assert time.perf_counter() - start < 5

    @staticmethod
    def bounded_bottleneck(first, second, seconds, megabytes):
        """The stdout of bottleneck first second, run in-process within a
        wall time and a tracemalloc peak."""
        out = io.StringIO()
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with redirect_stdout(out):
                assert main(["bottleneck", str(first), str(second)]) == 0
            wall, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert wall < seconds and peak < megabytes * 2**20, (wall, peak)
        return out.getvalue()

    def test_bottleneck_of_counted_bars_and_one_without_a_partner(self, tmp_path):
        # [1, 2) has no partner and is deleted at 1/2, while the 10^5 copies
        # of [0, 3) match their own: a search that lists every copy's
        # neighbours before it meets [1, 2) is quadratic in time and memory
        first, second = tmp_path / "first.bars", tmp_path / "second.bars"
        first.write_text("bar 0 3 100000\nbar 1 2 1\n")
        second.write_text("bar 0 3 100000\n")
        assert self.bounded_bottleneck(first, second, 5, 20) == "bottleneck 1/2 (0.500000)\n"

    def test_bottleneck_of_distinct_bars_and_one_without_a_partner(self, tmp_path):
        # the same shape with 5000 distinct bars [k/n, 3 + k/n), count 1 each
        n = 5000
        chain = "".join(f"bar {k}/{n} {3 * n + k}/{n} 1\n" for k in range(n))
        first, second = tmp_path / "first.bars", tmp_path / "second.bars"
        first.write_text(chain + "bar 1 2 1\n")
        second.write_text(chain)
        assert self.bounded_bottleneck(first, second, 30, 40) == "bottleneck 1/2 (0.500000)\n"

    def test_tabular_format(self, files):
        code, out, _ = run_cli("bottleneck", str(files / "B1.bars"), str(files / "B2.bars"),
                               "--format", "tabular")
        assert code == 0 and out.strip() == "bottleneck\t1\t1.000000"
        code, out, _ = run_cli("match-dist", str(files / "N.fpres"), str(files / "O.fpres"),
                               "--lines", "4", "--format", "tabular")
        assert code == 0 and "matching-distance\t0\t0.000000" in out

    def test_verify_accept_and_reject(self, files):
        code, out, _ = run_cli("verify", str(files / "N.fpres"), str(files / "O.fpres"),
                               str(files / "w.txt"))
        assert code == 0 and "accept at epsilon 1" in out
        code, out, _ = run_cli("verify", str(files / "N.fpres"), str(files / "O.fpres"),
                               str(files / "w_bad.txt"))
        assert code == 2 and "reject" in out

    @pytest.mark.parametrize("rows, lineno", [
        # over F2, 1:a 1:a is a + a = 0, not the identity
        ("f a -> 1:a 1:a\ng a -> 1:a\n", 2),
        ("f a -> 1:a\nf a -> 1:a\ng a -> 1:a\n", 3),
    ])
    def test_repeated_witness_entry_exits_one_with_line(self, files, rows, lineno):
        (files / "point.fpres").write_text(fio.serialize_fpres(free([g(0, 0)], labels=["a"])))
        path = files / f"repeated{lineno}.txt"
        path.write_text("witness 0\n" + rows)
        code, out, err = run_cli("verify", str(files / "point.fpres"), str(files / "point.fpres"),
                                 str(path))
        assert code == 1 and not out and f"line {lineno}:" in err and "Traceback" not in err

    @pytest.mark.parametrize("first", [True, False])
    def test_repeated_module_label_names_the_module(self, tmp_path, capsys, first):
        # the fault is in the module file, not on a line of the witness file
        twice, point, w = tmp_path / "twice.fpres", tmp_path / "point.fpres", tmp_path / "w.txt"
        twice.write_text(fio.serialize_fpres(free([g(0, 0), g(1, 1)], labels=["a", "a"])))
        point.write_text(fio.serialize_fpres(free([g(0, 0)], labels=["a"])))
        w.write_text("# no rows\nwitness 0\n")
        modules = (twice, point) if first else (point, twice)
        assert main(["verify", *map(str, modules), str(w)]) == 1
        out, err = capsys.readouterr()
        assert not out and err == f"error: {twice}: repeated generator label 'a', which a witness file cannot name\n"

    def test_lower_bound(self, files):
        code, out, _ = run_cli("lower-bound", str(files / "rect.fpres"),
                               str(files / "rect_shift.fpres"))
        assert code == 0 and "interleaving-lower-bound 1/2 (0.500000)" in out
        code, out, _ = run_cli("lower-bound", str(files / "rect.fpres"),
                               str(files / "rect_shift.fpres"), "--probe", "0 0")
        assert code == 0 and "interleaving-lower-bound 1/2 (0.500000)" in out
        # a probe is added to the default ones, it does not replace them
        code, out, _ = run_cli("lower-bound", str(files / "rect.fpres"),
                               str(files / "rect_shift.fpres"), "--probe", "100 100")
        assert code == 0 and "interleaving-lower-bound 1/2 (0.500000)" in out
        # a probe of the wrong dimension is an input error, neither a crash nor cut short
        for probe in ("1 1 1", "1"):
            code, out, err = run_cli("lower-bound", str(files / "rect.fpres"),
                                     str(files / "rect_shift.fpres"), "--probe", probe)
            assert code == 1 and not out and f"error: probe ({probe}) has dimension" in err
            assert "Traceback" not in err

    def test_interpolate(self, files):
        code, out, _ = run_cli("interpolate", str(files / "J.joint"), "--t", "1/2")
        assert code == 0
        assert fio.parse_fpres(out).n == 2
        code, _, err = run_cli("interpolate", str(files / "J.joint"), "--t", "3")
        assert code == 1

    def test_path_length(self, files):
        code, out, _ = run_cli("path-length", str(files / "rect.fpres"),
                               str(files / "rect_shift.fpres"), "--lines", "4")
        assert code == 0 and "path-length 1/2 (0.500000)" in out

    def test_blocks_commands(self, files):
        code, out, _ = run_cli("blocks", "extend", str(files / "A.blocks"))
        assert code == 0 and "rect oo [-2, 0) x [0, 2)" in out
        code, out, _ = run_cli("blocks", "dist", str(files / "A.blocks"), str(files / "B.blocks"))
        assert code == 0 and "block-matching-distance inf" in out
        # a distance of 0 is a rational like any other, with its decimal
        code, out, _ = run_cli("blocks", "dist", str(files / "A.blocks"), str(files / "A.blocks"))
        assert code == 0 and out == "block-matching-distance 0 (0.000000)\n"
        path = files / "infinite.blocks"
        path.write_text("blocks 1\nblk co 0 inf\n")
        code, out, err = run_cli("blocks", "dist", str(files / "A.blocks"), str(path))
        assert code == 1 and not out and "line 2" in err and "Traceback" not in err
        for line in ("blk oo 2 2", "blk co 1 1", "blk oc -3 1"):
            path = files / "empty.blocks"
            path.write_text(f"blocks 1\n{line}\n")
            for args in (("extend", str(path)), ("dist", str(files / "A.blocks"), str(path))):
                code, out, err = run_cli("blocks", *args)
                assert code == 1 and not out and "line 2: empty block" in err and "Traceback" not in err

    def test_experiment_example31(self, files):
        code, out, _ = run_cli("experiment", "example31", "--lines", "40")
        assert code == 0
        assert "d0 sampled         0 (0.000000)" in out
        assert "d_I lower bound    1 (1.000000)" in out
        assert "status             PASS" in out

    def test_experiment_sandwich(self, files):
        code, out, _ = run_cli("experiment", "sandwich", "--seed", "3", "--instances", "2")
        assert code == 0 and "status PASS" in out

    @pytest.mark.parametrize("args", [("sandwich", "--lines", "3"), ("example31", "--seed", "1")])
    def test_experiment_refuses_options_it_ignores(self, args):
        code, out, err = run_cli("experiment", *args)
        assert code == 1 and not out and "usage: multipres" in err and "Traceback" not in err
        assert f"unrecognized arguments: {' '.join(args[1:])}" in err

    def test_experiment_local_equiv_deterministic(self, files):
        args = ("experiment", "local-equiv", "--seed", "5", "--instances", "2")
        assert run_cli(*args) == run_cli(*args)
        code, out, _ = run_cli(*args)
        assert code == 0 and "status PASS" in out

    def test_broken_input_exits_one(self, files):
        code, _, err = run_cli("betti", str(files / "broken.fpres"))
        assert code == 1 and "line 7" in err
        code, _, err = run_cli("betti", str(files / "missing.fpres"))
        assert code == 1

    @pytest.mark.parametrize("header, lineno", [
        ("# bad count\nfpres 1\nfield x\n", 3),
        ("fpres 1\nfield\n", 2),
        ("fpres 1\nfield 2\nparams 2\ngenerators x\n", 4),
        ("fpres 1\nfield 2\nparams 2\ngenerators 0\nrelations -1\n", 5),
        ("fpres 1\nfield 4\nparams 2\ngenerators 0\nrelations 0\n", 2),
        ("fpres 1\nfield 2\n\n# no axes\nparams 0\ngenerators 0\nrelations 0\n", 5),
        # over F2, 1:0 1:0 is a + a = 0, not a = 0
        ("fpres 1\nfield 2\nparams 2\ngenerators 1\ng a 0 0\nrelations 2\n"
         "r 1 1 ;\nr 1 1 ; 1:0 1:0\n", 8),
        ("fpres 1\nfield 2\nparams 2\ngenerators 1\ng a 1e100000000 0\nrelations 0\n", 5),
        ("fpres 1\nfield 2\nparams 2\ngenerators 1\ng a 0 0\nrelations 1\nr 1 1 ; 1:1\n", 7),
        ("fpres 1\nfield 2\nparams 2\ngenerators 1\ng a 0 0\nrelations 1\nr 1 1 ; 3:0\n", 7),
        ("fpres 1\nfield 2\nparams 2\ngenerators 1\ng a 0 0\nrelations 1\nr 1 1 ; 0:7\n", 7),
        # grades are finite rationals
        ("fpres 1\nfield 2\nparams 2\ngenerators 1\ng a inf 0\nrelations 0\n", 5),
        ("fpres 1\nfield 2\nparams 2\ngenerators 1\ng a 0 0\nrelations 1\nr 1 -inf ; 1:0\n", 7),
        # column entries are '[+-]digits:[+-]digits', ASCII digits only
        *((f"fpres 1\nfield 2\nparams 2\ngenerators 1\ng a 0 0\nrelations 1\nr 1 1 ; {entry}\n", 7)
          for entry in ("1_0:0", "1:\u0663", "+:1", "1:2:3", ":1")),
    ])
    def test_bad_header_value_exits_one_with_line(self, files, header, lineno):
        path = files / f"header{lineno}.fpres"
        path.write_text(header)
        code, _, err = run_cli("minimize", str(path))
        assert code == 1 and f"line {lineno}" in err and "Traceback" not in err

    def test_huge_multiplicity_exits_one_with_line(self, files):
        # expanding 10^12 bars raised MemoryError
        path = files / "big.bars"
        path.write_text("bar 0 1 1000000000000\n")
        code, out, err = run_cli("bottleneck", str(path), str(files / "B2.bars"))
        assert code == 1 and not out and "line 1:" in err and "Traceback" not in err

    def test_bare_joint_epsilon_exits_one_with_line(self, files):
        path = files / "bare.joint"
        path.write_text("epsilon\n")
        code, _, err = run_cli("interpolate", str(path), "--t", "1/2")
        assert code == 1 and "line 1" in err and "Traceback" not in err

    @pytest.mark.parametrize("second, lineno", [
        ("fpres 1\nfield 4\nparams 1\ngenerators 0\nrelations 0\n", 9),
        # at t = 1 the first block's generator sits at 1, above the relation
        ("fpres 1\nfield 2\nparams 1\ngenerators 0\nrelations 1\nr 0 ; 1:0\n", 13),
        # blocks that disagree on field or params: the second block's header line
        ("fpres 1\nfield 3\nparams 1\ngenerators 0\nrelations 0\n", 8),
        ("fpres 1\nfield 2\nparams 2\ngenerators 0\nrelations 0\n", 8),
        ("fpres 1\nfield 2\nparams 1\ngenerators 0\nrelations 1\nr 2 ; 1:0 1:0\n", 13),
    ])
    def test_bad_joint_exits_one_with_line(self, files, second, lineno):
        path = files / f"bad{lineno}.joint"
        path.write_text("epsilon 1\nfpres 1\nfield 2\nparams 1\ngenerators 1\ng a 0\nrelations 0\n" + second)
        code, _, err = run_cli("interpolate", str(path), "--t", "1/2")
        assert code == 1 and f"line {lineno}:" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, first, bad, lineno", [
        (["bottleneck"], "B1.bars", "bar 0 1 1\nbar 2 1 1\n", 2),
        (["blocks", "dist"], "A.blocks", "blocks 1\nblk oo 0 2\nblk zz 1 2\n", 3),
        (["blocks", "extend"], None, "blocks 1\nblk oo 0 2\nblk zz 1 2\n", 3),
        # the second block of the joint file has a generator with one coordinate
        (["interpolate", "--t", "1/2"], None, RECT_JOINT.replace("g b0 1 1", "g b0 1"), 15),
        (["verify", "N.fpres", "O.fpres"], None, "witness 1\nf a -> 1:zz\n", 2),
    ])
    def test_format_error_names_the_malformed_file(self, files, tmp_path, capsys, command, first, bad, lineno):
        # the file named last is malformed; the message names it before the line
        path = tmp_path / "malformed"
        path.write_text(bad)
        argv = [str(files / a) if a.endswith(".fpres") else a for a in command]
        argv += [str(files / first)] if first else []
        assert main(argv + [str(path)]) == 1
        out, err = capsys.readouterr()
        assert not out and err.startswith(f"error: {path}: line {lineno}: ") and err.count("\n") == 1

    def test_mersenne_prime_field(self, files):
        code, out, _ = run_cli("minimize", str(files / "mersenne.fpres"))
        assert code == 0 and fio.parse_fpres(out).p == 2 ** 61 - 1

    @pytest.mark.parametrize("argv, message", [
        (["path-length", "N"], "path length needs at least two modules"),
        (["grid-align", "N", "--grid-of", "N", "--kap-eps", "-1/64"], "base budget must be nonnegative"),
        (["grid-align", "N", "--grid-of", "N", "--kap-eps", "1"],
         "grid controlling constant must exceed 40x the base budget (got c=1, budget=1)"),
        (["merge", "N", "--grid", "0 1; 0 1", "--delta", "1/2"],
         "delta 1/2 must be below half the controlling constant 1"),
        (["merge", "N", "--grid", "0 1", "--delta", "0"], "grade dim 2 != grid dim 1"),
        (["simplify", "N", "--eps", "-1"], "eps must be nonnegative"),
        (["barcode", "N", "--direction", "1 1", "--simplify", "-1"], "eps must be nonnegative"),
        (["match-dist", "N", "one"], "matching distance needs matching dimension and field"),
        (["restrict", "N", "--direction", "1 -1"], "line direction components must all be positive"),
        (["restrict", "N", "--direction", "1 1", "--base", "0 1"], "line base must lie on the hyperplane {x_n = 0}"),
        (["hilbert", "N", "--at", "1"], "grade dimension 1 != 2"),
        (["lower-bound", "N", "O", "--probe", "1"], "probe (1) has dimension 1, expected 2"),
        (["interpolate", "J.joint", "--t", "2"], "interpolation parameter 2 outside [0, 1]"),
    ])
    def test_conflicting_or_dependent_arguments_exit_one(self, files, capsys, argv, message):
        # values each parse, but not together or not for this input: one error line, no usage
        names = {"N": "N.fpres", "O": "O.fpres", "one": "one.fpres", "J.joint": "J.joint"}
        assert main([str(files / names[a]) if a in names else a for a in argv]) == 1
        out, err = capsys.readouterr()
        assert not out and err == f"error: {message}\n"


# tests/golden: a 3-summand F2 module and its jittered copy (jitter_module,
# amount 1/2), and two entangled presentations of another one, drawn by
# clibench/gen.py's staircase_sum and entangle from random.Random(2501)
# and random.Random(2502); f3.joint, the joint file of a 2-summand F3
# staircase sum jittered by 1/3 and its translate by 1/2 (translate_joint,
# random.Random(2801)); f3_M and f3_B, a 2-summand F3 staircase sum and
# an entangled presentation of its jitter by 1/3 (random.Random(2901):
# staircase_sum, jitter_module, entangle); and the *.out files, the
# expected stdout of the rows too long to write inline (grid-align's: its
# stdout only)
GOLDEN = Path(__file__).resolve().parent / "golden"
# files the golden runs read besides the fixtures and the seeded pairs in tests/golden
GOLDEN_INPUTS = {
    "mixed1.bars": "bar 0 10 1\nbar 0 1 1\nbar 1/2 inf 2\nbar 3 7/2 3\n",
    "mixed2.bars": "bar 1 9 1\nbar 0 inf 1\nbar 2/3 inf 1\nbar 3 4 2\nbar 5 6 1\n",
    "empty.bars": "",
    "inf.bars": "bar 0 inf 1\nbar 1/3 2/3 2\n",
    "line.fpres": "fpres 1\nfield 3\nparams 1\ngenerators 4\ng a 0\ng b 1/3\ng c 1/2\ng d 2/7\nrelations 3\n"
                  "r 5/6 ; 1:0 2:1\nr 7/4 ; 1:1 1:2\nr 9/14 ; 2:3\n",
    "cube.fpres": "fpres 1\nfield 2\nparams 3\ngenerators 2\ng a 0 0 0\ng b 1 1/2 0\nrelations 1\nr 2 2 1 ; 1:0 1:1\n",
    "cube_shift.fpres": "fpres 1\nfield 2\nparams 3\ngenerators 2\ng a 0 1/3 0\ng b 1 1/2 1/5\nrelations 1\n"
                        "r 2 3 1 ; 1:0 1:1\n",
    # the identity witness of the jittered pair, and a witness of the F3 pair
    # that sends each summand of f3_M to its jittered copy in f3_B and each
    # generator of f3_B to its class in f3_M
    "jitter.wit": "witness 1/2\n" + "".join(f"{s} g{i} -> 1:g{i}\n" for s in "fg" for i in range(5)),
    "f3.wit": "witness 1/3\nf g0 -> 1:g6\nf g1 -> 1:g5\nf g2 -> 1:g3\nf g3 -> 1:g2\n"
              "g g0 -> 2:g0\ng g1 -> 1:g3 2:g0\ng g2 -> 1:g3\ng g3 -> 1:g2\ng g4 -> 1:g0\n"
              "g g5 -> 1:g1\ng g6 -> 1:g0\ng g7 -> 2:g3 1:g1\n",
    # witnesses of the jittered pair that verify rejects, one reason each:
    # the identity at -1/2 and at 1/8; an f coefficient 2 listed after g rows
    # that violate grades (f's entries are checked first); an f row whose
    # later target violates grades and whose earlier one has coefficient 2
    # (a row's targets are checked in increasing order); the identity without
    # the row of g3, a generator of the relation at (9, 9); and no rows at all
    "negative.wit": "witness -1/2\n" + "".join(f"{s} g{i} -> 1:g{i}\n" for s in "fg" for i in range(5)),
    "eighth.wit": "witness 1/8\n" + "".join(f"{s} g{i} -> 1:g{i}\n" for s in "fg" for i in range(5)),
    "coefficient.wit": "witness 1/2\ng g0 -> 1:g0\ng g1 -> 1:g0 1:g1\ng g2 -> 1:g2\ng g3 -> 1:g3\ng g4 -> 1:g4\n"
                       "f g0 -> 1:g0\nf g1 -> 1:g1\nf g2 -> 1:g2\nf g3 -> 2:g3\nf g4 -> 1:g4\n",
    "f-grades.wit": "witness 1/2\nf g0 -> 1:g0\nf g1 -> 2:g1 1:g0\nf g2 -> 1:g2\nf g3 -> 1:g3\nf g4 -> 1:g4\n"
                    + "".join(f"g g{i} -> 1:g{i}\n" for i in range(5)),
    "no-g3.wit": "witness 1/2\n" + "".join(f"{s} g{i} -> 1:g{i}\n" for s in "fg" for i in range(5)
                                           if (s, i) != ("g", 3)),
    "header.wit": "witness 1/2\n",
    # a one-generator free module and the zero module
    "free1.fpres": "fpres 1\nfield 2\nparams 2\ngenerators 1\ng a 0 0\nrelations 0\n",
    "zero.fpres": "fpres 1\nfield 2\nparams 2\ngenerators 0\nrelations 0\n",
}


@pytest.mark.parametrize("argv, want", [
    ("match-dist N O --lines 4 --emit-argmax",
     "matching-distance 0 (0.000000)\nkind lower_bound\nlines 75\n"),
    ("match-dist N O --lines 4 --emit-argmax --adaptive 2",
     "matching-distance 0 (0.000000)\nkind lower_bound\nlines 75\n"),
    ("match-dist jitter_M jitter_J --lines 8 --emit-argmax",
     "matching-distance 1/2 (0.500000)\nkind lower_bound\nlines 381\nargmax line dir=(1/16,1) base=(-3645/128,0)\n"),
    ("match-dist jitter_M jitter_J --lines 8 --emit-argmax --adaptive 2",
     "matching-distance 1/2 (0.500000)\nkind lower_bound\nlines 381\nargmax line dir=(1/16,1) base=(-3645/128,0)\n"),
    ("match-dist jitter_M jitter_J --lines 8 --seed 5 --extra 8 --emit-argmax",
     "matching-distance 1/2 (0.500000)\nkind lower_bound\nlines 389\nargmax line dir=(1/16,1) base=(-3645/128,0)\n"),
    ("path-length jitter_M jitter_J jitter_M", "path-length 1 (1.000000)\n"),
    ("match-dist entangled_A entangled_B --lines 4 --seed 5 --extra 8",
     "matching-distance 0 (0.000000)\nkind lower_bound\nlines 125\n"),
    ("match-dist entangled_A entangled_B --lines 4 --seed 5 --extra 8 --adaptive 2",
     "matching-distance 0 (0.000000)\nkind lower_bound\nlines 125\n"),
    ("match-dist entangled_A entangled_B --lines 16", "matching-distance 0 (0.000000)\nkind lower_bound\nlines 393\n"),
    ("match-dist f3_M f3_B --lines 8 --emit-argmax",
     "matching-distance 1/3 (0.333333)\nkind lower_bound\nlines 314\nargmax line dir=(1,2/17) base=(-411/2,0)\n"),
    ("match-dist cube cube_shift --seed 3 --extra 12 --emit-argmax --adaptive 2",
     "matching-distance 1 (1.000000)\nkind lower_bound\nlines 49\n"
     "argmax line dir=(7/13,2/13,1) base=(-193/1664,671/1664,0)\n"),
    ("barcode N --direction 1_1 --base 0_0", "bar 1 10 2\n"),
    ("barcode O --direction 1_2 --through 1_1", "bar 1 10 2\n"),
    ("barcode jitter_M --direction 2_1 --base 1/3_0", "bar 6 42 1\nbar 12 42 1\nbar 12 48 1\n"),
    ("barcode entangled_A --direction 1_1 --through 3/2_1 --simplify 3",
     "bar 6 18 1\nbar 6 21 1\nbar 17/2 47/2 1\n"),
    ("barcode cube --direction 1_2_3 --through 1/2_1/3_1/4", "bar 0 inf 1\nbar 7/4 19/4 1\n"),
    ("bottleneck mixed1.bars mixed2.bars", "bottleneck 1 (1.000000)\n"),
    ("bottleneck mixed1.bars mixed1.bars", "bottleneck 0 (0.000000)\n"),
    ("bottleneck empty.bars inf.bars", "bottleneck inf\n"),
    ("bottleneck empty.bars inf.bars --format tabular", "bottleneck\tinf\n"),
    ("bottleneck empty.bars empty.bars", "bottleneck 0 (0.000000)\n"),
    ("barcode line --simplify 1/4", "bar 0 inf 1\nbar 2/7 11/28 1\nbar 1/3 7/12 1\nbar 1/2 3/2 1\n"),
    ("interpolate f3 --t 0", GOLDEN / "f3_t0.out"),
    ("interpolate f3 --t 1/3", GOLDEN / "f3_t1-3.out"),
    ("interpolate f3 --t 1", GOLDEN / "f3_t1.out"),
    ("experiment example31", GOLDEN / "example31.out"),
    ("experiment local-equiv", GOLDEN / "local-equiv.out"),
    ("minimize jitter_J", GOLDEN / "jitter_J_minimize.out"),
    ("minimize f3_B", GOLDEN / "f3_B_minimize.out"),
    ("minimize entangled_B", GOLDEN / "entangled_B_minimize.out"),
    ("merge f3_B --grid-of f3_M --delta 1/64", GOLDEN / "f3_B_merge.out"),
    ("betti jitter_J", GOLDEN / "jitter_J_betti.out"),
    ("betti f3_B", GOLDEN / "f3_B_betti.out"),
    ("betti entangled_B", GOLDEN / "entangled_B_betti.out"),
    ("hilbert jitter_J --at 9_9", "3\n"),
    ("hilbert f3_B --at 9_9", "4\n"),
    ("simplify jitter_J --eps 3", GOLDEN / "jitter_J_simplify3.out"),
    ("simplify jitter_J --eps 3 --raw", GOLDEN / "jitter_J_simplify3_raw.out"),
    ("simplify f3_B --eps 1/2", GOLDEN / "f3_B_simplify1-2.out"),
    ("simplify f3_B --eps 1/2 --raw", GOLDEN / "f3_B_simplify1-2_raw.out"),
    ("grid-align jitter_J --grid-of jitter_M --kap-eps 1/64", GOLDEN / "jitter_J_grid-align.out"),
    ("grid-align f3_B --grid-of f3_M --kap-eps 1/64", GOLDEN / "f3_B_grid-align.out"),
    ("verify jitter_M jitter_J jitter.wit", "accept at epsilon 1/2\n"),
    ("verify f3_M f3_B f3.wit", "accept at epsilon 1/3\n"),
    ("lower-bound jitter_M jitter_J", "interleaving-lower-bound 1/2 (0.500000)\nkind lower_bound\n"),
    ("lower-bound f3_M f3_B", "interleaving-lower-bound 1/4 (0.250000)\nkind lower_bound\n"),
    ("lower-bound entangled_A entangled_B", "interleaving-lower-bound 0 (0.000000)\nkind lower_bound\n"),
    ("lower-bound N O", "interleaving-lower-bound 1 (1.000000)\nkind lower_bound\n"),
    ("lower-bound jitter_M jitter_J --probe 1/3_7/5 --probe 40_2",
     "interleaving-lower-bound 1/2 (0.500000)\nkind lower_bound\n"),
    ("lower-bound f3_M f3_B --format tabular", "interleaving-lower-bound\t1/4\t0.250000\nkind\tlower_bound\n"),
    ("lower-bound free1 zero", "interleaving-lower-bound inf\nkind lower_bound\n"),
])
def test_golden_stdout(argv, want, tmp_path, capsys):
    # the exact stdout of the distance and barcode commands on the example-3.1
    # pair (N, O), a seeded jittered pair, a seeded pair of entangled
    # presentations of one module, a seeded F3 pair, a 3-parameter pair, a
    # 1-parameter F3 module with unlike denominators and barcode files (empty
    # ones included), of interpolate on a joint file, of two experiments, and
    # of the commands that print modules, Betti data, ranks and certificates
    # on the jittered, entangled and F3 pairs; '_' separates the coordinates of one
    # grade, and a Path names a file holding the stdout
    assert _golden_main(argv, tmp_path) == 0
    assert capsys.readouterr().out == (want.read_text() if isinstance(want, Path) else want)


@pytest.mark.parametrize("argv, want", [
    ("verify jitter_M jitter_J negative.wit", "negative epsilon"),
    ("verify jitter_M jitter_J coefficient.wit", "f coefficient 2 out of range"),
    ("verify jitter_M jitter_J eighth.wit", "g entry g0 -> g0 violates grades"),
    ("verify jitter_M jitter_J f-grades.wit", "f entry g1 -> g0 violates grades"),
    ("verify jitter_M jitter_J no-g3.wit", "g sends relation 2 (grade 9 9) outside the relation submodule"),
    ("verify jitter_M jitter_J header.wit", "coherence g.f fails at generator g0"),
    ("verify jitter_M f3_M header.wit", "dimension or field mismatch"),
])
def test_golden_verify_rejections(argv, want, tmp_path, capsys):
    # verify's stdout and exit 2 on witnesses it rejects: the reason printed
    # is the first failure in the order the entries are checked
    eps = GOLDEN_INPUTS[argv.split()[-1]].split()[1]
    assert _golden_main(argv, tmp_path) == 2
    assert capsys.readouterr().out == f"reject at epsilon {eps}: {want}\n"


def _golden_main(argv: str, tmp_path) -> int:
    """main on a golden row's arguments, with its input files written to tmp_path."""
    for name, text in GOLDEN_INPUTS.items():
        (tmp_path / name).write_text(text)
    paths = {"N": FIXTURES / "example31_N.fpres", "O": FIXTURES / "example31_O.fpres",
             "cube": tmp_path / "cube.fpres", "cube_shift": tmp_path / "cube_shift.fpres",
             "line": tmp_path / "line.fpres", "free1": tmp_path / "free1.fpres", "zero": tmp_path / "zero.fpres"}
    seeded = ("jitter_M", "jitter_J", "entangled_A", "entangled_B", "f3_M", "f3_B")
    paths.update({name: GOLDEN / f"{name}.fpres" for name in seeded})
    paths["f3"] = GOLDEN / "f3.joint"

    def arg(a):
        if a in paths:
            return str(paths[a])
        return str(tmp_path / a) if a.endswith((".bars", ".wit")) else a.replace("_", " ")

    return main([arg(a) for a in argv.split()])


def test_distances_are_symmetric_and_below_accepted_identity_witnesses(tmp_path, capsys):
    # metamorphic checks on seeded pairs: match-dist prints one value both
    # ways, and an identity witness that verify accepts at eps bounds the
    # match-dist and lower-bound values by eps
    def value(*argv):
        assert main([str(a) for a in argv]) == 0
        return F(capsys.readouterr().out.split()[1])

    rng = random.Random(86)
    pairs = [(free([g(0, 0, 0), g(1, F(1, 2), 0)]), free([g(0, F(1, 3), 0), g(1, F(1, 2), F(1, 5))]), True)]
    for p in (2, 3):
        P = random_module(rng, p=p)
        pairs += [(P, jitter_module(P, rng, F(1, 2)), True), (P, shift(P, [F(1, 3), F(-1, 4)]), True),
                  (P, random_module(rng, p=p), False)]
    verdicts = []
    for n, (P, Q, related) in enumerate(pairs):
        a, b, w = tmp_path / f"{n}A.fpres", tmp_path / f"{n}B.fpres", tmp_path / f"{n}W.txt"
        a.write_text(fio.serialize_fpres(P))
        b.write_text(fio.serialize_fpres(Q))
        d = value("match-dist", a, b, "--lines", 2)
        assert value("match-dist", b, a, "--lines", 2) == d, n
        if not related:
            continue
        low = value("lower-bound", a, b)
        for eps in (F(1, 4), F(1, 3), F(1, 2), F(3, 4)):
            w.write_text("\n".join([f"witness {eps}"] + [f"{side} {x} -> 1:{x}" for side in "fg" for x in P.labels]))
            verdicts.append(main(["verify", str(a), str(b), str(w)]))
            capsys.readouterr()
            if verdicts[-1] == 0:
                assert d <= eps and low <= eps, (n, eps)
    assert set(verdicts) == {0, 2}


def test_fpres_round_trip_and_minimize_through_the_cli(tmp_path, capsys):
    # metamorphic checks on seeded non-minimal F2, F3 and F5 modules: parsing
    # an FPRES text gives back the module it was written from, minimize run
    # on its own output prints the same text, and the minimal form has the
    # raw module's hilbert value at each of the raw module's Betti grades
    def run(*argv):
        assert main([str(a) for a in argv]) == 0
        return capsys.readouterr().out

    rng = random.Random(88)
    for p in (2, 3, 5):
        P = entangled(random_module(rng, p=p), rng)
        raw, least = tmp_path / f"raw{p}.fpres", tmp_path / f"least{p}.fpres"
        raw.write_text(fio.serialize_fpres(P))
        assert fio.parse_fpres(raw.read_text()) == P
        text = run("minimize", raw)
        least.write_text(text)
        assert fio.parse_fpres(text) == P.minimal and len(P.minimal.gens) < len(P.gens)
        assert run("minimize", least) == text
        for x in betti_grades(P):
            at = "--at=" + " ".join(map(rat_str, x.coords))
            assert run("hilbert", raw, at) == run("hilbert", least, at), (p, x)


def test_minimal_output_ignores_relation_order_and_row_operations(tmp_path, capsys):
    # metamorphic checks of the canonical minimal form on seeded entangled
    # F2, F3 and F5 sums of 1 to 4 staircases: shuffling a file's relations,
    # or adding to one relation a multiple of another at a lower or equal
    # grade, keeps the relation submodule, so minimize, betti and simplify
    # (minimised) print the same (simplify --raw keeps the input order)
    def run(path):
        outs = []
        for argv in (["minimize"], ["betti"], ["simplify", "--eps", "1/2"], ["simplify", "--eps", "3"]):
            assert main([argv[0], str(path), *argv[1:]]) == 0
            outs.append(capsys.readouterr().out)
        return outs

    rng = random.Random(36)
    for k in range(60):
        P = entangled(random_module(rng, p=(2, 3, 5)[k % 3], summands=4), rng)
        n, p, scale, labels, G, R, cols = P.n, P.p, P.scale, P.labels, P.scaled_gens, P.scaled_rels, list(P.cols)
        order = rng.sample(range(len(R)), len(R))
        shuffled = Presentation.from_integers(n, p, scale, labels, G, [R[j] for j in order], [cols[j] for j in order])
        i, j = rng.choice([(i, j) for i in range(len(R)) for j in range(len(R)) if i != j and leq(R[j], R[i])])
        c, row = rng.randint(1, p - 1), dict(cols[i])
        for gen, d in cols[j]:
            row[gen] = (row.get(gen, 0) + c * d) % p
        cols[i] = tuple(sorted((gen, d) for gen, d in row.items() if d))
        combined = Presentation.from_integers(n, p, scale, labels, G, R, cols)
        outs = []
        for name, Q in (("P", P), ("shuffled", shuffled), ("combined", combined)):
            path = tmp_path / f"{name}.fpres"
            path.write_text(fio.serialize_fpres(Q))
            outs.append(run(path))
        assert outs[0] == outs[1] == outs[2], k


def test_load_reads_with_the_parser_bound_at_the_call(tmp_path, monkeypatch, capsys):
    # a wrapper put on fio.parse_fpres after the CLI is imported sees its one read
    path = tmp_path / "M.fpres"
    path.write_text(fio.serialize_fpres(free([g(0, 0), g(1, 2)])))
    calls, parse = [], fio.parse_fpres
    monkeypatch.setattr(fio, "parse_fpres", lambda text: calls.append(text) or parse(text))
    assert main(["minimize", str(path)]) == 0
    assert calls == [path.read_text()] and capsys.readouterr().out == calls[0]


POINT = "fpres 1\nfield 2\nparams 2\ngenerators 1\ng a 0 0\nrelations 0\n"


@pytest.mark.parametrize("kind, text, message", [
    ("fpres", "", "line 1: unexpected end of file, wanted 'fpres 1' header"),
    ("fpres", "# nothing\n\n", "line 1: unexpected end of file, wanted 'fpres 1' header"),
    ("fpres", "fpres 1\nfield 2\n\n# end\nparams 2\n# c\n", "line 5: unexpected end of file, wanted 'generators <k>'"),
    ("fpres", "fpres 1\nfield 2\nparams 2\ngenerators 2\ng a 0 0\n",
     "line 5: unexpected end of file, wanted generator line"),
    ("fpres", POINT + "\n# x\nfoo bar # baz\n", "line 9: trailing content 'foo bar'"),
    ("joint", "epsilon 1\n" + POINT, "line 7: unexpected end of file, wanted 'fpres 1' header"),
    ("joint", "epsilon 1\n" + POINT + POINT + "fpres 1\n", "line 14: trailing content 'fpres 1'"),
    ("blocks", "\n", "line 1: unexpected end of file, wanted 'blocks 1' header"),
    ("witness", "# only a comment\n", "line 1: unexpected end of file, wanted 'witness <epsilon>' header"),
])
def test_end_of_file_and_trailing_content_name_their_line(kind, text, message):
    # a file that ends early names its last meaningful line (line 1 when it
    # has none), and content after the last block names its first line
    P = fio.parse_fpres(POINT)
    read = (lambda t: fio.parse_witness(t, P, P)) if kind == "witness" else getattr(fio, f"parse_{kind}")
    with pytest.raises(fio.FormatError) as exc:
        read(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("kind", ["fpres", "bars"])
def test_parsing_reads_each_distinct_rational_once(kind, monkeypatch):
    # 10^5 lines whose coordinates are 20 rationals with 30-digit
    # denominators: grades.ratio reads each of the 20 once, however often it
    # repeats, and the bars' inf deaths not at all
    rng = random.Random(31)
    values = sorted({F(rng.randrange(-10 ** 31, 10 ** 31), rng.randrange(10 ** 29, 10 ** 30)) for _ in range(20)})
    assert len(values) == 20
    toks = [rat_str(v) for v in values]
    count = 10 ** 5
    if kind == "fpres":
        rows = [f"g x{k} {rng.choice(toks)} {rng.choice(toks)}" for k in range(count)]
        text = "\n".join(["fpres 1", "field 2", "params 2", f"generators {count}", *rows, "relations 0"]) + "\n"
    else:
        rows = []
        for _ in range(count):
            b, d = sorted(rng.sample(range(20), 2))
            rows.append(f"bar {toks[b]} {'inf' if rng.random() < 0.2 else toks[d]} 1")
        text = "\n".join(rows) + "\n"
    reads, ratio = [], fio.ratio
    monkeypatch.setattr(fio, "ratio", lambda t: reads.append(t) or ratio(t))
    if kind == "fpres":
        P = fio.parse_fpres(text)
        assert len(P.labels) == count and not P.cols
    else:
        B = fio.parse_barcode(text)
        assert sum(m for _, _, m in B.bars) == count
        assert sum(m for _, d, m in B.bars if d == math.inf) == text.count(" inf ")
    assert sorted(reads) == sorted(toks)


# every parser: the top one, its 16 subcommands and the 5 nested ones
PARSER_PATHS = ["", "minimize", "betti", "hilbert", "merge", "simplify", "grid-align", "restrict", "barcode",
                "match-dist", "bottleneck", "verify", "lower-bound", "interpolate", "path-length", "blocks",
                "experiment", "blocks extend", "blocks dist", "experiment example31", "experiment local-equiv",
                "experiment sandwich"]


def test_usage_of_every_parser(monkeypatch, capsys):
    # an unknown option exits 1 with the usage of the parser that got it;
    # usage lists options in the order they were added, so a reordered or
    # dropped option shows here.  -h is left out: argparse lays out help
    # text differently across Python versions
    monkeypatch.setenv("COLUMNS", "80")
    got = []
    for path in PARSER_PATHS:
        argv = [*path.split(), "--bogus"]
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        out, err = capsys.readouterr()
        assert not out, path
        got.append(f"$ multipres {' '.join(argv)}\nexit {exit_.value.code}\n{err}")
    assert "".join(got) == (GOLDEN / "usage.err").read_text()
