"""Command-line front end.

Exit codes: 0 on success, 1 on input errors (parsing, validation, bad
arguments), 2 when an experiment or verification fails.  Reports print
exact rationals first with 6-place decimal approximations in parentheses,
and identical configuration plus seed gives byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import experiments, fio
from .fibered import barcode, restrict, simplify_barcode
from .functors import grid_align, interpolate, merge_module, simplify
from .grades import Grade, GridFunction, LineSpec, integer, rat, rat_dec, rat_str, unit_direction
from .metrics import (
    bottleneck,
    matching_distance,
    path_length_d0,
    rank_lower_bound,
    sample_lines,
    verify_interleaving,
)
from .presentation import PresentationError, betti_and_grid
from .blocks import block_matching_distance, extend_block

INF = math.inf


def _load(path: str, parse=None):
    """The file's text read by parse, by default fio.parse_fpres as it is at the
    call; an unreadable file and a format error (line N: ...) both name the path."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return (parse or fio.parse_fpres)(text)
    except fio.FormatError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _parse_grade(text: str) -> Grade:
    try:
        return Grade([rat(tok) for tok in text.replace(",", " ").split()])
    except ValueError as exc:
        raise ValueError(f"bad grade {text!r}: {exc}") from exc


def _parse_grid(args) -> GridFunction:
    """The grid of --grid or --grid-of, which argparse lets through one at a time."""
    if args.grid_of:
        return betti_and_grid(_load(args.grid_of)).grid
    try:
        axes = [
            [rat(tok) for tok in axis.replace(",", " ").split()]
            for axis in args.grid.split(";")
        ]
        return GridFunction(axes)
    except ValueError as exc:
        raise ValueError(f"bad grid {args.grid!r}: {exc}") from exc


def _parse_line(args, n: int) -> LineSpec:
    try:
        direction = [rat(tok) for tok in args.direction.replace(",", " ").split()]
    except ValueError as exc:
        raise ValueError(f"bad direction {args.direction!r}: {exc}") from exc
    if len(direction) != n:
        raise ValueError(f"direction needs {n} components")
    if args.through:
        return LineSpec.through(_parse_grade(args.through), direction)
    base = _parse_grade(args.base) if args.base else Grade([0] * n)
    return LineSpec(unit_direction(direction), base)


def _rational(text: str) -> Fraction:
    try:
        return rat(text)
    except ValueError as exc:
        raise ValueError(f"bad rational {text!r}") from exc


def _report(args, rows: list[tuple[str, object]]) -> None:
    """Emit (key, value) rows as prose or as tab-separated key/exact/decimal."""
    tabular = getattr(args, "format", "text") == "tabular"
    sep = "\t" if tabular else " "
    out = []
    for key, value in rows:
        if isinstance(value, Fraction) or value in (INF, -INF):
            if tabular:
                dec = "" if value in (INF, -INF) else f"{float(value):.6f}"
                out.append(f"{key}\t{rat_str(value)}\t{dec}".rstrip())
            else:
                out.append(f"{key} {rat_dec(value)}")
        else:
            out.append(f"{key}{sep}{value}")
    print("\n".join(out))


# -- subcommand bodies -----------------------------------------------------------


def _cmd_minimize(args) -> int:
    P = _load(args.module)
    _emit(fio.serialize_fpres(P.minimal), args.output)
    return 0


def _cmd_betti(args) -> int:
    data = betti_and_grid(_load(args.module))
    lines = []
    for name, counter in (("xi0", data.xi0), ("xi1", data.xi1)):
        for g in sorted(counter, key=lambda x: x.lex_key()):
            lines.append(f"{name} {g} x{counter[g]}")
    for i, axis in enumerate(data.grid.axes):
        lines.append(f"axis {i} " + " ".join(rat_str(v) for v in axis))
    lines.append(f"controlling-constant {rat_str(data.c)}")
    lines.append(f"partial-complexity {data.partial_complexity}")
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_hilbert(args) -> int:
    P = _load(args.module)
    a = _parse_grade(args.at)
    print(P.hilbert(a))
    return 0


def _cmd_merge(args) -> int:
    P = _load(args.module)
    grid = _parse_grid(args)
    out = merge_module(P, grid, _rational(args.delta), args.variant,
                       minimized=not args.raw)
    _emit(fio.serialize_fpres(out), args.output)
    return 0


def _cmd_simplify(args) -> int:
    P = _load(args.module)
    out = simplify(P, _rational(args.eps), minimized=not args.raw)
    _emit(fio.serialize_fpres(out), args.output)
    return 0


def _cmd_grid_align(args) -> int:
    P = _load(args.module)
    grid = _parse_grid(args)
    result = grid_align(P, grid, _rational(args.kap_eps))
    _emit(fio.serialize_fpres(result.module), args.output)
    print(f"# certified interleaving budget {rat_dec(result.budget)}", file=sys.stderr)
    return 0


def _cmd_restrict(args) -> int:
    P = _load(args.module)
    line = _parse_line(args, P.n)
    _emit(fio.serialize_fpres(restrict(P, line)), args.output)
    return 0


def _cmd_barcode(args) -> int:
    P = _load(args.module)
    if P.n == 1:
        given = [f"--{name}" for name in ("direction", "base", "through") if getattr(args, name)]
        if given:
            args.usage_error(f"a 1-parameter module takes no {', '.join(given)}")
    elif not args.direction:
        raise ValueError("multiparameter module: pass --direction (and --base/--through) to restrict first")
    else:
        P = restrict(P, _parse_line(args, P.n))
    B = barcode(P)
    if args.simplify is not None:
        B = simplify_barcode(B, _rational(args.simplify))
    _emit(fio.serialize_barcode(B), args.output)
    return 0


def _cmd_match_dist(args) -> int:
    P = _load(args.module)
    Q = _load(args.other)
    sample = sample_lines(P, Q, slopes=args.lines, seed=args.seed, extra=args.extra)
    report = matching_distance(P, Q, sample=sample, adaptive_rounds=args.adaptive)
    rows = [("matching-distance", report.value), ("kind", report.kind),
            ("lines", len(sample))]
    if args.emit_argmax and report.argmax_line is not None:
        rows.append(("argmax", str(report.argmax_line)))
    _report(args, rows)
    return 0


def _cmd_bottleneck(args) -> int:
    B1 = _load(args.first, fio.parse_barcode)
    B2 = _load(args.second, fio.parse_barcode)
    _report(args, [("bottleneck", bottleneck(B1, B2))])
    return 0


def _cmd_verify(args) -> int:
    P, Q = _load(args.module), _load(args.other)
    for path, M in ((args.module, P), (args.other, Q)):
        try:
            fio.label_index(M)
        except PresentationError as exc:
            raise ValueError(f"{path}: {exc}") from None
    w = _load(args.witness, lambda text: fio.parse_witness(text, P, Q))
    report = verify_interleaving(P, Q, w)
    print(report.render())
    return 0 if report.accepted else 2


def _cmd_lower_bound(args) -> int:
    P = _load(args.module)
    Q = _load(args.other)
    probes = [_parse_grade(s) for s in args.probe] if args.probe else None
    report = rank_lower_bound(P, Q, probes)
    _report(args, [("interleaving-lower-bound", report.value), ("kind", report.kind)])
    return 0


def _cmd_interpolate(args) -> int:
    J = _load(args.joint, fio.parse_joint)
    out = interpolate(J, _rational(args.t))
    _emit(fio.serialize_fpres(out), args.output)
    return 0


def _cmd_path_length(args) -> int:
    mods = [_load(p) for p in args.modules]
    total = path_length_d0(mods, slopes=args.lines)
    _report(args, [("path-length", total)])
    return 0


def _cmd_blocks(args) -> int:
    A = _load(args.first, fio.parse_blocks)
    if args.blocks_cmd == "extend":
        lines = []
        for blk in A:
            r = extend_block(blk)
            u1, u2 = r.upper
            lines.append(
                f"rect {blk.kind} [{rat_str(r.lower.coords[0])}, {rat_str(u1)}) x "
                f"[{rat_str(r.lower.coords[1])}, {rat_str(u2)})"
            )
        _emit("\n".join(lines), None)
        return 0
    B = _load(args.second, fio.parse_blocks)
    _report(args, [("block-matching-distance", block_matching_distance(A, B))])
    return 0


def _cmd_experiment(args) -> int:
    if args.experiment == "example31":
        report = experiments.run_example31(min_lines=args.lines)
    elif args.experiment == "local-equiv":
        report = experiments.run_local_equiv(seed=args.seed, instances=args.instances)
    else:
        report = experiments.run_sandwich(seed=args.seed, cases=args.instances * 10)
    print(report.render())
    return 0 if report.passed else 2


MAX_COUNT = 4096  # of any count option: match-dist --lines 4096 takes 4 s on example 3.1


def _count(least: int = 0):
    """argparse type for an integer count of at least least and at most MAX_COUNT."""

    def parse(text: str) -> int:
        try:
            value = integer(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid count {text!r}") from None
        if not least <= value <= MAX_COUNT:
            raise argparse.ArgumentTypeError(f"count {value} is outside [{least}, {MAX_COUNT}]")
        return value

    return parse


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad argument with the usage and exit 1, like any input error.

    Each parser reports the arguments it does not know itself, so an unknown
    option of a subcommand shows that subcommand's usage; argparse would
    hand them up to the top parser, whose usage names no subcommand.
    A negative rational such as '-1/2' is a value, as argparse takes '-1'
    and '-.5' to be, not an unknown option.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def parse_known_args(self, args=None, namespace=None):
        namespace, rest = super().parse_known_args(args, namespace)
        if rest:
            self.error(f"unrecognized arguments: {' '.join(rest)}")
        return namespace, rest

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _command(sub, name: str, func, help_: str, *positionals: str, output: bool = False):
    """The parser of a subcommand that runs func: its positionals, then -o when it writes a file."""
    p = sub.add_parser(name, help=help_)
    for positional in positionals:
        p.add_argument(positional)
    if output:
        p.add_argument("-o", "--output")
    p.set_defaults(func=func)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every main call."""
    top = _ArgumentParser(
        prog="multipres",
        description="finitely presented multiparameter persistence modules",
        epilog="identical flags and seed give byte-identical reports",
    )
    sub = top.add_subparsers(dest="command", required=True)
    _command(sub, "minimize", _cmd_minimize, "emit a minimal presentation", "module", output=True)
    _command(sub, "betti", _cmd_betti, "Betti multisets, grid and controlling constant", "module", output=True)

    p = _command(sub, "hilbert", _cmd_hilbert, "pointwise dimension at a grade", "module")
    p.add_argument("--at", required=True, help="grade, e.g. '1 1/2'")

    def grid_options(p):
        grid = p.add_mutually_exclusive_group(required=True)
        grid.add_argument("--grid", help="axis lists, e.g. '0 1; 0 3'")
        grid.add_argument("--grid-of", help="use this module's Betti grid")

    p = _command(sub, "merge", _cmd_merge, "snap grades onto a grid", "module", output=True)
    grid_options(p)
    p.add_argument("--delta", required=True)
    p.add_argument("--variant", choices=["two_sided", "plus", "minus"], default="two_sided")
    p.add_argument("--raw", action="store_true", help="skip minimization")

    p = _command(sub, "simplify", _cmd_simplify, "delete features shorter than eps", "module", output=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--raw", action="store_true", help="skip minimization")

    p = _command(sub, "grid-align", _cmd_grid_align, "pull Betti grades onto a grid", "module", output=True)
    grid_options(p)
    p.add_argument("--kap-eps", required=True, help="base step budget")

    p = _command(sub, "restrict", _cmd_restrict, "1-parameter restriction to a line", "module", output=True)
    p.add_argument("--direction", required=True, help="positive components, e.g. '1 2'")
    point = p.add_mutually_exclusive_group()
    point.add_argument("--base", help="base point with last coordinate 0")
    point.add_argument("--through", help="any point the line should pass through")

    p = _command(sub, "barcode", _cmd_barcode, "barcode of a 1-parameter module or restriction", "module",
                 output=True)
    p.add_argument("--direction", help="restrict first when the module is multiparameter")
    point = p.add_mutually_exclusive_group()
    point.add_argument("--base")
    point.add_argument("--through")
    p.add_argument("--simplify", help="apply barcode simplification at this eps")
    p.set_defaults(usage_error=p.error)

    p = _command(sub, "match-dist", _cmd_match_dist, "sampled matching distance", "module", "other")
    p.add_argument("--lines", type=_count(), default=64, help="slope count of the sampling grid")
    p.add_argument("--adaptive", type=_count(), default=0, help="refinement rounds")
    p.add_argument("--seed", type=integer, help="seed for jittered extra lines (needs --extra)")
    p.add_argument("--extra", type=_count(), default=0, help="jittered lines to append (needs --seed)")
    p.add_argument("--emit-argmax", action="store_true")
    p.add_argument("--format", choices=["text", "tabular"], default="text")

    p = _command(sub, "bottleneck", _cmd_bottleneck, "exact bottleneck distance of two barcode files",
                 "first", "second")
    p.add_argument("--format", choices=["text", "tabular"], default="text")

    _command(sub, "verify", _cmd_verify, "check an interleaving witness", "module", "other", "witness")

    p = _command(sub, "lower-bound", _cmd_lower_bound,
                 "certified interleaving lower bound from rank conditions at points and over staircase "
                 "intervals (the incompleteness pair: 1, so its d_I is certified in [1, 1])", "module", "other")
    p.add_argument("--probe", action="append", help="extra probe grade, repeatable")
    p.add_argument("--format", choices=["text", "tabular"], default="text")

    p = _command(sub, "interpolate", _cmd_interpolate, "waypoint of a joint presentation", "joint")
    p.add_argument("--t", required=True)
    p.add_argument("-o", "--output")

    p = _command(sub, "path-length", _cmd_path_length, "summed matching distance over waypoints")
    p.add_argument("modules", nargs="+")
    p.add_argument("--lines", type=_count(), default=16,
                   help="slope count of the sampling grid for each pair of waypoints")
    p.add_argument("--format", choices=["text", "tabular"], default="text")

    p = sub.add_parser("blocks", help="interlevel-set block operations")
    bsub = p.add_subparsers(dest="blocks_cmd", required=True)
    _command(bsub, "extend", _cmd_blocks, "print the rectangle extensions", "first")
    p = _command(bsub, "dist", _cmd_blocks, "block-matching interleaving distance", "first", "second")
    p.add_argument("--format", choices=["text", "tabular"], default="text")

    p = sub.add_parser("experiment", help="built-in experiment harnesses")
    esub = p.add_subparsers(dest="experiment", required=True)
    p = _command(esub, "example31", _cmd_experiment, "the incompleteness pair: sampled d0 = 0 < d_I")
    p.add_argument("--lines", type=_count(), default=500, help="minimum number of sampled lines")
    for name, help_ in (("local-equiv", "certified diagonal translates and the glued incompleteness pair"),
                        ("sandwich", "extended-rectangle distance within [d, 2d] of the block distance")):
        p = _command(esub, name, _cmd_experiment, help_)
        p.add_argument("--seed", type=integer, default=0)
        p.add_argument("--instances", type=_count(1), default=5)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
