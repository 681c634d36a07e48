"""Seeded benchmark of the multipres CLI operations.

Run from the repository root:

    python3 clibench/run.py --workload match-jitter --seed 1 --seconds 25 --trace 0

The run writes its inputs (FPRES module files and witness files) from the
seed, then replays the workload's operation stream as in-process
``multipres.cli.main(argv)`` calls with stdout captured, pass after pass,
until the time is up.  Every operation's exit code and output are checked.
With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are
reported.  The last line of stdout is one JSON object.  See README.md in
this directory for the workloads, the metrics and the steadiness findings.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# cold imports measured per run for setup_s, after one that fills __pycache__
SETUP_REPEATS = 7
# reference() takes this long at nominal machine speed; every reported time
# is scaled to that speed (see reference() and README.md)
REF_NOMINAL_S = 2e-3
# untraced passes that always run, whatever --seconds says; the tail
# percentile is fixed from this many passes so that it names the same level
# every run
MIN_PASSES = 2

WORKLOADS = ("match-jitter", "match-entangled", "certify-f3")

# per-layer row -> (unit, the end-to-end metric and workload it should move)
PER_LAYER = {
    "metrics.bottleneck_at_most.calls": ("count", "lines_per_s on match-jitter; none on match-entangled"),
    "metrics.bottleneck_at_most.self_s": ("s", "lines_per_s on match-jitter; none on match-entangled"),
    "metrics.prune_ratio": ("ratio", "lines_per_s on match-jitter"),
    "metrics.bottleneck.calls": ("count", "lines_per_s on match-entangled"),
    "metrics.bottleneck.self_s": ("s", "lines_per_s on match-entangled"),
    "metrics.bottleneck.bars": ("count", "lines_per_s on match-entangled"),
    "metrics.matching_distance.self_s": ("s", "lines_per_s on both matching workloads"),
    "fibered.restrict.calls": ("count", "lines_per_s on both matching workloads, more on match-entangled"),
    "fibered.restrict.self_s": ("s", "lines_per_s on both matching workloads, more on match-entangled"),
    "fibered.barcode.calls": ("count", "lines_per_s on match-entangled"),
    "fibered.barcode.self_s": ("s", "lines_per_s on match-entangled"),
    "kernels.reduce_pivots.calls": ("count", "lines_per_s on match-entangled"),
    "kernels.reduce_pivots.self_s": ("s", "lines_per_s on match-entangled"),
    "kernels.reduce_pivots.columns": ("count", "lines_per_s on match-entangled"),
    "metrics.sample_lines.calls": ("count", "op_tail_ms on match-entangled"),
    "metrics.sample_lines.self_s": ("s", "op_tail_ms on match-entangled"),
    "presentation.betti_and_grid.calls": ("count", "op_tail_ms on match-entangled and certify-f3"),
    "presentation.betti_and_grid.self_s": ("s", "op_tail_ms on match-entangled and certify-f3"),
    "presentation.minimize.calls": ("count", "op_tail_ms on match-entangled and certify-f3"),
    "presentation.minimize.self_s": ("s", "op_tail_ms on match-entangled and certify-f3"),
    "functors.simplify_with_witness.calls": ("count", "wall_s and op_tail_ms on certify-f3"),
    "functors.simplify_with_witness.self_s": ("s", "wall_s and op_tail_ms on certify-f3"),
    "functors.merge_with_witness.self_s": ("s", "wall_s and op_tail_ms on certify-f3"),
    "functors.grid_align.self_s": ("s", "wall_s and op_tail_ms on certify-f3"),
    "metrics.verify_interleaving.calls": ("count", "wall_s on certify-f3"),
    "metrics.verify_interleaving.self_s": ("s", "wall_s on certify-f3"),
    "metrics.rank_lower_bound.calls": ("count", "wall_s on certify-f3"),
    "metrics.rank_lower_bound.self_s": ("s", "wall_s on certify-f3"),
    "presentation.hilbert.calls": ("count", "wall_s on certify-f3"),
    "presentation.hilbert.self_s": ("s", "wall_s on certify-f3"),
    "presentation.rank_between.calls": ("count", "wall_s on certify-f3"),
    "presentation.rank_between.self_s": ("s", "wall_s on certify-f3"),
    "kernels.echelonize.calls": ("count", "wall_s on certify-f3"),
    "kernels.echelonize.self_s": ("s", "wall_s on certify-f3"),
    "kernels.echelonize.columns": ("count", "wall_s on certify-f3"),
    "kernels.residual.calls": ("count", "wall_s on certify-f3"),
    "kernels.residual.self_s": ("s", "wall_s on certify-f3"),
    "kernels.residual.columns": ("count", "wall_s on certify-f3"),
    "kernels.rank.calls": ("count", "wall_s on certify-f3"),
    "kernels.rank.self_s": ("s", "wall_s on certify-f3"),
    "kernels.rank.columns": ("count", "wall_s on certify-f3"),
    "fio.parse_fpres.self_s": ("s", "op_p50_ms on certify-f3"),
    "fio.serialize_fpres.self_s": ("s", "op_p50_ms on certify-f3"),
    "cli.self_s": ("s", "op_p50_ms on certify-f3"),
    "trace.overhead_s": ("s", "none: traced wall_s minus untraced wall_s"),
    "match.lines": ("count", "none: sampled lines per pass, from the lines row"),
    "match.lines_per_s": ("1/s", "the headline of the line loop on both matching workloads"),
}


def size_row(name: str, k: int) -> str:
    return f"cli.{name}.k{k}.p50_ms"


def size_rows(gen) -> dict[str, tuple[str, str]]:
    """Diagnostic per-size-class medians of untraced operations (scaling view),
    one row per operation name and size class of every workload's stream."""
    return {size_row(name, k): ("ms", "scaling diagnostic")
            for workload, sizes in gen.INSTANCES.items()
            for name in gen.OP_NAMES[workload] for k in sizes}


def fail(message: str) -> None:
    print(f"clibench: {message}", file=sys.stderr)
    sys.exit(2)


# -- output checks -----------------------------------------------------------


def _rows(text: str) -> dict[str, str]:
    """First token of each line -> second token (the exact value)."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 2:
            out.setdefault(parts[0], parts[1])
    return out


def _header_count(text: str, key: str) -> int:
    for line in text.splitlines():
        if line.startswith(key + " "):
            return int(line.split()[1])
    raise ValueError(f"no {key!r} line")


def check(op, out: str, err: str) -> str | None:
    """None when the output holds its invariant, else what went wrong."""
    kind, expect = op.kind, op.expect
    if kind == "match":
        rows = _rows(out)
        value = Fraction(rows["matching-distance"])
        if rows.get("kind") != "lower_bound" or int(rows["lines"]) < 1:
            return "malformed match-dist report"
        if not 0 <= value <= expect:
            return f"distance {value} outside [0, {expect}]"
    elif kind == "accept":
        if out.strip() != f"accept at epsilon {expect}":
            return f"witness not accepted: {out.strip()}"
    elif kind == "lower":
        value = Fraction(_rows(out)["interleaving-lower-bound"])
        if not 0 <= value <= expect:
            return f"lower bound {value} above the witness epsilon {expect}"
    elif kind == "grid":
        budget = _rows(err.replace("# certified interleaving budget", "budget")).get("budget")
        if budget is None or Fraction(budget) != expect or not out.startswith("fpres 1\n"):
            return f"grid-align budget {budget}, expected {expect}"
    elif kind == "hilbert":
        if out.strip() != str(expect):
            return f"dimension {out.strip()}, expected {expect} from the summands"
    elif kind == "minimal":
        counts = (_header_count(out, "generators"), _header_count(out, "relations"))
        if counts != expect:
            return f"minimal presentation has {counts} generators/relations, expected {expect}"
    elif kind == "betti":
        xi = {"xi0": 0, "xi1": 0}
        for line in out.splitlines():
            parts = line.split()
            if parts[0] in xi:
                xi[parts[0]] += int(parts[-1].lstrip("x"))
        pc = int(_rows(out)["partial-complexity"])
        if (xi["xi0"], xi["xi1"]) != expect or pc != sum(expect):
            return f"betti counts {xi} / {pc}, expected {expect}"
    elif kind in ("simplify", "simplify-raw"):
        gens = _header_count(out, "generators")
        if not out.startswith("fpres 1\n") or gens > expect[0] or (
                kind == "simplify-raw" and gens != expect[0]):
            return f"simplified presentation has {gens} generators"
    return None


# -- passes -------------------------------------------------------------------


def reference() -> float:
    """Seconds taken by a fixed pure-Python loop of the library's kind of work.

    Small-rational Fraction arithmetic and comparisons, dict updates and a
    sort, about three milliseconds.  It never calls multipres, so no change to
    the program moves it; it only follows the speed of the machine.
    """
    t0 = perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 480):
        q = Fraction(i % 7, i % 11 + 1) + Fraction(i % 5, 3)
        if q > acc:
            acc = q - 1
        table[i % 31] = table.get(i % 31, 0) ^ i
    sorted(table.items())
    return perf_counter() - t0


def factor(ref: float) -> float:
    """What scales a time taken where reference() took ref to nominal speed."""
    return REF_NOMINAL_S / ref


class Pass:
    """One replay of the operation stream; times are at nominal speed."""

    def __init__(self):
        self.times: list[float] = []
        self.raw: list[float] = []
        self.refs: list[float] = []
        # per operation: nominal speed over the machine's speed around it
        self.factors: list[float] = []
        self.errors: list[str] = []
        self.digest = hashlib.sha256()
        self.lines = 0
        self.match_s = 0.0

    @property
    def wall_s(self) -> float:
        return sum(self.times)


def run_pass(ops, cli, tracer=None) -> Pass:
    res = Pass()
    before = reference()
    for i, op in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if tracer is None:
                    rc = cli.main(op.argv)
                else:
                    rc = tracer.call(i, cli.main, op.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a traceback is a failed operation, not a crash
            rc = None
            err.write(traceback.format_exc())
        dt = perf_counter() - t0
        after = reference()
        res.raw.append(dt)
        res.refs.append(before)
        res.factors.append(factor((before + after) / 2))
        res.times.append(dt * res.factors[-1])
        before = after
        text, errtext = out.getvalue(), err.getvalue()
        res.digest.update(text.encode())
        if op.save_as:
            Path(op.save_as).write_text(text)
        if rc != 0 or "Traceback" in errtext:
            problem = f"exit {rc}: {errtext.strip()[-300:]}"
        else:
            try:
                problem = check(op, text, errtext)
            except (KeyError, ValueError, IndexError) as exc:
                problem = f"unreadable output ({exc!r})"
        if problem:
            res.errors.append(f"op {i} {' '.join(op.argv)}: {problem}")
        elif op.kind == "match":
            res.lines += int(_rows(text)["lines"])
            res.match_s += res.times[-1]
    return res


# -- metrics -------------------------------------------------------------------


def measure_setup() -> float:
    """Median cold `import multipres.cli` in a fresh interpreter, at nominal speed.

    Each child times the import and then reference() twice; the import is
    scaled by the mean of the two.  One import before the measured ones
    fills __pycache__, as an installed package has it.
    """
    code = ("import time; t = time.perf_counter(); import multipres.cli; "
            "d = time.perf_counter() - t; import run; "
            "print(repr(d), repr((run.reference() + run.reference()) / 2))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    samples = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            fail(f"cold import failed: {proc.stderr.strip()[-300:]}")
        if i:
            dt, ref = map(float, proc.stdout.split())
            samples.append(dt * factor(ref))
    return statistics.median(samples)


def tail_level(n_nominal: int) -> int:
    """Highest whole percentile with at least ten of n_nominal samples beyond it."""
    return math.floor(100 * (n_nominal - 10) / n_nominal)


def percentile(values: list[float], level: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[level - 1]


def layer_values(ops, expected: set[str], rows: dict[str, tuple[str, str]],
                 untraced: list[Pass], traced: list[Pass],
                 summaries: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Every per-layer row, plus what is unsteady or missing.

    The count rows must repeat between traced passes, and the operations of
    the stream must fill exactly the size rows named in expected.
    """
    fields = {"calls": "calls", "self_s": "self_s", "bars": "size", "columns": "size"}
    values: dict[str, float] = {}
    unsteady = []
    for name in rows:
        layer, _, field = name.rpartition(".")
        if field not in fields:
            continue
        per_pass = [s.get(layer, {}).get(fields[field], 0) for s in summaries]
        if field == "self_s":
            values[name] = statistics.median(per_pass)
        else:
            values[name] = per_pass[0]
            if len(set(per_pass)) != 1:
                unsteady.append(f"count differs between traced passes: {name} {per_pass}")
    probes = summaries[0].get("metrics.bottleneck_at_most", {"calls": 0, "size": 0})
    values["metrics.prune_ratio"] = probes["size"] / probes["calls"] if probes["calls"] else 0.0
    wall = statistics.median(p.wall_s for p in untraced)
    values["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - wall
    values["match.lines"] = untraced[0].lines
    match_s = statistics.median(p.match_s for p in untraced)
    values["match.lines_per_s"] = untraced[0].lines / match_s if match_s else 0.0
    groups: dict[str, list[float]] = {}
    for p in untraced:
        for op, t in zip(ops, p.times):
            groups.setdefault(size_row(op.name, op.size), []).append(t * 1e3)
    if set(groups) != expected:
        unsteady.append(f"size rows of the stream {sorted(groups)} differ from "
                        f"gen.OP_NAMES x gen.INSTANCES {sorted(expected)}")
    for name in rows:
        if name.endswith(".p50_ms"):
            values[name] = statistics.median(groups[name]) if name in groups else 0.0
    return values, unsteady


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "multipres" / "cli.py").is_file():
        fail(f"no multipres sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    # every run, and every child that measures setup_s, uses the pure kernel
    os.environ["MULTIPRES_PURE"] = "1"
    import gen
    from multipres import cli, kernels
    from spans import Tracer

    setup_s = None if args.trace else measure_setup()
    workdir = ROOT / ".clibench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    untraced: list[Pass] = []
    traced: list[Pass] = []
    summaries: list[dict] = []
    tracer = Tracer() if args.trace else None
    try:
        ops = gen.build(args.workload, args.seed, workdir)
        start = last = perf_counter()
        # another pass only when it is expected to end within --seconds
        least = 1 if tracer else MIN_PASSES
        while len(untraced) < least or 2 * perf_counter() - last - start <= args.seconds:
            last = perf_counter()
            untraced.append(run_pass(ops, cli))
            if tracer is not None:
                tracer.clear()
                tracer.install()
                try:
                    traced.append(run_pass(ops, cli, tracer))
                finally:
                    tracer.remove()
                summaries.append(tracer.summary(traced[-1].factors))
        if tracer is not None:
            tracer.dump(ROOT / ".clibench" / f"spans-{args.workload}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = untraced + traced
    attempted = len(ops) * len(everything)
    errors = [e for p in everything for e in p.errors]
    digests = {p.digest.hexdigest() for p in everything}
    problems = [f"FAILED {e}" for e in errors[:20]]
    if len(digests) != 1:
        problems.append(f"FAILED stdout differs between passes (traced or not): {sorted(digests)}")
    samples = [t for p in untraced for t in p.times]
    level = tail_level(len(ops) * MIN_PASSES)
    wall = statistics.median(p.wall_s for p in untraced)
    raw_wall = statistics.median(sum(p.raw) for p in untraced)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations per pass, "
          f"{len(untraced)} untraced and {len(traced)} traced passes")
    print(f"stdout_sha256 {untraced[0].digest.hexdigest()}")
    print(f"error_rate {len(errors) / attempted:.6f} ({len(errors)} of {attempted} operations)")
    print(f"machine speed: reference loop median "
          f"{statistics.median(r for p in untraced for r in p.refs) * 1e3:.4f} ms "
          f"(nominal {REF_NOMINAL_S * 1e3:g} ms); raw wall_s {raw_wall:.4f} s")
    print(f"kernel backend {kernels.BACKEND}")

    if not args.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall, "s"),
            "op_p50_ms": (statistics.median(samples) * 1e3, "ms"),
            "op_tail_ms": (percentile(samples, level) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"op_tail_ms is the p{level} latency: at least 10 of the {len(ops) * MIN_PASSES} "
              f"operations of {MIN_PASSES} passes lie beyond it; {len(samples)} samples in this run")
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        if untraced[0].lines:
            match_s = statistics.median(p.match_s for p in untraced)
            print(f"lines_per_s {untraced[0].lines / match_s:.6g} 1/s "
                  f"({untraced[0].lines} lines per pass)")
    else:
        rows = {**PER_LAYER, **size_rows(gen)}
        expected = {size_row(name, k) for name in gen.OP_NAMES[args.workload]
                    for k in gen.INSTANCES[args.workload]}
        values, unsteady = layer_values(ops, expected, rows, untraced, traced, summaries)
        problems += [f"FAILED {u}" for u in unsteady]
        print(f"traced wall_s {wall + values['trace.overhead_s']:.4f} s, untraced {wall:.4f} s")
        for name, (unit, moves) in rows.items():
            print(f"layer {name} {values[name]:.6g} {unit} -> {moves}")
        metrics = {name: (values[name], unit) for name, (unit, _) in rows.items()}
    for line in problems:
        print(line)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
