"""Tests of the benchmark's input generator.

Run from the repository root:  python3 -m pytest clibench -q
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest

import gen
from multipres.grades import Grade
from multipres.presentation import betti_and_grid, minimize


@pytest.mark.parametrize("k", [2, 4, 8])
def test_entangled_presentations_keep_the_betti_data(k):
    for seed in range(4):
        rng = random.Random(seed)
        M, _ = gen.staircase_sum(rng, k, 2)
        source = betti_and_grid(M)
        for _ in range(2):
            E = gen.entangle(M, rng)
            assert len(E.gens) == 2 * len(M.gens)
            assert len(E.rels) == 2 * len(M.rels) + len(M.gens)
            data = betti_and_grid(E)
            assert (data.xi0, data.xi1) == (source.xi0, source.xi1)


@pytest.mark.parametrize("k,p", [(2, 2), (8, 2), (16, 3)])
def test_staircase_sums_have_pinned_sizes_and_are_minimal(k, p):
    births = sum(gen.SHAPES[i % len(gen.SHAPES)][0] for i in range(k))
    deaths = sum(gen.SHAPES[i % len(gen.SHAPES)][1] for i in range(k))
    for seed in range(3):
        M, corners = gen.staircase_sum(random.Random(seed), k, p)
        assert (len(M.gens), len(M.rels)) == (births, births - k + deaths)
        assert len(corners) == k
        m = minimize(M)
        assert (len(m.gens), len(m.rels)) == (len(M.gens), len(M.rels))


def test_interval_dimension_matches_the_hilbert_function():
    rng = random.Random(5)
    M, corners = gen.staircase_sum(rng, 8, 3)
    for _ in range(40):
        a = Grade([Fraction(rng.randint(0, 60), 2) for _ in range(2)])
        assert gen.interval_dimension(corners, a) == M.hilbert(a)


@pytest.mark.parametrize("workload", sorted(gen.INSTANCES))
def test_same_seed_writes_identical_files(workload, tmp_path):
    streams, contents = [], []
    for run in ("a", "b"):
        root = tmp_path / run
        root.mkdir()
        ops = gen.build(workload, 7, root)
        streams.append([[str(Path(x).name) if str(root) in x else x for x in op.argv]
                        for op in ops])
        contents.append({p.name: p.read_bytes() for p in sorted(root.iterdir())})
    assert streams[0] == streams[1]
    assert contents[0] == contents[1]
    other = tmp_path / "c"
    other.mkdir()
    gen.build(workload, 8, other)
    assert {p.name: p.read_bytes() for p in sorted(other.iterdir())} != contents[0]



@pytest.mark.parametrize("workload", sorted(gen.INSTANCES))
def test_streams_hold_the_listed_operations_and_size_classes(workload, tmp_path):
    ops = gen.build(workload, 1, tmp_path)
    assert {(op.name, op.size) for op in ops} == {
        (name, k) for name in gen.OP_NAMES[workload] for k in gen.INSTANCES[workload]}

def test_tracer_records_nested_spans_and_restores_the_library(tmp_path):
    from multipres import cli, fibered, kernels, metrics, presentation
    from spans import Tracer

    originals = (metrics.restrict, fibered.restrict, kernels.reduce_pivots,
                 presentation.minimize, presentation.Presentation.hilbert)
    ops = gen.build("match-jitter", 3, tmp_path)[:2]
    tracer = Tracer()
    tracer.install()
    try:
        for i, op in enumerate(ops):
            assert tracer.call(i, cli.main, op.argv) == 0
    finally:
        tracer.remove()
    assert (metrics.restrict, fibered.restrict, kernels.reduce_pivots,
            presentation.minimize, presentation.Presentation.hilbert) == originals
    rows = tracer.summary([1.0] * len(ops))
    assert rows["cli"]["calls"] == 2
    assert rows["metrics.matching_distance"]["calls"] == 1
    assert rows["fibered.restrict"]["calls"] == rows["fibered.barcode"]["calls"] > 0
    assert rows["kernels.reduce_pivots"]["calls"] == rows["fibered.barcode"]["calls"]
    names = [s[0] for s in tracer.spans]
    for name, start, end, parent, op, size in tracer.spans:
        assert start <= end
        assert (parent < 0) == (name == "cli")
        if name == "kernels.reduce_pivots":
            assert names[parent] == "fibered.barcode"
    assert all(r["self_s"] > -1e-9 for r in rows.values())
    doubled = tracer.summary([2.0] * len(ops))
    assert doubled["cli"]["self_s"] == pytest.approx(2 * rows["cli"]["self_s"])
