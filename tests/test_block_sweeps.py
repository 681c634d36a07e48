"""minimize and the simplify sweep work one direct-sum block at a time.

The inputs are block-diagonal presentations whose generators and relations
are shuffled, so the blocks interleave by index.  Each also holds a block
of free generators (no relations) and a relation whose column is all zero
coefficients.  Blocks share their grades, so several of them keep relations
at one grid point of the sweep.  The simplify sweep also runs on sums of
staircases in general position, whose blocks share no grade coordinate.
"""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from multipres import Grade, kernels, minimize, translate_image
from multipres.experiments import random_staircase
from multipres.presentation import Generator, Presentation, Relation, direct_sum, make_column, shift

from oracles import image_relations_by_full_sweep, minimize_by_scan, normal_form


def grade(rng, n):
    """Halves in [0, 3], or in [0, 1] for n = 3, where points tie less often."""
    top = 6 if n < 3 else 2
    return Grade(F(rng.randint(0, top), 2) for _ in range(n))


def summand(rng, n, p):
    """Generator grades and (grade, column) relations of one block, on local indices.

    Relations sit at or above the join of their support; some blocks get a
    trivial pair (a generator cancelled by a relation at its own grade,
    mixed into the relations above it) and a redundant sum of two relations.
    """
    gens = [grade(rng, n) for _ in range(rng.randint(1, 3))]
    rels = []
    for _ in range(rng.randint(1, 3)):
        support = sorted(rng.sample(range(len(gens)), rng.randint(1, len(gens))))
        top = gens[support[0]]
        for i in support[1:]:
            top = top.join(gens[i])
        rels.append((top.plus([F(rng.randint(0, 2), 2) for _ in range(n)]),
                     {i: rng.randint(1, p - 1) for i in support}))
    if rng.random() < 0.5:
        i = rng.randrange(len(gens))
        at = gens[i].plus([F(rng.randint(0, 2), 2) for _ in range(n)])
        pair = {len(gens): 1, i: rng.randint(1, p - 1)}
        gens.append(at)
        for a, col in rels:
            if at.leq(a) and rng.random() < 0.5:
                d = rng.randint(1, p - 1)
                for j, c in pair.items():
                    col[j] = (col.get(j, 0) + d * c) % p
        rels.append((at, pair))
    if len(rels) >= 2 and rng.random() < 0.5:
        (a1, c1), (a2, c2) = rng.sample(rels, 2)
        rels.append((a1.join(a2), {i: (c1.get(i, 0) + c2.get(i, 0)) % p for i in set(c1) | set(c2)}))
    return gens, rels


def block_module(rng, n, p, count):
    """A shuffled direct sum of count summands, a free block and a zero column."""
    parts = [summand(rng, n, p) for _ in range(count)]
    parts.append(([grade(rng, n) for _ in range(rng.randint(1, 2))], []))
    gens, rels = [], []
    for local_gens, local_rels in parts:
        off = len(gens)
        gens += local_gens
        rels += [(a, {off + i: c for i, c in col.items()}) for a, col in local_rels]
    order = list(range(len(gens)))
    rng.shuffle(order)
    new = {old: k for k, old in enumerate(order)}
    out = [Relation(a, make_column({new[i]: c for i, c in col.items()}, p)) for a, col in rels]
    low = rng.randrange(len(gens))
    out.append(Relation(gens[order[low]].plus([1] * n), ((low, 0),)))  # checked, then dropped: an empty column
    rng.shuffle(out)
    return Presentation(n, p, tuple(Generator(f"g{k}", gens[old]) for k, old in enumerate(order)), tuple(out))


def components(P):
    """The generator sets linked by shared relation columns, by graph search."""
    links = {i: set() for i in range(len(P.gens))}
    for r in P.rels:
        for i, _ in r.col:
            links[i] |= {j for j, _ in r.col}
    owner = {}
    for start in range(len(P.gens)):
        if start in owner:
            continue
        todo = [start]
        while todo:
            i = todo.pop()
            if i not in owner:
                owner[i] = start
                todo += links[i]
    return owner


def modules(n):
    rng = random.Random(400 + n)
    for p in (2, 3, 5):
        for _ in range(8):
            yield block_module(rng, n, p, rng.randint(2, 4 if n < 3 else 3))


def gp_sum(rng, k, p):
    """A sum of k random staircases, the i-th moved up by i/97 on both axes,
    so no two summands share a grade coordinate."""
    return direct_sum(*[shift(random_staircase(rng, p=p), F(i, 97)) for i in range(k)])


def gp_sums():
    rng = random.Random(402)
    for p in (2, 3):
        for k in (2, 3, 4):
            yield gp_sum(rng, k, p)


def mask(indices):
    return sum(1 << i for i in indices)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_blocks_are_the_components_of_the_incidence(n):
    for P in modules(n):
        owner = components(P)
        roots = sorted(set(owner.values()))
        want = [(mask(i for i in owner if owner[i] == r),
                 mask(k for k, rel in enumerate(P.rels) if rel.col and owner[rel.col[0][0]] == r)) for r in roots]
        assert P._scaled.blocks == want
        assert any(not rels for _, rels in want)
        assert any(not rel.col for rel in P.rels)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_minimize_equals_scan_reference(n):
    cancelled = 0
    for P in modules(n):
        M = minimize(P)
        assert M == normal_form(minimize_by_scan(P))
        cancelled += len(P.gens) - len(M.gens)
    assert cancelled >= 3, cancelled


@pytest.mark.parametrize("n", [1, 2, 3])
def test_image_relations_equal_full_sweep_in_order(n):
    tied = 0
    for P in itertools.chain(modules(n), gp_sums() if n == 2 else ()):
        owner = components(P)
        for e in (F(1, 2), F(1, 3), F(2)):
            ref = image_relations_by_full_sweep(P, e)
            assert translate_image(P, e).rels == tuple(Relation(a, make_column(col, P.p)) for a, col in ref)
            # consecutive relations kept at one grid point by different blocks
            tied += sum(a == b and owner[min(c)] != owner[min(d)] for (a, c), (b, d) in zip(ref, ref[1:]))
    assert tied >= 3, tied


def test_no_intersect_call_or_minimize_push_mixes_two_blocks(monkeypatch):
    calls, stacks = [], {}
    intersect, push = kernels.intersect, kernels.EchelonStack.push

    def counting_intersect(columns, inside, p):
        calls.append([i for col in columns for i in col])
        return intersect(columns, inside, p)

    def counting_push(self, key, column):
        stacks.setdefault(self, []).extend(column)  # holding the stack keeps its identity unique
        return push(self, key, column)

    monkeypatch.setattr(kernels, "intersect", counting_intersect)
    monkeypatch.setattr(kernels.EchelonStack, "push", counting_push)
    counted = [0, 0]
    for n in (1, 2, 3):
        for P in modules(n):
            owner = components(P)
            calls.clear()
            translate_image(P, F(1, 2))
            stacks.clear()
            minimize(P)
            for k, seen in enumerate((calls, list(stacks.values()))):
                counted[k] += len(seen)
                assert all(len({owner[i] for i in rows}) == 1 for rows in seen)
    assert min(counted) >= 20, counted


def test_sweep_visits_only_each_blocks_own_grid(monkeypatch):
    """Work contract: the simplify sweep reads the product grid of each
    block's own relation grades and translated generator grades once, and
    not the grid of the whole module."""
    P, e = gp_sum(random.Random(403), 32, 3), F(1, 2)
    owner = components(P)
    points = {}
    for r in P.rels:
        if r.col:
            points.setdefault(owner[r.col[0][0]], []).append(r.grade.coords)
    for i, g in enumerate(P.gens):
        if owner[i] in points:
            points[owner[i]].append([c + e for c in g.grade.coords])
    want = sum(math.prod(len({a[k] for a in block}) for k in range(P.n)) for block in points.values())
    whole = math.prod(len({a[k] for block in points.values() for a in block}) for k in range(P.n))
    assert len(points) >= 16 and 20 * want < whole, (len(points), want, whole)

    visited = []
    product = itertools.product

    def counting(*axes):
        for point in product(*axes):
            visited.append(point)
            yield point

    monkeypatch.setattr(itertools, "product", counting)
    translate_image(P, e)
    assert len(visited) == want
