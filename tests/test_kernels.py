import copy
import random

import pytest

from multipres import kernels

from oracles import dense_low_pivots, dense_rank_mod_p

PRIMES = [2, 3, 5, 13, 2**61 - 1]


def random_columns(rng, nrows, ncols, p):
    cols = []
    for _ in range(ncols):
        col = {}
        for _ in range(rng.randint(0, nrows)):
            col[rng.randrange(nrows)] = rng.randint(1, p - 1)
        cols.append(col)
    return cols


def dependent_columns(rng, nrows, ncols, p):
    """Sparse columns, a third of them combinations of earlier ones."""
    cols = []
    for _ in range(ncols):
        col = {}
        if cols and rng.random() < 1 / 3:
            for other in rng.sample(cols, min(len(cols), rng.randint(1, 3))):
                f = rng.randint(1, p - 1)
                for i, c in other.items():
                    v = (col.get(i, 0) + f * c) % p
                    if v:
                        col[i] = v
                    else:
                        col.pop(i, None)
        else:
            for _ in range(rng.randint(0, 4)):
                col[rng.randrange(nrows)] = rng.randint(1, p - 1)
        cols.append(col)
    return cols


def to_dense_rows(cols, nrows):
    rows = []
    for col in cols:
        row = [0] * nrows
        for i, c in col.items():
            row[i] = c
        rows.append(row)
    return rows


@pytest.mark.parametrize("p", PRIMES)
def test_rank_against_dense_oracle(p):
    rng = random.Random(101)
    for _ in range(30):
        nrows = rng.randint(1, 12)
        cols = random_columns(rng, nrows, rng.randint(0, 16), p)
        expected = dense_rank_mod_p(to_dense_rows(cols, nrows), p) if cols else 0
        assert kernels.rank(cols, p) == expected
        pivots = kernels.reduce_pivots(cols, p, range(nrows))
        assert sum(1 for x in pivots if x >= 0) == expected


@pytest.mark.parametrize("p", PRIMES)
def test_pivot_rows_against_dense_oracle(p):
    rng = random.Random(103)
    cases = [random_columns(rng, n, rng.randint(0, 16), p)
             for n in (rng.randint(1, 12) for _ in range(30))]
    # more than 64 rows: F_2 columns span several machine words as bitmasks
    for nrows in (65, 96, 130, 200):
        cases.append(random_columns(rng, nrows, rng.randint(20, 40), p))
        cases.append(dependent_columns(rng, nrows, rng.randint(40, 80), p))
    cases.append([{0: 1, 64: 1}, {64: 1}, {63: 1, 64: 1, 128: 1}, {0: 1, 63: 1, 128: 1},
                  {128: 1}, {63: 1}, {0: 1}])
    for cols in cases:
        nrows = 1 + max((i for col in cols for i in col), default=0)
        expected = dense_low_pivots(to_dense_rows(cols, nrows), p)
        assert kernels.reduce_pivots(cols, p, range(nrows)) == expected
        assert list(kernels.echelonize(cols, p)) == [x for x in expected if x >= 0]


@pytest.mark.parametrize("p", PRIMES)
def test_row_map_relabels_each_column_entry(p):
    rng = random.Random(107)
    for _ in range(20):
        nrows = rng.randint(1, 12)
        cols = random_columns(rng, nrows, rng.randint(0, 16), p)
        before = [dict(col) for col in cols]
        rows = rng.sample(range(nrows), nrows)
        moved = [{rows[i]: c for i, c in col.items()} for col in cols]
        assert kernels.reduce_pivots(cols, p, rows) == dense_low_pivots(to_dense_rows(moved, nrows), p)
        assert cols == before


def test_membership_semantics():
    cols = [{0: 1, 1: 1}, {1: 1}]
    basis = kernels.echelonize(cols, 2)
    assert basis == {1: {0: 1, 1: 1}, 0: {0: 1}}
    assert not kernels.residual({0: 1}, basis, 2)
    assert kernels.residual({2: 1}, basis, 2)
    assert not kernels.residual({}, basis, 2)
    # residual reads the basis and leaves it as it was
    assert basis == {1: {0: 1, 1: 1}, 0: {0: 1}}


def test_membership_large_prime():
    p = 2**61 - 1
    rng = random.Random(104)
    for _ in range(30):
        nrows = rng.randint(1, 80)
        cols = dependent_columns(rng, nrows, rng.randint(1, 20), p)
        basis = kernels.echelonize(cols, p)
        inside = {}
        for col in cols:
            f = rng.randrange(p)
            for i, c in col.items():
                inside[i] = (inside.get(i, 0) + f * c) % p
        inside = {i: c for i, c in inside.items() if c}
        assert not kernels.residual(inside, basis, p)
        vec = random_columns(rng, nrows, 1, p)[0]
        rows = to_dense_rows(cols, nrows)
        spanned = dense_rank_mod_p(rows + to_dense_rows([vec], nrows), p) == dense_rank_mod_p(rows, p)
        assert (not kernels.residual(vec, basis, p)) == spanned
    basis = kernels.echelonize([{0: 1, 1: p - 1}, {1: 5}], p)
    assert not kernels.residual({0: 3}, basis, p)
    assert kernels.residual({2: 1}, basis, p)


@pytest.mark.parametrize("p", [2, 3, 5, 2**61 - 1])
def test_cleared_is_the_normal_form_modulo_the_span(p):
    # no entry on a pivot row, the same vector from two bases of one span,
    # and the difference from the input lies in the span
    rng = random.Random(106)
    for _ in range(40):
        nrows = rng.randint(1, 14)
        cols = dependent_columns(rng, nrows, rng.randint(1, 10), p)
        basis = kernels.echelonize(cols, p)
        other = kernels.echelonize(rng.sample(cols, len(cols)), p)
        assert set(other) == set(basis)
        before = copy.deepcopy(basis)
        vec = random_columns(rng, nrows, 1, p)[0]
        out = kernels.cleared(vec, basis, p)
        assert basis == before and out == kernels.cleared(vec, other, p)
        assert not set(out) & set(basis) and all(0 < c < p for c in out.values())
        diff = {i: (vec.get(i, 0) - out.get(i, 0)) % p for i in set(vec) | set(out)}
        rows = to_dense_rows(cols, nrows)
        assert dense_rank_mod_p(rows + to_dense_rows([diff], nrows), p) == dense_rank_mod_p(rows, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_echelon_stack_matches_echelonize_of_its_prefix(p):
    rng = random.Random(107)
    for _ in range(20):
        nrows = rng.randint(1, 14)
        pool = dependent_columns(rng, nrows, 30, p)
        stack, prefix = kernels.EchelonStack(p), []
        for step in range(60):
            roll = rng.random()
            if prefix and roll < 0.3:
                size = rng.randrange(len(prefix) + 1)
                stack.truncate(size)
                del prefix[size:]
            elif roll < 0.5:
                # rebase onto a list sharing a random prefix, then diverging,
                # shorter, longer or empty
                size = rng.randrange(len(prefix) + 1)
                prefix = prefix[:size] + [rng.randrange(len(pool)) for _ in range(rng.randrange(4))]
                stack.rebase([(k, pool[k]) for k in prefix])
            else:
                k = rng.randrange(len(pool))
                stack.push(k, pool[k])
                prefix.append(k)
            assert stack.keys == prefix
            basis = kernels.echelonize([pool[k] for k in prefix], p)
            assert list(stack.pivots.items()) == list(basis.items())
            vec = rng.choice(pool + random_columns(rng, nrows, 1, p))
            assert kernels.residual(vec, stack.pivots, p) == kernels.residual(vec, basis, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_intersect_is_a_basis_of_the_meet(p):
    rng = random.Random(109)
    for _ in range(40):
        nrows = rng.randint(1, 12)
        cols = dependent_columns(rng, nrows, rng.randint(0, 12), p)
        for inside in ([], list(range(nrows)), sorted(rng.sample(range(nrows), rng.randint(1, nrows)))):
            pairs = kernels.intersect(cols, inside, p)
            meet = [v for _, v in pairs]
            positions = [k for k, _ in pairs]
            assert positions == sorted(set(positions))
            for k, v in pairs:
                # v is column k less a combination of the columns before it
                before = to_dense_rows(cols[:k], nrows)
                upto = to_dense_rows(cols[:k + 1], nrows)
                assert dense_rank_mod_p(before + to_dense_rows([v], nrows), p) == dense_rank_mod_p(before, p) + 1
                assert dense_rank_mod_p(upto + to_dense_rows([v], nrows), p) == dense_rank_mod_p(upto, p)
            span = to_dense_rows(cols, nrows)
            units = to_dense_rows([{i: 1} for i in inside], nrows)
            rk = dense_rank_mod_p(span, p)
            # dim(S meet V) = rk S + rk V - rk(S + V)
            assert len(meet) == rk + len(inside) - dense_rank_mod_p(span + units, p)
            assert len({max(v) for v in meet}) == len(meet)
            for v in meet:
                assert v and set(v) <= set(inside) and all(0 < c < p for c in v.values())
                assert dense_rank_mod_p(span + to_dense_rows([v], nrows), p) == rk


@pytest.mark.parametrize("p", [2, 3, 5])
def test_extend_less_its_basis_counts_what_vectors_add_and_leaves_the_basis(p):
    rng = random.Random(113)
    for _ in range(40):
        nrows = rng.randint(1, 12)
        basis = kernels.echelonize(dependent_columns(rng, nrows, rng.randint(0, 10), p), p)
        vectors = random_columns(rng, nrows, rng.randint(0, 4), p)
        for _ in range(rng.randint(0, 3)):
            # a vector inside span(basis)
            vec = {}
            for col in rng.sample(list(basis.values()), min(len(basis), 2)):
                f = rng.randint(1, p - 1)
                for i, c in col.items():
                    vec[i] = (vec.get(i, 0) + f * c) % p
            vectors.append({i: c for i, c in vec.items() if c})
        vectors += [{}] + [dict(v) for v in vectors if rng.random() < 0.5]
        rng.shuffle(vectors)
        before = copy.deepcopy(basis)
        want = kernels.rank(list(basis.values()) + vectors, p) - len(basis)
        assert len(kernels.extend(basis, vectors, p)) - len(basis) == want
        # the basis and each of its columns are as they were
        assert basis == before and list(basis) == list(before)
    assert len(kernels.extend({}, [], p)) == len(kernels.extend({}, [{}], p)) == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_extend_grows_a_copy_of_its_basis(p):
    rng = random.Random(127)
    for _ in range(40):
        nrows = rng.randint(1, 12)
        first = dependent_columns(rng, nrows, rng.randint(0, 8), p)
        more = dependent_columns(rng, nrows, rng.randint(0, 8), p) + [dict(c) for c in first if rng.random() < 0.3]
        basis = kernels.echelonize(first, p)
        before = copy.deepcopy(basis)
        grown = kernels.extend(basis, more, p)
        # the input basis and each of its columns are as they were
        assert basis == before and list(basis) == list(before)
        # growing echelonize(first) by more is echelonize(first + more), order included
        assert list(grown.items()) == list(kernels.echelonize(first + more, p).items())
        rows = to_dense_rows(first + more, nrows)
        assert len(grown) == (dense_rank_mod_p(rows, p) if rows else 0)
        assert all(low == max(col) for low, col in grown.items())
