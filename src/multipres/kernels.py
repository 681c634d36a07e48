"""Sparse column reduction over a prime field F_p.

Columns are dicts {row index: nonzero coefficient mod p}.  Reduction is the
standard left-to-right scheme with max-index pivots, which serves three
masters: persistence pairing (pivot row = paired row), rank computation
(count of pivots; the rank vectors add to an echelon basis is the length of
extend's result minus the basis's) and span membership (residual against an
echelon basis).  extend reduces columns into a copy of a basis, empty for
echelonize and rank.  reduce_pivots relabels each entry of its columns once
by a row map; over F_2 it adds the relabelled rows as the bits of a Python
int by XOR, over an odd prime it pushes them onto one EchelonStack.
intersect meets a column span with the coordinate subspace on a set of
rows, naming the column each basis vector came from, the step behind the
translation image's relations and the interval ranks.  cleared takes a
vector to its normal form modulo a span, for minimize's columns; eliminate
is the one step of every reduction here but the F_2 bitmasks.
EchelonStack is an echelon basis grown column by column that can be cut
back to any prefix; its rebase moves it to a new list of columns through
the longest prefix the two share, for sweeps whose spans share long
prefixes.
"""

from __future__ import annotations

BACKEND = "pure"


def reduce_pivots(columns, p, rows):
    """Reduce columns in order; return the pivot row of each (-1 if zeroed).

    Column entries {i: coefficient} lie in row rows[i].  Each column is
    reduced against the previously committed columns sharing its current
    max-index row until the row is fresh or the column dies.
    """
    if p == 2:
        out = []
        masks: dict[int, int] = {}
        for col in columns:
            v = 0
            for i in col:
                v |= 1 << rows[i]
            while v:
                low = v.bit_length() - 1
                other = masks.get(low)
                if other is None:
                    masks[low] = v
                    break
                v ^= other
            else:
                low = -1
            out.append(low)
        return out
    stack = EchelonStack(p)
    for k, col in enumerate(columns):
        stack.push(k, {rows[i]: v for i, v in col.items()})
    return [-1 if low is None else low for low in stack._lows]


def eliminate(c, other, row, p) -> None:
    """Subtract from the column c, in place, the multiple of other that
    zeroes c's entry in row, where other has a nonzero entry."""
    factor = c[row] if other[row] == 1 else c[row] * pow(other[row], p - 2, p) % p
    for i, val in other.items():
        new = (c.get(i, 0) - factor * val) % p
        if new:
            c[i] = new
        else:
            c.pop(i, None)


def _residual_dict(c, piv, p):
    while c:
        low = max(c)
        other = piv.get(low)
        if other is None:
            return c
        eliminate(c, other, low, p)
    return c


def extend(basis, columns, p) -> dict[int, dict[int, int]]:
    """Echelon basis of span(basis) + span(columns): a copy of basis
    {pivot row: column}, which is read, not changed, with columns reduced in."""
    piv = dict(basis)
    for col in columns:
        c = _residual_dict(dict(col), piv, p)
        if c:
            piv[max(c)] = c
    return piv


def echelonize(columns, p) -> dict[int, dict[int, int]]:
    """Echelon basis of the column span: {pivot row: reduced column}, in input order."""
    return extend({}, columns, p)


def rank(columns, p):
    return len(extend({}, columns, p))


def intersect(columns, inside, p) -> list[tuple[int, dict[int, int]]]:
    """Echelon basis of span(columns) meet the coordinate subspace on the
    rows in inside, which lists them in increasing order, as (position,
    column) pairs: each basis column with the position in columns of the
    column it was reduced from.

    The inside rows are relabelled below every other row, each class in
    index order, and the columns are pushed once onto an EchelonStack; the
    reduced columns whose pivot is inside are returned on their original
    rows, in the order of their positions.  They are a basis of the meet.
    Each lies inside: its pivot is its top row, and every outside row lies
    above every inside one.  A vector of the meet has its top row inside,
    and the pivots are distinct, so its top row is the highest pivot of the
    basis columns that write it, and all of those pivots are inside.
    """
    row_of = {i: k for k, i in enumerate(inside)}
    m = len(inside)
    stack = EchelonStack(p)
    for k, col in enumerate(columns):
        stack.push(k, {row_of.get(i, m + i): c for i, c in col.items()})
    return [(k, {inside[r]: c for r, c in stack.pivots[low].items()})
            for k, low in enumerate(stack._lows) if low is not None and low < m]


def residual(vector, basis, p):
    """Reduce a vector against an echelon basis {pivot row: column}; {} means it lies in the span.

    The basis is read, not copied or changed.  Reduction stops at the first
    top row that is no pivot, which is all a membership test needs.
    """
    return _residual_dict(dict(vector), basis, p)


def cleared(vector, basis, p):
    """The vector minus the combination of an echelon basis {pivot row:
    column} that leaves no entry on a pivot row: the one such member of its
    coset modulo the span, whatever basis of it is given.

    Pivot rows are cleared from the top down, so a cleared row is never
    written again.  The basis is read, not copied or changed.
    """
    c = dict(vector)
    while rows := c.keys() & basis.keys():
        low = max(rows)
        eliminate(c, basis[low], low, p)
    return c


class EchelonStack:
    """The echelon basis of a list of columns that grows and shrinks at its end.

    pivots is, after any sequence of push, truncate and rebase, the pivot
    map that echelonize builds from the columns pushed and not cut off, in
    their order: each push reduces its column against the pivots already
    there and records the pivot row it added (None for a column in their
    span), so truncate only deletes the rows that the pushes it cuts added.
    keys holds the caller's name for each column.
    """

    def __init__(self, p: int):
        self.p = p
        self.keys: list = []
        self.pivots: dict[int, dict[int, int]] = {}
        self._lows: list[int | None] = []

    def push(self, key, column) -> None:
        c = _residual_dict(dict(column), self.pivots, self.p)
        low = max(c) if c else None
        if c:
            self.pivots[low] = c
        self.keys.append(key)
        self._lows.append(low)

    def truncate(self, size: int) -> None:
        """Cut the stack back to its first size columns."""
        while len(self.keys) > size:
            self.keys.pop()
            low = self._lows.pop()
            if low is not None:
                del self.pivots[low]

    def rebase(self, items) -> None:
        """Make the stack hold exactly items, a list of (key, column), in order.

        The longest prefix of pushes whose keys match items is kept and the
        rest of items pushed.  A caller names each column by one key, so a
        matching key means the same column pushed at the same place, and the
        pivots are those of a stack built from items alone.
        """
        size = 0
        for key, (k, _) in zip(self.keys, items):
            if key != k:
                break
            size += 1
        self.truncate(size)
        for key, column in items[size:]:
            self.push(key, column)
