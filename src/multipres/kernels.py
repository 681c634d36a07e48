"""Sparse column reduction over a prime field F_p.

Columns are dicts {row index: nonzero coefficient mod p}.  Reduction is the
standard left-to-right scheme with max-index pivots, which serves three
masters: persistence pairing (pivot row = paired row), rank computation
(count of nonzero pivots) and span membership (residual after reducing
against an echelon basis).  reduce_pivots takes its columns with the
caller's indices and a row map, and relabels each entry once as it reads
the column; over F_2 it reads the relabelled rows as the bits of a Python
int and adds columns by XOR.  EchelonStack is an echelon basis grown column
by column that can be cut back to any prefix, for sweeps whose spans share
long prefixes.
"""

from __future__ import annotations

BACKEND = "pure"


def _inv_mod(c: int, p: int) -> int:
    return pow(c, p - 2, p)


def reduce_pivots(columns, p, rows):
    """Reduce columns in order; return the pivot row of each (-1 if zeroed).

    Column entries {i: coefficient} lie in row rows[i].  Each column is
    reduced against the previously committed columns sharing its current
    max-index row until the row is fresh or the column dies.
    """
    out = []
    if p == 2:
        masks: dict[int, int] = {}
        for col in columns:
            v = sum(1 << rows[i] for i in col)
            while v:
                low = v.bit_length() - 1
                other = masks.get(low)
                if other is None:
                    masks[low] = v
                    break
                v ^= other
            out.append(v.bit_length() - 1)
        return out
    piv: dict[int, dict[int, int]] = {}
    for col in columns:
        c = _residual_dict({rows[i]: v for i, v in col.items()}, piv, p)
        low = max(c, default=-1)
        if c:
            piv[low] = c
        out.append(low)
    return out


def _residual_dict(c, piv, p):
    while c:
        low = max(c)
        other = piv.get(low)
        if other is None:
            return c
        factor = (c[low] * _inv_mod(other[low], p)) % p if p != 2 else 1
        for row, val in other.items():
            new = (c.get(row, 0) - factor * val) % p
            if new:
                c[row] = new
            else:
                c.pop(row, None)
    return c


def _pivot_columns(columns, p) -> dict[int, dict[int, int]]:
    """Reduced columns of an echelon basis keyed by pivot row, in input order."""
    piv: dict[int, dict[int, int]] = {}
    for col in columns:
        c = _residual_dict(dict(col), piv, p)
        if c:
            piv[max(c)] = c
    return piv


def echelonize(columns, p) -> dict[int, dict[int, int]]:
    """Echelon basis of the column span: {pivot row: reduced column}, in input order."""
    return _pivot_columns(columns, p)


def rank(columns, p):
    return len(_pivot_columns(columns, p))


def residual(vector, basis, p):
    """Reduce a vector against an echelon basis {pivot row: column}; {} means it lies in the span.

    The basis is read, not copied or changed.
    """
    return _residual_dict(dict(vector), basis, p)


class EchelonStack:
    """The echelon basis of a list of columns that grows and shrinks at its end.

    pivots is, after any sequence of push and truncate, the pivot map that
    echelonize builds from the columns pushed and not cut off, in their
    order: each push reduces its column against the pivots already there
    and records the pivot row it added (None for a column in their span),
    so truncate only deletes the rows that the pushes it cuts added.  keys holds the
    caller's name for each column, so a caller can find the longest prefix
    it shares with the next list it needs.
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

    def residual(self, vector) -> dict[int, int]:
        """residual(vector, echelonize(columns), p) for the columns on the stack."""
        return _residual_dict(dict(vector), self.pivots, self.p)
