"""Text formats: FPRES presentations, BLOCKS, barcodes, witnesses, joints.

All formats are line-based with '#' comments and blank lines ignored, one
datum per line, rationals as grades.ratio reads them and integers as
grades.integer does (an FPRES column entry 'coeff:index' as
grades.integer_pair does); 'inf' is read only for bar deaths, the one
field whose format takes an infinite upper end (block endpoints are
finite, as Block requires).  An FPRES block and a barcode file are read
into, and written from, integer forms: each distinct rational token is
read once (_ratios), then all are put at the lcm of their denominators
(_at_lcm).  A joint file's two blocks are put at one scale.  Parsers
report the offending line; relation columns are checked by Presentation
alone, and the parsers map its errors to lines.  A barcode file holds at
most MAX_BARS bars, counted with multiplicity, so reading one never
expands into more memory than that.  The CLI writes FPRES and barcodes,
and their serializers round-trip bit-exact.
"""

from __future__ import annotations

import math

from .blocks import Block
from .fibered import Barcode
from .functors import InterleavingWitness, JointPresentation
from .grades import grade_text, integer, integer_pair, rat, ratio
from .presentation import Presentation, PresentationError, check_field, rescaled

INF = math.inf
# the most bars, counted with multiplicity, that a barcode file may hold
MAX_BARS = 10**6


class FormatError(ValueError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def parse_rational(tok: str, lineno: int = 0):
    """A finite exact rational, as grades.ratio reads it."""
    try:
        return rat(tok)
    except ValueError as exc:
        raise FormatError(lineno, f"bad rational {tok!r}") from exc


def _lines(text: str):
    """Meaningful lines as (lineno, tokens)."""
    for k, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if toks:
            yield k, toks


class _Cursor:
    """The meaningful lines (_lines) read one at a time; rest is what is left of them."""

    def __init__(self, text: str):
        self.rest = _lines(text)
        self.lineno = 1  # of the last line read, which an unexpected end of file names

    def next(self, what: str):
        item = next(self.rest, None)
        if item is None:
            raise FormatError(self.lineno, f"unexpected end of file, wanted {what}")
        self.lineno = item[0]
        return item

    def end(self) -> None:
        for lineno, toks in self.rest:
            raise FormatError(lineno, f"trailing content {' '.join(toks)!r}")


def _ratios(seen: dict[str, tuple[int, int]], toks: list[str], lineno: int) -> list[str]:
    """toks, after reading each token not yet in seen into it as a grades.ratio pair."""
    for t in toks:
        if t not in seen:
            try:
                seen[t] = ratio(t)
            except ValueError as exc:
                raise FormatError(lineno, f"bad rational {t!r}") from exc
    return toks


def _at_lcm(seen: dict[str, tuple[int, int]]) -> tuple[int, dict[str, int]]:
    """The lcm of the denominators of the ratio pairs seen, and each token's value times it."""
    scale = math.lcm(1, *{d for _, d in seen.values()})
    return scale, {t: v * (scale // d) for t, (v, d) in seen.items()}


# -- FPRES -------------------------------------------------------------------------


def serialize_fpres(P: Presentation) -> str:
    out = ["fpres 1", f"field {P.p}", f"params {P.n}", f"generators {len(P.labels)}"]
    out += [f"g {label} {grade}" for label, grade in zip(P.labels, grade_text(P.scaled_gens, P.scale))]
    out.append(f"relations {len(P.cols)}")
    for grade, col in zip(grade_text(P.scaled_rels, P.scale), P.cols):
        entries = " ".join(f"{c}:{i}" for i, c in col)
        out.append(f"r {grade} ; {entries}".rstrip())
    return "\n".join(out) + "\n"


def _parse_header(cur: _Cursor, key: str, what: str) -> tuple[int, list[str]]:
    lineno, toks = cur.next(what)
    if toks[0] != key:
        raise FormatError(lineno, f"expected {what}, got {' '.join(toks)!r}")
    return lineno, toks


def _header_value(cur: _Cursor, key: str, what: str) -> tuple[int, str]:
    lineno, toks = _parse_header(cur, key, what)
    if len(toks) != 2:
        raise FormatError(lineno, f"expected {what}")
    return lineno, toks[1]


def _header_count(cur: _Cursor, key: str, what: str, least: int = 0, check=None) -> int:
    """An integer header of at least least; check may reject it with a PresentationError."""
    lineno, tok = _header_value(cur, key, what)
    try:
        value = integer(tok)
    except ValueError:
        raise FormatError(lineno, f"bad {key} value {tok!r}, expected {what}") from None
    if value < least:
        raise FormatError(lineno, f"{key} value {value} is below {least}")
    if check is not None:
        try:
            check(value)
        except PresentationError as exc:
            raise FormatError(lineno, str(exc)) from None
    return value


def _parse_fpres_block(cur: _Cursor):
    """One fpres block as (header line, the arguments of Presentation.from_integers,
    each relation's line), columns unchecked.

    Each distinct grade token is read once per block (_ratios), and each
    column entry with one grades.integer_pair match.
    """
    seen: dict[str, tuple[int, int]] = {}
    start, toks = _parse_header(cur, "fpres", "'fpres 1' header")
    if toks[1:] != ["1"]:
        raise FormatError(start, "unsupported fpres version")
    p = _header_count(cur, "field", "'field <p>'", check=check_field)
    n = _header_count(cur, "params", "'params <n>'", least=1)
    k = _header_count(cur, "generators", "'generators <k>'")
    labels, gens = [], []
    for _ in range(k):
        lineno, toks = cur.next("generator line")
        if toks[0] != "g" or len(toks) != 2 + n:
            raise FormatError(lineno, f"expected 'g <label> <{n} rationals>'")
        labels.append(toks[1])
        gens.append(_ratios(seen, toks[2:], lineno))
    m = _header_count(cur, "relations", "'relations <m>'")
    rels, cols, lines = [], [], []
    for _ in range(m):
        lineno, toks = cur.next("relation line")
        if toks[0] != "r" or ";" not in toks:
            raise FormatError(lineno, "expected 'r <rationals> ; <coeff>:<gen-index> ...'")
        sep = toks.index(";")
        if sep != 1 + n:
            raise FormatError(lineno, f"relation needs {n} grade coordinates before ';'")
        at = _ratios(seen, toks[1:sep], lineno)
        col = []
        for ent in toks[sep + 1:]:
            try:
                c, i = integer_pair(ent)
            except ValueError as exc:
                raise FormatError(lineno, f"bad column entry {ent!r}") from exc
            col.append((i, c))
        rels.append(at)
        cols.append(tuple(sorted(col)))
        lines.append(lineno)
    scale, value = _at_lcm(seen)
    gens, rels = ([tuple(map(value.__getitem__, toks)) for toks in points] for points in (gens, rels))
    return start, n, p, scale, labels, gens, rels, cols, lines


def _validated(lines: list[int], build, *fields):
    """build(*fields), with a rejected relation reported at lines[its index]."""
    try:
        return build(*fields)
    except PresentationError as exc:
        raise FormatError(lines[exc.relation], str(exc)) from None


def parse_fpres(text: str) -> Presentation:
    cur = _Cursor(text)
    _, *fields, lines = _parse_fpres_block(cur)
    cur.end()
    return _validated(lines, Presentation.from_integers, *fields)


# -- joint presentations -------------------------------------------------------------


def parse_joint(text: str) -> JointPresentation:
    """An 'epsilon' header then two fpres blocks; relation columns index the
    concatenation of both generator lists (first block's generators first)."""
    cur = _Cursor(text)
    lineno, tok = _header_value(cur, "epsilon", "'epsilon <rational>' header")
    eps = parse_rational(tok, lineno)
    if eps < 0:
        raise FormatError(lineno, "epsilon must be nonnegative")
    (_, n, p, s_m, labels_m, G_m, R_m, cols_m, lines_m), (start, n2, p2, s_n, labels_n, G_n, R_n, cols_n, lines_n) = (
        _parse_fpres_block(cur) for _ in range(2))
    if (n, p) != (n2, p2):
        raise FormatError(start, "joint blocks disagree on field or parameter count")
    cur.end()
    # the columns index both blocks' generators, so the joint's endpoints check them, first block's relations first
    S = math.lcm(s_m, s_n)
    gens = [*rescaled(G_m, S // s_m), *rescaled(G_n, S // s_n)]
    rels = [*rescaled(R_m, S // s_m), *rescaled(R_n, S // s_n)]
    return _validated(lines_m + lines_n, JointPresentation.from_integers, n, p, eps, S, labels_m + labels_n, gens,
                      rels, cols_m + cols_n, len(labels_m), len(cols_m))


# -- barcodes ------------------------------------------------------------------------


def serialize_barcode(B: Barcode) -> str:
    ends = grade_text([(b,) if d == INF else (b, d) for b, d, _ in B.bars], B.scale)
    out = [f"bar {t}{' inf' if d == INF else ''} {m}" for t, (_, d, m) in zip(ends, B.bars)]
    return "\n".join(out) + ("\n" if out else "")


def parse_barcode(text: str) -> Barcode:
    seen, bars, total = {}, [], 0
    for lineno, toks in _lines(text):
        if toks[0] != "bar" or len(toks) != 4:
            raise FormatError(lineno, "expected 'bar <birth> <death|inf> <multiplicity>'")
        b, d = toks[1:3]
        _ratios(seen, [b] if d == "inf" else [b, d], lineno)
        try:
            m = integer(toks[3])
        except ValueError as exc:
            raise FormatError(lineno, f"bad multiplicity {toks[3]!r}") from exc
        if d != "inf" and seen[d][0] * seen[b][1] < seen[b][0] * seen[d][1]:
            raise FormatError(lineno, "bar dies before it is born")
        if m < 0:
            raise FormatError(lineno, "negative multiplicity")
        total += m
        if total > MAX_BARS:
            raise FormatError(lineno, f"more than {MAX_BARS} bars in the file")
        bars.append((b, d, m))
    scale, value = _at_lcm(seen)
    value["inf"] = INF
    return Barcode(scale, [(value[b], value[d], m) for b, d, m in bars])


# -- blocks --------------------------------------------------------------------------


def parse_blocks(text: str) -> list[Block]:
    cur = _Cursor(text)
    lineno, toks = _parse_header(cur, "blocks", "'blocks 1' header")
    if toks[1:] != ["1"]:
        raise FormatError(lineno, "unsupported blocks version")
    out = []
    for lineno, toks in cur.rest:
        if toks[0] != "blk" or len(toks) != 4:
            raise FormatError(lineno, "expected 'blk <kind> <a> <b>'")
        a = parse_rational(toks[2], lineno)
        b = parse_rational(toks[3], lineno)
        try:
            out.append(Block(toks[1], a, b))
        except ValueError as exc:
            raise FormatError(lineno, str(exc)) from exc
    return out


# -- witnesses -----------------------------------------------------------------------


def label_index(P: Presentation) -> dict[str, int]:
    """{label: index} of P's generators, which a witness file names, so no label may repeat."""
    index = {label: i for i, label in enumerate(P.labels)}
    if len(index) < len(P.labels):
        label = next(label for i, label in enumerate(P.labels) if index[label] != i)
        raise PresentationError(f"repeated generator label {label!r}, which a witness file cannot name")
    return index


def parse_witness(text: str, P: Presentation, Q: Presentation) -> InterleavingWitness:
    """The witness file's f and g rows, sources and targets in increasing order."""
    p_index, q_index = label_index(P), label_index(Q)
    cur = _Cursor(text)
    lineno, tok = _header_value(cur, "witness", "'witness <epsilon>' header")
    eps = parse_rational(tok, lineno)
    f, g = {}, {}  # source -> {target: coeff}
    for lineno, toks in cur.rest:
        if toks[0] not in ("f", "g") or len(toks) < 3 or toks[2] != "->":
            raise FormatError(lineno, "expected 'f|g <label> -> <coeff>:<label> ...'")
        src_index, dst_index, store = (p_index, q_index, f) if toks[0] == "f" else (q_index, p_index, g)
        if toks[1] not in src_index:
            raise FormatError(lineno, f"unknown source generator {toks[1]!r}")
        row = store.setdefault(src_index[toks[1]], {})
        for ent in toks[3:]:
            try:
                c_s, label = ent.split(":", 1)
                c = integer(c_s)
            except ValueError as exc:
                raise FormatError(lineno, f"bad entry {ent!r}") from exc
            if label not in dst_index:
                raise FormatError(lineno, f"unknown target generator {label!r}")
            if dst_index[label] in row:
                raise FormatError(lineno, f"repeated entry {toks[0]} {toks[1]} -> {label}")
            row[dst_index[label]] = c
    return InterleavingWitness(eps, *({i: tuple(sorted(row.items())) for i, row in sorted(rows.items())}
                                      for rows in (f, g)))
