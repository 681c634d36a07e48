"""Endofunctors on presentations and their interleaving witnesses.

Four transforms act on a presentation while certifying how far they move it
in the interleaving distance:

* merge_module snaps all grades onto a grid's delta-neighborhood projection
  (distance at most delta);
* translate_image presents the image of the internal diagonal translation;
* simplify is the shifted translation image, which deletes features shorter
  than eps (distance at most eps);
* grid_align chains simplify/merge twice with factors (2, 10, 20) of a base
  step, for a composed witness of 34 steps total.

Witnesses are sparse generator-to-generator matrices with the grade shift
implied: entry (i -> j, c) means c * x^(gr_i + eps - gr_j) applied to the
target generator.  They compose by matrix product, and the metrics module
checks them independently.

Joint presentations interpolate between two modules along the straight-line
path of an eps-interleaving, with endpoints isomorphic to the two modules.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from .grades import Grade, GridFunction, controlling_constant, merge_delta, rat, snap_grade
from .presentation import (
    Below,
    Generator,
    Presentation,
    PresentationError,
    Relation,
    _leq,
    bits,
    common_scale,
    make_column,
    minimize,
    scale_grade,
)

# step multiples of the base budget used by grid_align, and their total
PIPELINE_FACTORS: tuple[int, ...] = (2, 2, 10, 20)
PIPELINE_TOTAL: int = sum(PIPELINE_FACTORS)


@dataclass(frozen=True)
class InterleavingWitness:
    """Candidate eps-interleaving between two presentations.

    f maps source generators into the target (grade shift eps), g maps
    target generators back; entries are (src index, dst index) -> coeff.
    """

    epsilon: Fraction
    f: tuple[tuple[int, int, int], ...]
    g: tuple[tuple[int, int, int], ...]

    def f_dict(self) -> dict[tuple[int, int], int]:
        return {(i, j): c for i, j, c in self.f}

    def g_dict(self) -> dict[tuple[int, int], int]:
        return {(i, j): c for i, j, c in self.g}


def _matrix(entries: dict[tuple[int, int], int], p: int) -> tuple[tuple[int, int, int], ...]:
    out = []
    for (i, j), c in sorted(entries.items()):
        c %= p
        if c:
            out.append((i, j, c))
    return tuple(out)


def compose_witnesses(w1: InterleavingWitness, w2: InterleavingWitness, p: int) -> InterleavingWitness:
    """Witness for the composite interleaving at epsilon_1 + epsilon_2."""
    def product(a: dict, b: dict) -> dict:
        out: dict[tuple[int, int], int] = {}
        for (i, j), c in a.items():
            for (j2, k), d in b.items():
                if j == j2:
                    out[(i, k)] = (out.get((i, k), 0) + c * d) % p
        return out

    f = product(w1.f_dict(), w2.f_dict())
    g = product(w2.g_dict(), w1.g_dict())
    return InterleavingWitness(w1.epsilon + w2.epsilon, _matrix(f, p), _matrix(g, p))


# -- the functors -----------------------------------------------------------------


def merge_module(P: Presentation, grid: GridFunction, delta, variant: str = "two_sided",
                 minimized: bool = True) -> Presentation:
    """Regrade every generator and relation through the grid merge map.

    Columns are unchanged; homogeneity survives because merging preserves
    the partial order.  The result is minimized unless told otherwise.
    """
    out, _ = merge_with_witness(P, grid, delta, variant)
    return minimize(out) if minimized else out


def merge_with_witness(P: Presentation, grid: GridFunction, delta, variant: str = "two_sided"):
    """Raw merged presentation plus the identity-coefficient delta-witness.

    f(b) = x^(delta + (b - merge(b))) merge(b) and symmetrically for g, the
    grade gaps being bounded by delta coordinate-wise.
    """
    d = merge_delta(grid, delta, P.n, variant)
    gens = tuple(
        Generator(g.label, snap_grade(grid, d, g.grade, variant)) for g in P.gens
    )
    rels = tuple(
        Relation(snap_grade(grid, d, r.grade, variant), r.col) for r in P.rels
    )
    out = Presentation(P.n, P.p, gens, rels)
    ident = _matrix({(i, i): 1 for i in range(len(P.gens))}, P.p)
    return out, InterleavingWitness(d, ident, ident)


def _image_relations(P: Presentation, e: Fraction) -> list[tuple[Grade, dict[int, int]]]:
    """Relations of the eps-translation image, graded in the image's frame.

    At a grade s the image's relation space is the span of the original
    columns active by s, intersected with the coordinates of generators
    already translated past s (those with gr(b) + eps <= s).  The
    intersection only jumps on the product grid of relation coordinates and
    translated generator coordinates, so sweeping those grid points in a
    linear extension and keeping each new intersection element yields a
    finite generating set.  When every relation dominates its support by
    eps this reduces to regrading each column to gr(r) v (support + eps);
    entangled columns additionally shed eliminated combinations early.

    The sweep runs on integer grades: the relation grades and the translated
    generator grades are scaled once by the lcm S of their denominators, and
    the grid points, integer tuples in lexicographic order, become Grades
    again only when a relation is kept.  The active relations and the early
    generators at a point are bitmasks read off a Below index.  A point
    whose key (active relations, early generators) already occurred is
    skipped, and the skip is exact.
    Let s0 be the first point in lex order with key K and s a later one.
    Their meet is a grid point with key K and is not lex-later than s0, so it
    is s0, and s0 <= s.  The pure columns at s are those at s0, and every
    relation kept at or before s0 is known at s, so every residual at s is 0.
    """
    from . import kernels

    if not P.rels:
        return []
    shifted = [g.grade.translate(e) for g in P.gens]
    S = common_scale(c for x in [r.grade for r in P.rels] + shifted for c in x.coords)
    rels = [scale_grade(r.grade, S) for r in P.rels]
    gens = [scale_grade(x, S) for x in shifted]
    axes = [sorted({x[k] for x in rels + gens}) for k in range(P.n)]
    rels_below, gens_below = Below(rels, P.n), Below(gens, P.n)

    out: list[tuple[Grade, dict[int, int]]] = []
    out_grades: list[tuple[int, ...]] = []
    seen = set()
    for s in itertools.product(*axes):
        act, ear = rels_below(s), gens_below(s)
        if not act or (act, ear) in seen:
            continue
        seen.add((act, ear))
        early = bits(ear)
        # order rows so late generators take pivot priority; echelon columns
        # whose pivot lands early are then supported purely on early rows
        order = early + [i for i in range(len(gens)) if not ear >> i & 1]
        row_of = {i: k for k, i in enumerate(order)}
        cols = [{row_of[i]: c for i, c in P.rels[k].col} for k in bits(act)]
        basis = kernels.echelonize(cols, P.p)
        pure = [col for low, col in basis if low < len(early)]
        if not pure:
            continue
        have = [
            {row_of[i]: c for i, c in col.items()}
            for t, (_, col) in zip(out_grades, out)
            if _leq(t, s)
        ]
        known = kernels.echelonize(have, P.p)
        for col in pure:
            res = kernels.residual(col, known, P.p)
            if res:
                known.append((max(res), res))
                vec = {order[row]: c for row, c in col.items()}
                out.append((Grade(Fraction(v, S) for v in s), vec))
                out_grades.append(s)
    return out


def translate_image(P: Presentation, eps) -> Presentation:
    """Presentation of the image of the internal eps-translation.

    Generators move up by eps diagonally; the relations generate, grade by
    grade, exactly the kernel of the induced surjection, which contains each
    original column at gr(r) v (support + eps) plus any combinations that
    eliminate late generators.
    """
    e = rat(eps)
    if e < 0:
        raise PresentationError("eps must be nonnegative")
    if e == 0:
        return P
    gens = tuple(Generator(g.label, g.grade.translate(e)) for g in P.gens)
    rels = tuple(
        Relation(grade, make_column(col, P.p)) for grade, col in _image_relations(P, e)
    )
    return Presentation(P.n, P.p, gens, rels)


def simplify(P: Presentation, eps, minimized: bool = True) -> Presentation:
    """Delete features shorter than eps: the eps-shifted translation image.

    Generators keep their grades; relations are those of the translation
    image pulled back down by eps, i.e. each original column at the
    componentwise max of (its grade - eps) with the join of its support
    generators, together with the eliminated combinations entangled columns
    give off.
    """
    out, _ = simplify_with_witness(P, eps)
    return minimize(out) if minimized else out


def simplify_with_witness(P: Presentation, eps):
    """Raw simplified presentation plus the generator-identity eps-witness."""
    e = rat(eps)
    if e < 0:
        raise PresentationError("eps must be nonnegative")
    ident = _matrix({(i, i): 1 for i in range(len(P.gens))}, P.p)
    if e == 0:
        return P, InterleavingWitness(e, ident, ident)
    gens = tuple(P.gens)
    rels = tuple(
        Relation(grade.translate(-e), make_column(col, P.p))
        for grade, col in _image_relations(P, e)
    )
    out = Presentation(P.n, P.p, gens, rels)
    return out, InterleavingWitness(e, ident, ident)


def shift_with_witness(P: Presentation, delta):
    """Diagonal translate of P plus its identity delta-witness."""
    from .presentation import shift

    d = rat(delta)
    if d < 0:
        raise PresentationError("shift witness needs delta >= 0")
    out = shift(P, d)
    ident = _matrix({(i, i): 1 for i in range(len(P.gens))}, P.p)
    return out, InterleavingWitness(d, ident, ident)


def interleaving_witness(P: Presentation, kind: str, **params):
    """Transformed module plus witness; kind is 'shift', 'merge' or 'simplify'."""
    if kind == "shift":
        return shift_with_witness(P, params["delta"])
    if kind == "merge":
        return merge_with_witness(P, params["grid"], params["delta"],
                                  params.get("variant", "two_sided"))
    if kind == "simplify":
        return simplify_with_witness(P, params["eps"])
    raise ValueError(f"unknown witness kind {kind!r}")


@dataclass(frozen=True)
class GridAlignResult:
    module: Presentation        # minimized final module
    raw: Presentation           # unminimized final, indexed like the witness
    witness: InterleavingWitness
    budget: Fraction            # total certified interleaving distance


def grid_align(P: Presentation, grid: GridFunction, kap_eps) -> GridAlignResult:
    """Simplify/merge pipeline pulling Betti grades onto the grid.

    Applies simplify(2k) -> merge(grid, 2k) -> simplify(10k) -> merge(grid, 20k)
    where k is the base budget; requires c(grid) > 40k and certifies the
    composite interleaving at 34k by chaining the step witnesses.
    """
    k = rat(kap_eps)
    if k < 0:
        raise PresentationError("base budget must be nonnegative")
    c = controlling_constant(grid)
    if not c > 40 * k:
        raise PresentationError(
            f"grid controlling constant must exceed 40x the base budget (got c={c}, budget={k})"
        )
    s1, w1 = simplify_with_witness(P, 2 * k)
    m1, w2 = merge_with_witness(s1, grid, 2 * k)
    s2, w3 = simplify_with_witness(m1, 10 * k)
    m2, w4 = merge_with_witness(s2, grid, 20 * k)
    w = compose_witnesses(compose_witnesses(compose_witnesses(w1, w2, P.p), w3, P.p), w4, P.p)
    return GridAlignResult(minimize(m2), m2, w, PIPELINE_TOTAL * k)


# -- joint presentations and interpolation ------------------------------------------


@dataclass(frozen=True)
class JointPresentation:
    """Presentations of two eps-interleaved modules over a shared generator pool.

    x_m/x_n hold each module's generators at their own grades; r_m/r_n are
    homogeneous relation sets over the concatenated generators (x_m first),
    graded in the owning module's frame.  interpolate() slides x_m up by
    t*eps and x_n up by (1-t)*eps.
    """

    n: int
    p: int
    epsilon: Fraction
    x_m: tuple[Generator, ...]
    x_n: tuple[Generator, ...]
    r_m: tuple[Relation, ...]
    r_n: tuple[Relation, ...]

    def __post_init__(self):
        if rat(self.epsilon) < 0:
            raise PresentationError("joint presentation needs eps >= 0")
        for t in (0, 1):
            interpolate(self, t)  # endpoint homogeneity is the validity test


def interpolate(J: JointPresentation, t) -> Presentation:
    """Waypoint of the straight-line interleaving path, t in [0, 1].

    gamma(0) presents the first module, gamma(1) the second; in between the
    two generator families slide toward each other by t*eps and (1-t)*eps.
    """
    tq = rat(t)
    if not 0 <= tq <= 1:
        raise PresentationError(f"interpolation parameter {tq} outside [0, 1]")
    e = rat(J.epsilon)
    up_m = tq * e
    up_n = (1 - tq) * e
    gens = tuple(
        [Generator(f"m.{g.label}", g.grade.translate(up_m)) for g in J.x_m]
        + [Generator(f"n.{g.label}", g.grade.translate(up_n)) for g in J.x_n]
    )
    rels = tuple(
        [Relation(r.grade.translate(up_m), r.col) for r in J.r_m]
        + [Relation(r.grade.translate(up_n), r.col) for r in J.r_n]
    )
    return Presentation(J.n, J.p, gens, rels)


def translate_joint(P: Presentation, eps) -> JointPresentation:
    """Joint presentation of P and its diagonal eps-translate.

    Cross relations identify each generator with its shifted copy on both
    sides, so every waypoint is isomorphic to the fractional translate.
    """
    e = rat(eps)
    if e < 0:
        raise PresentationError("translate joints need eps >= 0")
    k = len(P.gens)
    x_m = tuple(P.gens)
    x_n = tuple(Generator(g.label, g.grade.translate(e)) for g in P.gens)
    minus_one = P.p - 1
    r_m = list(P.rels)
    for i, g in enumerate(P.gens):
        col = make_column({k + i: 1, i: minus_one}, P.p)
        r_m.append(Relation(g.grade.translate(2 * e), col))
    r_n = [Relation(r.grade.translate(e), r.col) for r in P.rels]
    for i, g in enumerate(P.gens):
        col = make_column({k + i: 1, i: minus_one}, P.p)
        r_n.append(Relation(g.grade.translate(e), col))
    return JointPresentation(P.n, P.p, e, x_m, x_n, tuple(r_m), tuple(r_n))
