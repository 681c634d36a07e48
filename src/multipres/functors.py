"""Endofunctors on presentations and their interleaving witnesses.

Four transforms act on a presentation while certifying how far they move it
in the interleaving distance:

* merge_module snaps all grades onto a grid's delta-neighborhood projection
  (distance at most delta);
* translate_image presents the image of the internal diagonal translation;
* simplify is the shifted translation image, which deletes features shorter
  than eps (distance at most eps);
* grid_align chains simplify, merge, simplify, merge with the factors
  (2, 2, 10, 20) of a base step, for a composed witness of 34 steps total.

They read a module's integer grades and build their output in the same
form, at a common scale of the module, eps and the grid, with no Fraction
grade and unchecked (Presentation.trusted).  Witnesses are sparse
generator-to-generator matrices with the grade shift implied: entry (i -> j, c) means c * x^(gr_i + eps - gr_j)
applied to the target generator.  They compose by matrix product, and the
metrics module checks them independently.

Joint presentations interpolate between two modules along the straight-line
path of an eps-interleaving, with endpoints isomorphic to the two modules.
A joint presentation is one integer form, its waypoint at t = 0, and each
waypoint slides the two generator families by t*eps in its integer units.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .grades import GridFunction, controlling_constant, merge_delta, rat, snap_coordinates
from .presentation import (
    Below,
    Presentation,
    PresentationError,
    ScaledModule,
    bits,
    leq,
    rescaled,
    shift,
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


def by_source(matrix: dict[tuple[int, int], int]) -> dict[int, list[tuple[int, int]]]:
    """A witness matrix {(i, j): coeff} as {i: [(j, coeff), ...]}, entries in matrix order."""
    rows: dict[int, list[tuple[int, int]]] = {}
    for (i, j), d in matrix.items():
        rows.setdefault(i, []).append((j, d))
    return rows


def apply_rows(rows: dict[int, list[tuple[int, int]]], vec: dict[int, int], p: int) -> dict[int, int]:
    """The image of a vector {i: coeff} under a matrix given by_source."""
    out: dict[int, int] = {}
    for i, c in vec.items():
        for j, d in rows.get(i, ()):
            v = (out.get(j, 0) + c * d) % p
            if v:
                out[j] = v
            else:
                out.pop(j, None)
    return out


def _identity_witness(P: Presentation, eps: Fraction) -> InterleavingWitness:
    """Each generator of P to itself, both ways, at eps."""
    ident = tuple((i, i, 1) for i in range(len(P.labels)))
    return InterleavingWitness(eps, ident, ident)


def compose_witnesses(w1: InterleavingWitness, w2: InterleavingWitness, p: int) -> InterleavingWitness:
    """Witness for the composite interleaving at epsilon_1 + epsilon_2."""
    def product(a: dict, b: dict) -> dict:
        rows = by_source(b)
        return {(i, k): c for i, row in by_source(a).items()
                for k, c in apply_rows(rows, dict(row), p).items()}

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
    return out.minimal if minimized else out


def merge_with_witness(P: Presentation, grid: GridFunction, delta, variant: str = "two_sided"):
    """Raw merged presentation plus the identity-coefficient delta-witness.

    f(b) = x^(delta + (b - merge(b))) merge(b) and symmetrically for g, the
    grade gaps being bounded by delta coordinate-wise.

    The grades snap on integer axes, the grid, delta and P's integer grades
    times one scale S that clears all three, and the output is stored at S.
    """
    d = merge_delta(grid, delta, P.n, variant)
    S = math.lcm(P.scale, d.denominator, *(v.denominator for axis in grid.axes for v in axis))
    axes = [[v.numerator * S // v.denominator for v in axis] for axis in grid.axes]
    d_s = d.numerator * S // d.denominator

    def merged(points):
        return [tuple(snap_coordinates(axes, d_s, a, variant)) for a in rescaled(points, S // P.scale)]

    out = Presentation.trusted(P.n, P.p, S, P.labels, merged(P.scaled_gens), merged(P.scaled_rels), P.cols)
    return out, _identity_witness(P, d)


def _image_relations(P: Presentation, e: Fraction) -> tuple[ScaledModule, int, list[tuple[tuple[int, ...], dict]]]:
    """Relations of the eps-translation image, graded in the image's frame.

    At a grade s the image's relation space is the span of the original
    columns active by s, intersected with the coordinates of generators
    already translated past s (those with gr(b) + eps <= s): one
    kernels.intersect, whose columns are the pure relations at s.  The
    intersection only jumps on the product grid of relation coordinates and
    translated generator coordinates, so sweeping those grid points in a
    linear extension and keeping each new intersection element yields a
    finite generating set.

    The sweep runs on integer grades, on M = ScaledModule(P, S) with S the
    lcm of P's own scale and eps's denominator, and returns M, eps * S and
    the kept relations as (grid point, column), the grid points integer
    tuples in lexicographic order.

    The image of a direct sum is the sum of the images, so each block of
    M.blocks with relations is swept alone, in lex order over its own grid:
    its R relations' grades and its generators' grades plus eps * S.  Per
    axis, Below.runs gives each value with the mask of the block's points
    at or below it, relations first, so a point's key, the AND of its axis
    masks, holds the active relations in its low R bits and the early
    generators above them.  A point is intersected only where its key holds
    both (else the meet is 0) and is new.  The skip is exact: the points
    with key K are closed under meets (masks below a meet are ANDs), so the
    first of them in lex order, s0, is their meet and lies below every later
    one s.  The pure columns at s are those at s0, and every relation kept
    at or before s0 is known at s, so every residual at s is 0.

    The output is byte for byte that of one sweep over the whole module's
    grid, with a block's key its part of (active relations, early
    generators).  There too the points with key K are closed under meets,
    so their lex-least point is their meet.  Lowering any coordinate of it
    to the largest value of the block's own axis below it keeps the key, so
    that point lies on the block's own grid.  The same keys are therefore
    met in the same lex order, with the same intersect calls.

    A pure column is kept when it is not in the span of the relations kept
    at grades <= s and the ones kept before it at s.  That span is one
    EchelonStack per block in generator indices, keyed by each kept
    relation's index in the block's list and rebased at every point with
    pure columns, so the prefix of kept relations two points share is
    reduced once.  Membership in a span depends neither on its basis nor on
    the order of the rows.  A relation kept at t <= s lies in pure(t),
    inside pure(s), so the known span lies in pure(s) and at most len(pure)
    minus its rank can be kept at s: the loop stops once that many are, as
    every later residual is 0.  The blocks' kept relations are merged by
    (grid point, source relation), intersect's order over the whole module.
    """
    S = math.lcm(P.scale, e.denominator)
    M = ScaledModule(P, S)
    e_s = e.numerator * (S // e.denominator)
    kept: list[tuple[tuple[int, ...], int, dict[int, int]]] = []
    for gens, rels in (block for block in M.blocks if block[1]):
        R, G = bits(rels), bits(gens)
        low = (1 << len(R)) - 1  # the relation part of a key
        points = [M.rels[k][0] for k in R] + [tuple(v + e_s for v in M.gens[i]) for i in G]
        out, stack, seen = [], kernels.EchelonStack(P.p), set()
        for corner in itertools.product(*Below(points, P.n).runs()):
            key = -1
            for _, mask in corner:
                key &= mask
            if not (key & low and key >> len(R)) or key in seen:
                continue
            seen.add(key)
            s = tuple(v for v, _ in corner)
            sources = [R[j] for j in bits(key & low)]
            pure = kernels.intersect([M.rels[k][1] for k in sources], [G[j] for j in bits(key >> len(R))], P.p)
            if not pure:
                continue
            stack.rebase([(k, col) for k, (t, _, col) in enumerate(out) if leq(t, s)])
            room = len(pure) - len(stack.pivots)
            for k, col in pure:
                if not room:
                    break
                if kernels.residual(col, stack.pivots, P.p):
                    stack.push(len(out), col)
                    out.append((s, sources[k], col))
                    room -= 1
        kept += out
    kept.sort(key=lambda item: item[:2])
    return M, e_s, [(s, col) for s, _, col in kept]


def translate_image(P: Presentation, eps) -> Presentation:
    """Presentation of the image of the internal eps-translation.

    Generators move up by eps diagonally; the relations generate, grade by
    grade, exactly the kernel of the induced surjection, which contains each
    original column at gr(r) v (support + eps) plus any combinations that
    eliminate late generators: the raw simplified presentation moved up by eps.
    """
    out, _ = simplify_with_witness(P, eps)
    return shift(out, rat(eps))


def simplify(P: Presentation, eps, minimized: bool = True) -> Presentation:
    """Delete features shorter than eps: the eps-shifted translation image.

    Generators keep their grades; relations are those of the translation
    image pulled back down by eps, i.e. each original column at the
    componentwise max of (its grade - eps) with the join of its support
    generators, together with the eliminated combinations entangled columns
    give off.
    """
    out, _ = simplify_with_witness(P, eps)
    return out.minimal if minimized else out


def simplify_with_witness(P: Presentation, eps):
    """Raw simplified presentation plus the generator-identity eps-witness."""
    e = rat(eps)
    if e < 0:
        raise PresentationError("eps must be nonnegative")
    if e == 0:
        return P, _identity_witness(P, e)
    M, e_s, rels = _image_relations(P, e)
    out = Presentation.trusted(P.n, P.p, M.scale, P.labels, M.gens, [tuple(v - e_s for v in s) for s, _ in rels],
                               [tuple(sorted(col.items())) for _, col in rels])
    return out, _identity_witness(P, e)


def shift_with_witness(P: Presentation, delta):
    """Diagonal translate of P plus its identity delta-witness."""
    d = rat(delta)
    if d < 0:
        raise PresentationError("shift witness needs delta >= 0")
    out = shift(P, d)
    return out, _identity_witness(P, d)


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
    return GridAlignResult(m2.minimal, m2, w, PIPELINE_TOTAL * k)


# -- joint presentations and interpolation ------------------------------------------


@dataclass(frozen=True)
class JointPresentation:
    """Presentations of two eps-interleaved modules over a shared generator pool.

    Stored as one integer form, start = interpolate(J, 0): the first
    module's generators (labels m.*) then the second's (labels n.*), and the
    first module's relations then the second's, every column over both
    generator lists.  The first gens_m generators and rels_m relations are
    the first module's, at their own grades; the others are the second
    module's, moved up by eps.  interpolate(J, t) moves the first family up
    by t*eps and the second down by t*eps.
    """

    epsilon: Fraction
    start: Presentation
    gens_m: int
    rels_m: int

    @classmethod
    def from_integers(cls, n: int, p: int, eps, scale: int, labels, gens, rels, cols, gens_m: int,
                      rels_m: int) -> JointPresentation:
        """The joint presentation of two modules given as one integer form:
        labels, generator and relation grades at scale (each in its own
        module's frame) and columns, the first gens_m generators and rels_m
        relations the first module's.  Both endpoints are checked as
        Presentation.from_integers checks a module, t = 0 first; a rejected
        relation is indexed in that order."""
        e = rat(eps)
        if e < 0:
            raise PresentationError("joint presentation needs eps >= 0")
        S = math.lcm(scale, e.denominator)
        e_s = e.numerator * (S // e.denominator)
        labels = [("m." if i < gens_m else "n.") + label for i, label in enumerate(labels)]
        gens, rels = rescaled(gens, S // scale), rescaled(rels, S // scale)

        def at(up_m, up_n):
            return Presentation.from_integers(n, p, S, labels, _slid(gens, gens_m, up_m, up_n),
                                              _slid(rels, rels_m, up_m, up_n), cols)

        start = at(0, e_s)
        at(e_s, 0)
        return cls(e, start, gens_m, rels_m)


def _slid(points, k: int, up_m: int, up_n: int) -> list[tuple[int, ...]]:
    """Integer grades with the first k moved up by up_m and the others by up_n, on every axis."""
    return [tuple(v + (up_m if i < k else up_n) for v in a) for i, a in enumerate(points)]


def interpolate(J: JointPresentation, t) -> Presentation:
    """Waypoint of the straight-line interleaving path, t in [0, 1].

    gamma(0) presents the first module, gamma(1) the second; in between the
    two generator families slide toward each other by t*eps and (1-t)*eps.
    Homogeneity is linear in t, so the two checked endpoints vouch for every
    waypoint, built unchecked at a scale that clears t*eps.
    """
    tq = rat(t)
    if not 0 <= tq <= 1:
        raise PresentationError(f"interpolation parameter {tq} outside [0, 1]")
    P, e = J.start, tq * J.epsilon
    S = math.lcm(P.scale, e.denominator)
    d, factor = e.numerator * (S // e.denominator), S // P.scale
    return Presentation.trusted(P.n, P.p, S, P.labels, _slid(rescaled(P.scaled_gens, factor), J.gens_m, d, -d),
                                _slid(rescaled(P.scaled_rels, factor), J.rels_m, d, -d), P.cols)
