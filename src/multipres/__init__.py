"""Finitely presented multiparameter persistence modules.

Exact-rational presentations over prime fields, the merge/simplification
functor calculus with composable interleaving witnesses, fibered barcodes by
line restriction, bottleneck/matching distances with certified interleaving
bounds, interlevel-set block extensions, and a CLI over bit-exact text
formats.
"""

from .grades import (
    Grade,
    GridFunction,
    LineSpec,
    controlling_constant,
    grid_from_grades,
    rat,
    rat_str,
)
from .presentation import (
    BettiData,
    Generator,
    Presentation,
    PresentationError,
    Relation,
    betti_and_grid,
    direct_sum,
    free,
    interval_rank,
    minimize,
    shift,
    staircase_interval,
)
from .fibered import Barcode, LineSample, barcode, restrict, simplify_barcode
from .functors import (
    GridAlignResult,
    InterleavingWitness,
    JointPresentation,
    PIPELINE_FACTORS,
    PIPELINE_TOTAL,
    compose_witnesses,
    grid_align,
    interpolate,
    merge_module,
    merge_with_witness,
    shift_with_witness,
    simplify,
    simplify_with_witness,
    translate_image,
)
from .metrics import (
    DistanceReport,
    LocalEquivalenceReport,
    VerifyReport,
    bottleneck,
    local_equivalence_experiment,
    matching_distance,
    path_length_d0,
    rank_lower_bound,
    sample_lines,
    verify_interleaving,
)
from .blocks import (
    Block,
    ExtendedRectangle,
    block_matching_distance,
    extend_block,
)

__version__ = "0.1.0"
