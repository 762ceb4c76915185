"""Exact cell atlas of the totally nonnegative part of the wonderful
compactification of PGL_n (adjoint type A), at desk scale n ≤ 5.

Everything is exact rational arithmetic: parametrize, sample, classify and
verify the positive cells of every boundary stratum, the entrywise
positivity criterion in fundamental representations, and the cell
dimension formula via exact Jacobian ranks.
"""

from .weyl import (
    ParabolicSubset,
    PositiveSubexpression,
    ReducedWord,
    WeylElement,
    bruhat_leq,
    inversion_set,
    positive_subexpression,
)
from .matgroup import (
    FlagPoint,
    GroupMatrix,
    ParabolicPoint,
    associated_borel,
    bruhat_position,
    generator_x,
    generator_y,
    opposed,
    sdot,
    torus,
)
from .exterior import (
    EmbeddingData,
    UnsupportedStratumError,
    compound,
    embedding_data,
)
from .tnn import (
    DoubleCellPoint,
    MRChart,
    double_cell_evaluate,
    is_totally_nonneg,
    is_totally_positive,
    mr_evaluate,
    phi_minus,
    phi_plus,
    sample_G_gt0,
    sample_L_ge0,
)
from .strata import (
    CompactPoint,
    act,
    base_point,
    iJ_of_point,
    membership_Zgt0,
    positive_retraction,
    psibar,
    torus_limit,
)
from .cells import (
    CellLabel,
    CellSample,
    classify,
    dimension_of,
    enumerate_cells,
    jacobian_rank_check,
    sample_cell,
    top_label,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
