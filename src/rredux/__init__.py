"""Feature selection for categorical decision tables.

Computes a single reduct (a reduced condition-attribute set) by
measuring pairwise similarity between the decision-refined
indiscernibility partitions of the attributes, then greedily covering
the similarity structure.  Includes ChiMerge discretization for numeric
columns and a stratified cross-validation harness that compares
classification accuracy on the full versus the reduced attribute set.
"""

from .discretize import IntervalMap, chimerge, discretize_columns
from .errors import DataError, ParseError, SchemaError, UsageError, ValidationError
from .evaluate import EvalReport, compare, cross_validate, stratified_folds
from .partition import blocks, consistency, relative_blocks
from .reduct import ReductResult, ass_gen, comp_sim, run_pipeline, sin_red_gen
from .similarity import SimilarityMatrix, matrix
from .table import DecisionTable, RawColumn, from_columns, parse_columns

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "DecisionTable",
    "EvalReport",
    "IntervalMap",
    "ParseError",
    "RawColumn",
    "ReductResult",
    "SchemaError",
    "SimilarityMatrix",
    "UsageError",
    "ValidationError",
    "ass_gen",
    "blocks",
    "chimerge",
    "comp_sim",
    "compare",
    "consistency",
    "cross_validate",
    "discretize_columns",
    "from_columns",
    "matrix",
    "parse_columns",
    "relative_blocks",
    "run_pipeline",
    "sin_red_gen",
    "stratified_folds",
    "__version__",
]
