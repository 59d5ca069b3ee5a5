"""Exact analysis of UMVUE structure in finite categorical models.

For a model with polynomial cell probabilities, the subalgebra of all
uniformly minimum variance unbiased estimators is generated by a unique
maximal partition of the support. This package computes that partition and
everything attached to it (zero-mean statistics, the parametric functions
admitting UMVUEs, minimal sufficiency and completeness diagnostics) in exact
rational arithmetic.
"""

from .analysis import (
    Estimability,
    EstimateResult,
    LengthMismatch,
    UmvueVerdict,
    expectation,
    is_complete,
    is_sufficient,
    is_umvue,
    minimal_sufficient_partition,
    umvue_for,
    umvue_functionals,
    zero_mean_space,
)
from .combine import (
    NoFreeParameters,
    OutOfDomain,
    ParameterCollision,
    product_model,
    product_partition,
    rename_parameters,
    slice_model,
)
from .corpus import (
    BadParam,
    GenerationFailed,
    UnknownName,
    corpus_model,
    corpus_names,
    random_model,
)
from .errors import UmvueError
from .expr import ParseError, UnknownParameter, ZeroDenominator, format_poly, parse_poly
from .linalg import Matrix, null_space, rank, rref
from .matroid import (
    GroundSetMismatch,
    ZeroColumn,
    common_coarsening,
    fundamental_circuit_graph,
    mve_partition,
    refines,
)
from .model import (
    CategoricalModel,
    InvalidModel,
    ModelFormatError,
    Partition,
    Statistic,
    ValidationIssue,
    ValidationReport,
    coefficient_matrix,
    load_model,
    model_from_json,
    model_to_json,
    require_valid,
    validate_model,
)
from .poly import MissingMonomial, Monomial, Polynomial, as_fraction, coeff_vector
from .report import AnalysisReport, analyze_model, render_text

__version__ = "0.1.0"
