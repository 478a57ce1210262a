"""Sparse support recovery with orthogonal matching pursuit: noise-aware
stopping rules, exact restricted isometry constants, worst-case instance
constructions, and a seeded experiment harness."""

from .errors import (
    BudgetExceeded,
    DegenerateDenominator,
    DegenerateMatrix,
    DimensionMismatch,
    DuplicateIndex,
    GammaOutOfRange,
    IndexOutOfRange,
    InvalidDeltaOrder,
    InvalidOrder,
    NotProperSubset,
    OmpSharpError,
    OutOfSharpRegion,
    ParameterOutOfRange,
    ParseError,
    RankDeficient,
)
from .experiments import ExperimentConfig, run_experiment, write_experiment_outputs
from .instances import (
    Instance,
    build_counterexample_l2,
    build_counterexample_linf,
    build_example1,
    build_example2,
    build_example3,
    counterexample_correlations,
    counterexample_operator,
    example2_a_bound,
    example3_a_bound,
    l2_gamma_bound,
    lemma1_gap,
    linf_gamma_bound,
    random_frame_with_ric,
    random_matrix_with_ric,
    sample_l2_noise,
    sample_linf_noise,
)
from .linalg import columns_submatrix, least_squares, project_complement
from .omp import (
    CorrelationLInf,
    FixedIterations,
    OmpIteration,
    OmpTrace,
    ResidualL2,
    SparseSignal,
    StoppingRule,
    linf_stopping_threshold,
    min_magnitude_threshold_l2,
    min_magnitude_threshold_linf,
    prior_art_thresholds,
    run_omp,
    run_omps,
)
from .rip import RicReport, check_rip_inequality, exact_ric, in_sharp_region
from .serialize import (
    format_matrix_text,
    format_vector_text,
    instance_from_json_dict,
    instance_to_json_dict,
    parse_matrix_text,
    parse_vector_text,
)

__version__ = "1.0.0"
