"""Sparse support recovery with orthogonal matching pursuit: noise-aware
stopping rules, exact restricted isometry constants, worst-case instance
constructions, and a seeded experiment harness."""

from .errors import (
    BudgetExceeded,
    DegenerateDenominator,
    DegenerateMatrix,
    DimensionMismatch,
    GammaOutOfRange,
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
    l2_noises,
    lemma1_gaps,
    linf_gamma_bound,
    linf_noises,
    random_matrices_with_ric,
)
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
from .rip import RicReport, exact_ric, in_sharp_region
from .serialize import (
    format_matrix_text,
    instance_to_json_dict,
    parse_matrix_text,
)

__version__ = "1.0.0"
