"""Analysis of state-dependent reflecting random walks on a half-strip.

Models are level-structured Markov chains: a boundary layer, a finite
level-dependent prefix, and a constant tail. The package computes exit
probabilities and the associated branching structure, certifies recurrence
classifications, evaluates the stationary distribution in closed form with
its geometric decay rate, and verifies everything against two independent
oracles (a truncated linear solve and a seeded simulator).

A model is solved once, by ``data = branching_data(model, tol)``, and
every downward quantity reads that one result: ``classify(data)``,
``stationary_dist(data)``, ``decay_rate(data)`` and the series.
"""

__version__ = "0.1.0"

from .linalg import (
    NoConvergenceError,
    NotStochasticError,
    ReducibleChainError,
    SingularMatrixError,
    invert,
    spectral_radius,
    stationary_left_vector,
)
from .model import (
    BlockTriple,
    GammaTooSmallError,
    GeneratorModel,
    GeneratorTriple,
    ModelFormatError,
    QbdModel,
    RetrySchedule,
    ValidationReport,
    Violation,
    as_chain,
    build_retrial,
    default_gamma,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    uniformize,
    validate,
    validation_errors,
)
from .branching import (
    BoundaryVisits,
    BranchingData,
    SeriesValue,
    boundary_exit_up,
    branching_data,
    exit_down_seq,
    exit_down_tail,
    exit_up_seq,
    exit_up_tail,
    expected_boundary_visits,
    expected_visits_ascent,
    expected_visits_descent,
    offspring_pmf,
    series_down_weighted,
)
from .classify import (
    INCONCLUSIVE,
    NULL_RECURRENT,
    POSITIVE_RECURRENT,
    TRANSIENT,
    Classification,
    classify,
    expected_return_time,
    return_time_bound,
)
from .stationary import (
    DecayReport,
    NotPositiveRecurrentError,
    StationaryResult,
    TailNotPositiveRecurrentError,
    balance_residual,
    censored_matrix,
    censored_measure,
    decay_rate,
    expand_rows,
    matrix_product_check,
    result_to_csv,
    result_to_dict,
    stationary_dist,
)
from .oracle import (
    ExitConfig,
    ExitEstimate,
    MaxStepsExceededError,
    SimConfig,
    SimStats,
    TruncatedSolution,
    cell_deviations,
    estimate_exit_probability,
    simulate,
    truncated_solve,
)

__all__ = [
    "__version__",
    # linear algebra
    "invert", "spectral_radius", "stationary_left_vector",
    "SingularMatrixError", "NotStochasticError", "ReducibleChainError",
    "NoConvergenceError",
    # models
    "BlockTriple", "QbdModel", "GeneratorTriple", "GeneratorModel",
    "RetrySchedule", "Violation", "ValidationReport",
    "ModelFormatError", "GammaTooSmallError", "validate", "validation_errors",
    "default_gamma",
    "uniformize", "build_retrial", "as_chain", "load_model", "save_model",
    "model_to_dict", "model_from_dict",
    # branching structure
    "BranchingData", "SeriesValue", "BoundaryVisits", "branching_data",
    "boundary_exit_up", "exit_up_seq", "exit_up_tail", "exit_down_tail",
    "exit_down_seq", "series_down_weighted",
    "expected_boundary_visits", "offspring_pmf",
    "expected_visits_ascent", "expected_visits_descent",
    # classification
    "Classification", "classify", "return_time_bound", "expected_return_time",
    "POSITIVE_RECURRENT", "NULL_RECURRENT", "TRANSIENT", "INCONCLUSIVE",
    # stationary distribution
    "StationaryResult", "DecayReport", "stationary_dist", "censored_matrix",
    "censored_measure", "matrix_product_check", "balance_residual",
    "decay_rate", "result_to_csv", "result_to_dict", "expand_rows",
    "NotPositiveRecurrentError", "TailNotPositiveRecurrentError",
    # oracles
    "TruncatedSolution", "truncated_solve", "SimConfig", "SimStats", "simulate",
    "ExitConfig", "ExitEstimate", "estimate_exit_probability",
    "cell_deviations", "MaxStepsExceededError",
]
