"""Adaptive approximation of the minimum of Brownian motion on [0, 1].

The package provides exact dyadic bisection bookkeeping, exact Brownian
bridge sampling (interior points and segment minima), a lazily sampled
Brownian path oracle, the adaptive split-score search itself, and a
reproducible Monte Carlo harness with an equidistant baseline.
"""

from .bridge import (
    BridgeSegment,
    bridge_min_cdf,
    bridge_min_sample,
    interior_sample,
    segment_minima,
)
from .dyadic import (
    DEFAULT_LEVEL_CAP,
    ONE,
    ZERO,
    DepthExceededError,
    DyadicPoint,
    Skeleton,
    midpoint,
)
from .harness import (
    ADAPTIVE,
    EQUIDISTANT,
    ErrorEstimate,
    ExperimentPlan,
    equidistant_error,
    estimate_lp_error,
    fit_rate,
    lambda_suggestion,
    run_equidistant,
    run_equidistant_replications,
    run_experiment,
    run_experiments,
    run_replication,
    run_replications,
    sample_path_minimum,
    sample_true_min,
    write_errors_csv,
)
from .minimizer import (
    BlockResult,
    MinimizerConfig,
    MinimizerState,
    ScoreBoundCheck,
    StepTrace,
    Trace,
    check_score_bound,
    init_state,
    run,
    search_block,
    search_offset,
    select_split,
    split_scores,
    step,
    write_trace_csv,
)
from .oracle import BrownianOracle, DeterministicOracle, PathOracle, grid_reference_min
from .rng import RngStream

__version__ = "0.1.0"

__all__ = [
    "ADAPTIVE",
    "BlockResult",
    "BridgeSegment",
    "BrownianOracle",
    "DEFAULT_LEVEL_CAP",
    "DepthExceededError",
    "DeterministicOracle",
    "DyadicPoint",
    "EQUIDISTANT",
    "ErrorEstimate",
    "ExperimentPlan",
    "MinimizerConfig",
    "MinimizerState",
    "ONE",
    "PathOracle",
    "RngStream",
    "ScoreBoundCheck",
    "Skeleton",
    "StepTrace",
    "Trace",
    "ZERO",
    "bridge_min_cdf",
    "bridge_min_sample",
    "check_score_bound",
    "equidistant_error",
    "estimate_lp_error",
    "fit_rate",
    "grid_reference_min",
    "init_state",
    "interior_sample",
    "lambda_suggestion",
    "midpoint",
    "run",
    "run_equidistant",
    "run_equidistant_replications",
    "run_experiment",
    "run_experiments",
    "run_replication",
    "run_replications",
    "sample_path_minimum",
    "sample_true_min",
    "search_block",
    "search_offset",
    "segment_minima",
    "select_split",
    "split_scores",
    "step",
    "write_errors_csv",
    "write_trace_csv",
]
