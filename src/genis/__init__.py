"""Two-stage generalized importance sampling across multiple chains.

Stage 1 estimates ratios of normalizing constants from chains targeting
k unnormalized reference densities, with an asymptotic covariance from
batch means or regenerative tours.  Stage 2 reuses independent chains
to estimate normalizing ratios and expectations for a family of target
densities, with standard errors that account for the stage-1 noise.
"""

from .batch_means import BatchMeansSpec, bm_cov, bm_variance, block_size
from .densities import (
    Integrand,
    StateSpace,
    TargetFamily,
    UnnormalizedDensity,
    discrete_table_density,
    identity_integrand,
    mixture_density,
    t_density,
    t_family,
    t_log_density,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateDenominatorError,
    EstimationError,
    InsufficientDataError,
    InsufficientRegenerationError,
    InvalidModelError,
    UndefinedPointError,
)
from .importance import TargetResult, estimate_family
from .pipeline import (
    ExperimentConfig,
    OracleReport,
    ReplicationReport,
    TwoStageResult,
    config_from_dict,
    config_from_json,
    oracle_check,
    run_replications,
    run_two_stage,
)
from .regen import (
    ChainTours,
    collect_tours,
    rs_estimate_mean,
    rs_estimate_ratio,
    split_tours,
    tour_boundaries,
)
from .reverse_logistic import (
    RatioEstimate,
    StageWeights,
    estimate_ratios,
    fit_reverse_logistic,
    quasi_log_likelihood,
    quasi_score,
)
from .samplers import (
    ChainSample,
    SampleSet,
    derive_seed,
    discrete_mh,
    independence_mh,
    load_chain,
    sample_t_iid,
    sample_t_imh,
    save_chain,
)
from .weights import (
    effective_sample_size,
    inv_dist_weights,
    naive_weights,
    pilot_optimal_weights,
)

__version__ = "0.1.0"

__all__ = [
    "BatchMeansSpec",
    "ChainSample",
    "ChainTours",
    "ConfigError",
    "ConvergenceError",
    "DegenerateDenominatorError",
    "EstimationError",
    "ExperimentConfig",
    "InsufficientDataError",
    "InsufficientRegenerationError",
    "Integrand",
    "InvalidModelError",
    "OracleReport",
    "RatioEstimate",
    "ReplicationReport",
    "SampleSet",
    "StageWeights",
    "StateSpace",
    "TargetFamily",
    "TargetResult",
    "TwoStageResult",
    "UndefinedPointError",
    "UnnormalizedDensity",
    "bm_cov",
    "bm_variance",
    "block_size",
    "collect_tours",
    "config_from_dict",
    "config_from_json",
    "derive_seed",
    "discrete_mh",
    "discrete_table_density",
    "effective_sample_size",
    "estimate_family",
    "estimate_ratios",
    "fit_reverse_logistic",
    "identity_integrand",
    "independence_mh",
    "inv_dist_weights",
    "load_chain",
    "mixture_density",
    "naive_weights",
    "oracle_check",
    "pilot_optimal_weights",
    "quasi_log_likelihood",
    "quasi_score",
    "rs_estimate_mean",
    "rs_estimate_ratio",
    "run_replications",
    "run_two_stage",
    "sample_t_iid",
    "sample_t_imh",
    "save_chain",
    "split_tours",
    "t_density",
    "t_family",
    "t_log_density",
    "tour_boundaries",
]
