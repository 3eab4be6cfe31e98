"""Two-stage generalized importance sampling across multiple chains.

Stage 1 estimates ratios of normalizing constants from chains targeting
k unnormalized reference densities, with an asymptotic covariance from
batch means or regenerative tours.  Stage 2 reuses independent chains
to estimate normalizing ratios and expectations for a family of target
densities, with standard errors that account for the stage-1 noise.
"""

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
from .importance import estimate_family
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
from .reverse_logistic import estimate_ratios

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConvergenceError",
    "DegenerateDenominatorError",
    "EstimationError",
    "ExperimentConfig",
    "InsufficientDataError",
    "InsufficientRegenerationError",
    "InvalidModelError",
    "OracleReport",
    "ReplicationReport",
    "TwoStageResult",
    "UndefinedPointError",
    "config_from_dict",
    "config_from_json",
    "estimate_family",
    "estimate_ratios",
    "oracle_check",
    "run_replications",
    "run_two_stage",
]
