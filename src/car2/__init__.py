"""CAR(2) lab: exact simulation, drift MLE, regime asymptotics, limit laws."""

from .estimate import (
    Estimate,
    SingularDesignError,
    SufficientStats,
    estimate_path,
    estimate_sigma,
    log_likelihood_ratio,
    mle,
    normalized_llr,
    sufficient_stats,
)
from .limits import BrownianFunctionals, LimitSampleSet, brownian_functionals, sample_limit
from .model import (
    FundamentalValues,
    ModelParams,
    Regime,
    RegimeKind,
    RootPair,
    TransitionKernel,
    char_roots,
    classify,
    classify_params,
    fundamental_solutions,
    transition,
)
from .montecarlo import (
    ExperimentConfig,
    ExperimentReport,
    NormalReference,
    convergence_study,
    ks_two_sample,
    run_experiment,
)
from .regimes import NlrrRates, NoNlrrError, RateSpec, nlrr_rate, rate_functions, scaling_matrix
from .simulate import SamplePath, SimConfig, SimulationOverflowError, rescale_time, simulate

__version__ = "0.1.0"

__all__ = [
    "BrownianFunctionals",
    "Estimate",
    "ExperimentConfig",
    "ExperimentReport",
    "FundamentalValues",
    "LimitSampleSet",
    "ModelParams",
    "NlrrRates",
    "NoNlrrError",
    "NormalReference",
    "RateSpec",
    "Regime",
    "RegimeKind",
    "RootPair",
    "SamplePath",
    "SimConfig",
    "SimulationOverflowError",
    "SingularDesignError",
    "SufficientStats",
    "TransitionKernel",
    "brownian_functionals",
    "char_roots",
    "classify",
    "classify_params",
    "convergence_study",
    "estimate_path",
    "estimate_sigma",
    "fundamental_solutions",
    "ks_two_sample",
    "log_likelihood_ratio",
    "mle",
    "normalized_llr",
    "rate_functions",
    "nlrr_rate",
    "rescale_time",
    "run_experiment",
    "sample_limit",
    "scaling_matrix",
    "simulate",
    "sufficient_stats",
    "transition",
    "__version__",
]
