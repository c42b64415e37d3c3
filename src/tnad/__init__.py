"""Explainable unsupervised anomaly detection with tensor networks.

Real-valued samples are encoded feature-by-feature in an orthonormal
polynomial basis and modeled by the squared amplitude of a matrix product
state or a tree tensor network. Training minimizes the negative
log-likelihood with two-site updates whose truncated SVDs adapt the bond
dimensions. Beyond scoring, the trained network's reduced density
matrices expose per-feature marginals, entropies, mutual information,
and conditional expected values for flagged features.
"""

from .benchmark import (
    BenchmarkResult,
    RunConfig,
    benchmark_arrays,
    run_benchmark,
)
from .data import (
    DatasetSpec,
    PollutionPlan,
    build_pollution,
    generate_anomalies,
    load_csv,
    stratified_folds,
    toy_correlated_pairs,
    toy_two_clusters,
)
from .encoding import (
    FeatureRescaler,
    LegendreFeatureMap,
    fit_rescaler,
    gauss_legendre_unit,
    orthonormal_basis,
)
from .errors import (
    ConditioningError,
    DataError,
    DegenerateInputError,
    DimensionError,
    FitError,
    NumericalError,
    ResourceLimitError,
    TnadError,
)
from .explain import (
    AnomalyExplanation,
    FeatureFlag,
    MarginalStats,
    MiMatrices,
    ReducedDensityMatrix,
    all_to_all_mi,
    conditional_expectations,
    conditional_rdm,
    explain_sample,
    flag_features,
    marginal_moments,
    mutual_information,
    reduced_density_matrix,
    von_neumann_entropy,
)
from .metrics import (
    auc_roc,
    eer_threshold,
    histogram_bin_count,
    histogram_mi,
    histogram_mi_matrix,
    score_samples,
)
from .mps import MpsModel
from .persist import load_model, save_model
from .tensors import SvdResult, truncated_svd
from .training import StepStats, TrainConfig, TrainReport, fit, nll_loss, two_site_gradient, two_site_step
from .ttn import TtnModel

__version__ = "0.1.0"

__all__ = [
    "AnomalyExplanation",
    "BenchmarkResult",
    "ConditioningError",
    "DataError",
    "DatasetSpec",
    "DegenerateInputError",
    "DimensionError",
    "FeatureFlag",
    "FeatureRescaler",
    "FitError",
    "LegendreFeatureMap",
    "MarginalStats",
    "MiMatrices",
    "MpsModel",
    "NumericalError",
    "PollutionPlan",
    "ReducedDensityMatrix",
    "ResourceLimitError",
    "RunConfig",
    "StepStats",
    "SvdResult",
    "TnadError",
    "TrainConfig",
    "TrainReport",
    "TtnModel",
    "all_to_all_mi",
    "auc_roc",
    "benchmark_arrays",
    "build_pollution",
    "conditional_expectations",
    "conditional_rdm",
    "eer_threshold",
    "explain_sample",
    "fit",
    "fit_rescaler",
    "flag_features",
    "gauss_legendre_unit",
    "generate_anomalies",
    "histogram_bin_count",
    "histogram_mi",
    "histogram_mi_matrix",
    "load_csv",
    "load_model",
    "marginal_moments",
    "mutual_information",
    "nll_loss",
    "orthonormal_basis",
    "reduced_density_matrix",
    "run_benchmark",
    "save_model",
    "score_samples",
    "stratified_folds",
    "toy_correlated_pairs",
    "toy_two_clusters",
    "truncated_svd",
    "two_site_gradient",
    "two_site_step",
    "von_neumann_entropy",
]
