"""winduq: variance-based uncertainty decomposition for wind power regression.

Train a two-head Gaussian network under a variance-weighted NLL, approximate
the posterior over its weights (deep ensembles, Monte Carlo DropConnect, or
Bayes by backprop), and split the predictive variance of the resulting
Gaussian mixture into aleatoric and epistemic parts via the law of total
variance.
"""

from .data import (
    ColumnStats,
    PowerCurveSpec,
    RegressionDataset,
    ScadaTable,
    load_scada_csv,
    make_hourly_power_series,
    make_power_curve_table,
    make_sine_dataset,
    power_curve,
    preprocess_power_table,
    sine_conditional_variance,
    subsample_dataset,
    window_power_table,
    window_univariate_series,
)
from .losses import (
    TrainingConfig,
    TrainingDivergedError,
    TrainingTrace,
    learning_rate_at,
    train,
)
from .metrics import joint_density_ranks, mse, spearman
from .network import (
    ArchitectureSpec,
    forward_batch,
    init_parameters,
)
from .posterior import (
    SAMPLER_KINDS,
    FittedPosterior,
    PosteriorSampler,
    fit,
    load_posterior,
    save_posterior,
)
from .uncertainty import (
    BatchDecomposition,
    decompose_arrays,
    decompose_batch,
)

__version__ = "0.1.0"

__all__ = [
    "ArchitectureSpec",
    "BatchDecomposition",
    "ColumnStats",
    "FittedPosterior",
    "PosteriorSampler",
    "PowerCurveSpec",
    "RegressionDataset",
    "SAMPLER_KINDS",
    "ScadaTable",
    "TrainingConfig",
    "TrainingDivergedError",
    "TrainingTrace",
    "decompose_arrays",
    "decompose_batch",
    "fit",
    "forward_batch",
    "init_parameters",
    "joint_density_ranks",
    "learning_rate_at",
    "load_posterior",
    "load_scada_csv",
    "make_hourly_power_series",
    "make_power_curve_table",
    "make_sine_dataset",
    "mse",
    "power_curve",
    "preprocess_power_table",
    "save_posterior",
    "sine_conditional_variance",
    "spearman",
    "subsample_dataset",
    "train",
    "window_power_table",
    "window_univariate_series",
]
