"""Splitting predictive variance into aleatoric and epistemic parts.

Given S Monte Carlo draws of Gaussian predictions for one input, the law of
total variance splits the mixture variance into

* aleatoric: the average of the S predicted variances, and
* epistemic: the population variance (divisor S, not S - 1) of the S
  predicted means.

Total uncertainty is their sum, which equals the variance of the equal-weight
Gaussian mixture over the draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .posterior import FittedPosterior, _predict_draws


def _reduce_draws(
    means: np.ndarray, variances: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Axis-0 law-of-total-variance reduction over the S draws.

    The predictive mean is computed around the first draw so that S identical
    draws give an epistemic term of exactly zero.
    """
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(variances))):
        raise ValueError("draws contain non-finite values")
    if np.any(variances < 0):
        raise ValueError("drawn variances must be nonnegative")
    aleatoric = np.mean(variances, axis=0)
    center = means[0]
    mean_hat = center + np.mean(means - center, axis=0)
    deviations = means - mean_hat
    epistemic = np.mean(deviations * deviations, axis=0)
    return aleatoric, epistemic, aleatoric + epistemic, mean_hat


def decompose_arrays(
    means: np.ndarray, variances: np.ndarray
) -> tuple[float, float, float, float]:
    """(aleatoric, epistemic, total, predictive mean) from S draws for one input."""
    means = np.asarray(means, dtype=np.float64)
    variances = np.asarray(variances, dtype=np.float64)
    if means.ndim != 1 or means.shape != variances.shape or means.size == 0:
        raise ValueError(
            f"expected matching non-empty 1-D draw arrays, got {means.shape} and {variances.shape}"
        )
    aleatoric, epistemic, total, mean_hat = _reduce_draws(means, variances)
    return float(aleatoric), float(epistemic), float(total), float(mean_hat)


@dataclass
class BatchDecomposition:
    """Per-input uncertainty components and predictive means for a batch."""

    aleatoric: np.ndarray
    epistemic: np.ndarray
    total: np.ndarray
    mean: np.ndarray

    def __len__(self) -> int:
        return self.aleatoric.size


def decompose_batch(
    fp: FittedPosterior,
    inputs: np.ndarray,
    n_draws: int | None = None,
    seed: int = 0,
) -> BatchDecomposition:
    """Decompose every row of an input matrix under one shared set of draws.

    One call predicts every row under the same S parameter vectors, the rows
    of ``draw_parameter_matrix(fp, S, spawn_rng(seed, 301))``, streamed one
    draw at a time so that no (S, P) matrix is built.  Row i is therefore the
    decomposition of ``draw_prediction_arrays(fp, inputs[i], S, seed)`` (up
    to BLAS rounding), and it does not depend on which other rows are
    present.  Deep ensembles draw their K members, so the seed is unused.
    """
    return BatchDecomposition(*_reduce_draws(*_predict_draws(fp, inputs, n_draws, seed)))
