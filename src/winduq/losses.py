"""Heteroscedastic regression objectives and the mini-batch training loop.

The central objective is the variance-weighted Gaussian negative log
likelihood: the plain NLL term is multiplied by the predicted variance raised
to a fixed power ``beta``, with the weight factor excluded from
differentiation (a stop-gradient).  ``beta = 0`` recovers the plain NLL;
``beta = 1`` makes the mean gradient independent of the predicted variance,
matching a squared-error fit of the mean.

Every sampler trains through the one mini-batch loop here: a (K, P) block
of parameter vectors, one row per network, each with its own shuffle
stream.  Per batch one residual feeds the weighted NLL, its gradients and
the squared error, and one in-place Adam step, the only optimizer, updates
the block.  A deep ensemble's K members train as one block; ``train`` (a
bare (P,) vector in and out) and the DropConnect and Bayes-by-backprop
samplers are the K = 1 case, with draws from :mod:`winduq.posterior`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import (
    ArchitectureSpec,
    _check_inputs,
    _check_params,
    _Pass,
    forward_batch,  # noqa: F401  kept importable here; perfbench/test_smoke.py looks it up
)
from .seeding import _check_int, _check_real, spawn_rng

# spawn_key tag of the per-epoch shuffle stream
_STREAM_SHUFFLE = 101


class TrainingDivergedError(RuntimeError):
    """Raised when a non-finite prediction, loss or gradient, or a variance that is not
    positive, appears during training."""


def _beta_nll(mu, sigma2, y, beta: float) -> tuple[np.ndarray, ...]:
    """(values, weights, d/d mean, d/d variance, squared residuals) of the
    weighted NLL of float64 arrays with positive variances, one residual feeding all."""
    r = mu - y
    r2 = r**2  # (y - mu)**2 bit for bit
    weight = sigma2**beta
    values = weight * (0.5 * np.log(sigma2) + r2 / (2.0 * sigma2))
    d_variance = (sigma2 - r2) / (2.0 * sigma2 ** (2.0 - beta))
    return values, weight, r / sigma2 ** (1.0 - beta), d_variance, r2


def _check_beta(beta: float) -> float:
    beta = _check_real("beta", beta)
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    return beta


def _checked_beta_nll(mu, sigma2, y, beta: float) -> tuple[np.ndarray, ...]:
    """``_beta_nll`` of array-likes, with beta and then the variances validated."""
    beta = _check_beta(beta)
    mu, sigma2, y = (np.asarray(a, dtype=np.float64) for a in (mu, sigma2, y))
    if not np.all(sigma2 > 0.0):  # written so that NaN variances fail too
        raise ValueError("predicted variance must be strictly positive")
    return _beta_nll(mu, sigma2, y, beta)


def beta_nll_terms(
    mu: np.ndarray, sigma2: np.ndarray, y: np.ndarray, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise weighted NLL values and their stop-gradient weights.

    The weight is sigma2**beta, treated as a constant during
    differentiation.  At beta = 0 the weight is exactly 1 and the values are
    bit-for-bit the plain NLL, 0.5 * log(sigma2) + (y - mean)**2 / (2 * sigma2).
    """
    return _checked_beta_nll(mu, sigma2, y, beta)[:2]


def beta_nll_grads(
    mu: np.ndarray, sigma2: np.ndarray, y: np.ndarray, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise loss derivatives (d/d mean, d/d variance).

    The weight factor is held fixed, so these are the stop-gradient
    derivatives:

        d/d mean     = (mean - y) / sigma2**(1 - beta)
        d/d variance = (sigma2 - (y - mean)**2) / (2 * sigma2**(2 - beta))
    """
    return _checked_beta_nll(mu, sigma2, y, beta)[2:4]


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters for one training run.

    ``lr_schedule`` is (initial rate, decay step in epochs, decay factor): the
    rate is multiplied by the factor once per completed decay step.
    ``kl_weight`` is only meaningful for variational posteriors and must be
    left None otherwise.
    """

    beta: float = 0.5
    epochs: int = 100
    batch_size: int = 128
    lr_schedule: tuple[float, int, float] = (1e-3, 100, 0.1)
    seed: int = 0
    kl_weight: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", _check_beta(self.beta))
        for name in ("epochs", "batch_size", "seed"):
            object.__setattr__(self, name, _check_int(name, getattr(self, name)))
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        rate, step, factor = self.lr_schedule
        rate, factor = (_check_real("an lr_schedule rate or factor", v) for v in (rate, factor))
        if rate <= 0 or _check_int("the lr_schedule decay step", step) < 1 or factor <= 0:
            raise ValueError(f"invalid lr_schedule {self.lr_schedule}")
        object.__setattr__(self, "lr_schedule", (rate, int(step), factor))
        if self.kl_weight is not None:
            object.__setattr__(self, "kl_weight", _check_real("kl_weight", self.kl_weight))
            if self.kl_weight <= 0:
                raise ValueError(f"kl_weight must be positive when given, got {self.kl_weight}")


def learning_rate_at(schedule: tuple[float, int, float], epoch: int) -> float:
    """Step-decay rate in effect during the given zero-based epoch."""
    initial, step, factor = schedule
    return float(initial * factor ** (epoch // step))


@dataclass
class TrainingTrace:
    """Per-epoch training record.

    ``mean_loss`` is the epoch's weighted-NLL data term per training row;
    ``kl`` is the weighted KL prior term on the same scale, 0 for samplers
    without a prior.  ``mse`` is the training MSE of the predicted means.
    """

    epoch: list[int] = field(default_factory=list)
    mean_loss: list[float] = field(default_factory=list)
    kl: list[float] = field(default_factory=list)
    mse: list[float] = field(default_factory=list)
    learning_rate: list[float] = field(default_factory=list)

    def append(self, epoch: int, mean_loss: float, kl: float, mse: float, lr: float) -> None:
        self.epoch.append(int(epoch))
        self.mean_loss.append(float(mean_loss))
        self.kl.append(float(kl))
        self.mse.append(float(mse))
        self.learning_rate.append(float(lr))

    def __len__(self) -> int:
        return len(self.epoch)


class Adam:
    """Adam with the usual bias-corrected moment estimates, over a parameter block."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, shape: tuple[int, ...]):
        self.m, self.v, self.t = np.zeros(shape), np.zeros(shape), 0
        self._a, self._b = np.empty(shape), np.empty(shape)  # scratch: a step allocates nothing

    def step(self, params: np.ndarray, grad: np.ndarray, lr: float) -> None:
        # in place, and in the operation order of, so bit-identical to:
        #   m = beta1 * m + (1 - beta1) * grad
        #   v = beta2 * v + (1 - beta2) * grad * grad
        #   params -= lr * mhat / (sqrt(vhat) + eps)
        self.t += 1
        a, b = self._a, self._b
        self.m *= self.beta1
        self.m += np.multiply(1.0 - self.beta1, grad, out=a)
        np.multiply(1.0 - self.beta2, grad, out=a)
        a *= grad
        self.v *= self.beta2
        self.v += a
        np.divide(self.m, 1.0 - self.beta1**self.t, out=a)
        a *= lr
        np.divide(self.v, 1.0 - self.beta2**self.t, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        params -= a


def _point_draw(phi: np.ndarray, epoch: int, b: int):
    """theta = phi with no prior: plain training of each network."""
    return phi, lambda g: g, 0.0


def _diverged(what: str, epoch: int, b: int, *good: np.ndarray) -> TrainingDivergedError:
    # names the first member with a False entry in its row of any mask in good
    bad = np.zeros(len(good[0]), dtype=bool)
    for mask in good:
        bad |= ~mask.reshape(len(bad), -1).all(axis=1)
    member = int(np.argmax(bad))
    return TrainingDivergedError(f"{what} in member {member} at epoch {epoch}, batch {b}")


def _minibatch_loop(
    phi: np.ndarray,
    spec: ArchitectureSpec,
    data,
    cfg: TrainingConfig,
    shuffle_seeds,
    draw,
    batch_mean: bool,
) -> list[TrainingTrace]:
    """Train the (K, P_phi) block ``phi`` in place; return one per-epoch trace per row.

    Row k is one network, shuffled each epoch by
    ``spawn_rng(shuffle_seeds[k], 101, epoch)``; its batches are gathered
    into the (K, B, d) ``x`` of one :class:`~winduq.network._Pass` made per
    fit, and a short last batch into a second pass over the front of the same
    buffers.  Per batch, ``draw(phi, epoch, b)`` returns
    theta, the (K, P) parameters to run the networks with; a pullback from
    the theta-gradient of the data term to the phi-gradient of the whole
    batch objective; and the value of the prior term, a scalar or one per
    row.  One forward pass is kept for the backward pass, and one Adam step
    updates the whole block.  Each sampler fixes ``batch_mean``: the
    data term is the batch mean of the weighted NLL, or the batch sum.  A
    non-finite prediction, objective or gradient, or a variance that is not
    positive, raises ``TrainingDivergedError`` naming the member, epoch and batch.
    Before the first epoch, ``data.inputs`` must pass the check prediction makes,
    ``network._check_inputs``, and ``data.targets`` hold one finite value per row.
    """
    X = _check_inputs(spec, data.inputs)
    y, n = np.asarray(data.targets, dtype=np.float64), X.shape[0]
    if n == 0 or y.shape != (n,) or not np.all(np.isfinite(y)):
        raise ValueError(f"training needs one finite target per input row, and at least one "
                         f"row: got targets of shape {y.shape} for {n} rows")
    opt = Adam(phi.shape)
    traces = [TrainingTrace() for _ in shuffle_seeds]
    batches = [slice(i, min(i + cfg.batch_size, n)) for i in range(0, n, cfg.batch_size)]
    whole, tail = divmod(n, cfg.batch_size)
    full = _Pass(spec, len(traces), min(cfg.batch_size, n), True)
    passes = [full] * whole + ([full.shorter(tail)] if tail else [])

    for epoch in range(cfg.epochs):
        lr = learning_rate_at(cfg.lr_schedule, epoch)
        perms = np.stack(
            [spawn_rng(s, _STREAM_SHUFFLE, epoch).permutation(n) for s in shuffle_seeds]
        )
        loss_sum = np.zeros(len(traces))
        prior_sum = np.zeros(len(traces))
        se_sum = np.zeros(len(traces))
        for b, (sl, net) in enumerate(zip(batches, passes)):
            idx = perms[:, sl]
            # X[idx] and y[idx]; "clip" never clips a permutation, and spares "raise" its copy
            Xb = np.take(X, idx, axis=0, out=net.x, mode="clip")
            yb = np.take(y, idx, out=net.y, mode="clip")
            theta, pullback, prior = draw(phi, epoch, b)
            mu, sigma2 = net.forward(theta, Xb)
            if not (np.isfinite(mu).all() and np.isfinite(sigma2).all() and (sigma2 > 0).all()):
                raise _diverged("non-finite prediction or non-positive variance", epoch, b,
                                np.isfinite(mu), np.isfinite(sigma2) & (sigma2 > 0))
            values, _, d_mean, d_variance, r2 = _beta_nll(mu, sigma2, yb, cfg.beta)
            batch_loss = values.sum(axis=-1)
            scale = 1.0 / idx.shape[1] if batch_mean else 1.0
            grad = pullback(net.backward(d_mean * scale, d_variance * scale))
            objective = batch_loss + prior
            if not (np.isfinite(objective).all() and np.isfinite(grad).all()):
                raise _diverged("non-finite loss or gradient", epoch, b,
                                np.isfinite(objective), np.isfinite(grad))
            opt.step(phi, grad, lr)
            loss_sum += batch_loss
            prior_sum += prior
            se_sum += r2.sum(axis=-1)
        for k, trace in enumerate(traces):
            trace.append(epoch, loss_sum[k] / n, prior_sum[k] / n, se_sum[k] / n, lr)

    return traces


def train(
    spec: ArchitectureSpec, params: np.ndarray, data, cfg: TrainingConfig
) -> tuple[np.ndarray, TrainingTrace]:
    """Mini-batch training of one network under the batch-mean weighted NLL.

    ``data`` is any object with ``inputs`` (n, d) and ``targets`` (n,) arrays.
    ``params`` is never mutated; the trained (P,) vector is returned together
    with the per-epoch trace.  Shuffling is reseeded per epoch from
    ``cfg.seed`` so a run is reproducible from the config alone.
    """
    out = _check_params(spec, params).copy()
    [trace] = _minibatch_loop(out[None], spec, data, cfg, (cfg.seed,), _point_draw, batch_mean=True)
    return out, trace
