"""Fully-connected two-head Gaussian regression networks, implemented in numpy.

A network maps an input vector to the mean and variance of a Gaussian
predictive distribution.  Both heads share a stack of hidden layers; the mean
head is linear and the variance head passes through a softplus plus a floor,
so the predicted variance is always positive.  A network is a spec plus one
flat (P,) float64 parameter vector, with no object around the pair; the
optimizer and the posterior samplers all see the same layout.

``forward_batch`` and ``backward_batch`` validate one parameter vector and a
batch of row inputs, then run one :class:`_Pass`.  A pass runs a block of K
networks at once: parameters (K, P), inputs (K, B, d), one batch per
network, with every matmul stacked on the leading axis; its ``backward``
reads the activations its ``forward`` kept.  The training loop runs all K
deep-ensemble members together through one pass per fit (K = 1 for the other
samplers); ``forward_batch``, ``backward_batch`` and posterior prediction,
one draw at a time, are the K = 1 case.  numpy runs a stacked matmul slice
by slice with the kernel a single matmul would use, and every other step is
elementwise or a per-row reduction, so each row of a block computes exactly
what a single network would.
"""

from __future__ import annotations

import copy
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .seeding import spawn_rng

_ACTIVATIONS = ("relu", "sigmoid")


def _check_int(name: str, value) -> int:
    """A Python or numpy integer as an int; a bool, float or str raises a ValueError."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be int, got {type(value).__name__} {value!r}")
    return operator.index(value)


@dataclass(frozen=True)
class ArchitectureSpec:
    """Static description of a two-head network.

    ``hidden_widths`` lists the hidden layer sizes in order; the two output
    heads are single linear units on top of the last hidden layer.
    ``variance_floor`` is added to the softplus output of the variance head.
    """

    input_dim: int
    hidden_widths: tuple[int, ...]
    hidden_activation: str = "relu"
    variance_floor: float = 1e-6

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_dim", _check_int("input_dim", self.input_dim))
        widths = tuple(_check_int("a hidden width", w) for w in self.hidden_widths)
        object.__setattr__(self, "hidden_widths", widths)
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if not self.hidden_widths:
            raise ValueError("hidden_widths must be non-empty")
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError(f"hidden widths must be positive, got {self.hidden_widths}")
        if self.hidden_activation not in _ACTIVATIONS:
            raise ValueError(
                f"hidden_activation must be one of {_ACTIVATIONS}, got {self.hidden_activation!r}"
            )
        if not np.isfinite(self.variance_floor) or self.variance_floor < 0:
            raise ValueError(f"variance_floor must be finite and >= 0, got {self.variance_floor}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) for each hidden layer, in order."""
        dims = []
        fan_in = self.input_dim
        for width in self.hidden_widths:
            dims.append((fan_in, width))
            fan_in = width
        return dims

    @property
    def n_parameters(self) -> int:
        n = sum((fi + 1) * fo for fi, fo in self.layer_dims)
        n += 2 * (self.hidden_widths[-1] + 1)  # mean head + variance head
        return n


@dataclass(frozen=True)
class _Slot:
    name: str
    shape: tuple[int, ...]
    start: int
    stop: int
    is_weight: bool  # False for bias vectors
    block: tuple[int, ...]  # per-network shape in a stacked (K, ...) view


@functools.lru_cache(maxsize=None)
def parameter_layout(spec: ArchitectureSpec) -> tuple[_Slot, ...]:
    """Flat-vector layout: hidden W/b pairs in order, then mean head, then variance head.

    Cached per spec, so the same tuple of frozen slots comes back every time.
    """
    slots: list[_Slot] = []
    pos = 0

    def add(name: str, shape: tuple[int, ...], is_weight: bool, block: tuple[int, ...]) -> None:
        nonlocal pos
        size = int(np.prod(shape))
        slots.append(_Slot(name, shape, pos, pos + size, is_weight, block))
        pos += size

    # blocks broadcast against (B, width) activations: biases as one row,
    # head weights as one column
    for i, (fan_in, fan_out) in enumerate(spec.layer_dims):
        add(f"hidden{i}.W", (fan_in, fan_out), True, (fan_in, fan_out))
        add(f"hidden{i}.b", (fan_out,), False, (1, fan_out))
    width = spec.hidden_widths[-1]
    add("mean.W", (width,), True, (width, 1))
    add("mean.b", (), False, (1, 1))
    add("variance.W", (width,), True, (width, 1))
    add("variance.b", (), False, (1, 1))
    return tuple(slots)


@functools.lru_cache(maxsize=None)
def weight_position_mask(spec: ArchitectureSpec) -> np.ndarray:
    """Boolean vector over the flat layout, True at weight (non-bias) entries.

    Cached per spec and therefore read-only.
    """
    mask = np.zeros(spec.n_parameters, dtype=bool)
    for slot in parameter_layout(spec):
        if slot.is_weight:
            mask[slot.start : slot.stop] = True
    mask.flags.writeable = False
    return mask


def init_parameters(spec: ArchitectureSpec, seed: int) -> np.ndarray:
    """The (P,) float64 parameter vector of a deterministic uniform fan-in initialization.

    Weights are drawn from U(-a, a) with a = sqrt(6 / fan_in), the He-uniform
    bound appropriate for relu stacks; biases start at zero, which puts the
    initial variance prediction near softplus(0) = ln 2.
    """
    rng = spawn_rng(seed)
    flat = np.zeros(spec.n_parameters, dtype=np.float64)
    for slot in parameter_layout(spec):
        if slot.is_weight:
            bound = np.sqrt(6.0 / slot.shape[0])
            flat[slot.start : slot.stop] = rng.uniform(-bound, bound, size=slot.shape).ravel()
    return flat


def softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + exp(z)) computed without overflow for large |z|."""
    return np.logaddexp(0.0, z)


def sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(np.minimum(z, -z))  # exp(-|z|), which never overflows; NaN keeps its sign
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _check_inputs(spec: ArchitectureSpec, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != spec.input_dim:
        raise ValueError(f"inputs have shape {X.shape}, expected (n, {spec.input_dim})")
    if not np.all(np.isfinite(X)):
        raise ValueError("inputs contain non-finite values")
    return X


class _Pass:
    """A stacked pass of K networks over B rows each.  It owns the flat buffers
    that every activation, and with ``backward`` the gathered batch ``x``, ``y``
    and every gradient, is written into, so a step allocates no (K, B, width)
    block and faults no fresh pages.  Each array is the C-contiguous front of a
    buffer, with the strides of the fresh array it replaces, so no kernel and no
    bit changes.  ``backward`` reads what the last ``forward`` kept.
    """

    def __init__(self, spec: ArchitectureSpec, k: int, b: int, backward: bool):
        self.spec, self.k, self.slots = spec, k, parameter_layout(spec)
        widths = spec.hidden_widths
        self._flat = [np.empty(k * b * size) for size in (*widths, 4)]  # hidden outputs, heads
        self.grad = np.empty((k, spec.n_parameters)) if backward else None
        if backward:  # then the batch x and y and two pre-activation gradient buffers
            m = max(widths)
            self._flat += [np.empty(k * b * size) for size in (spec.input_dim, 1, m, m)]
            self.grads = [  # weights in their (K, *block) shape, biases flat
                self.grad[:, s.start : s.stop].reshape((k, *s.block) if s.is_weight else (k, -1))
                for s in self.slots
            ]
        self._carve(b)

    def _carve(self, b: int) -> None:
        # views of each buffer's front for B = b rows; ``heads`` is (4, K, B, 1):
        # mean, variance pre-activation, variance and its gradient
        k, d, widths = self.k, self.spec.input_dim, self.spec.hidden_widths

        def front(buf: np.ndarray, *shape: int) -> np.ndarray:
            return buf[: k * b * math.prod(shape)].reshape(k, b, *shape)

        self.hs = [front(h, w) for h, w in zip(self._flat, widths)]
        self.heads = self._flat[len(widths)][: 4 * k * b].reshape(4, k, b, 1)
        if self.grad is not None:
            x, y, *gh = self._flat[len(widths) + 1 :]
            self.x, self.y = front(x, d), front(y)
            # layer i's pre-activation gradient in buffer i % 2, the next one down in the other
            self.gh = [front(gh[i % 2], w) for i, w in enumerate(widths)]
            self.scratch = front(gh[len(widths) % 2], widths[-1])

    def shorter(self, b: int) -> _Pass:
        """A pass over the first b rows of this pass's buffers, sharing its (K, P) gradient."""
        short = copy.copy(self)
        short._carve(b)
        return short

    def forward(self, params: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(K, B) means and variances of validated inputs X (K, B, d) under parameters
        (K, P), keeping the activations ``backward`` needs.  Each matmul writes into
        this pass's buffers, with bias and relu in place."""
        k, spec = params.shape[0], self.spec
        self.views = views = [params[:, s.start : s.stop].reshape(k, *s.block) for s in self.slots]
        self.inputs = h = X
        for i, out in enumerate(self.hs):
            h = np.matmul(h, views[2 * i], out=out)
            h += views[2 * i + 1]
            if spec.hidden_activation == "relu":
                np.maximum(h, 0.0, out=h)
            else:
                h[...] = sigmoid(h)
        mu, s, sigma2, _ = self.heads
        np.matmul(h, views[-4], out=mu)
        mu += views[-3]
        np.matmul(h, views[-2], out=s)
        s += views[-1]
        np.add(softplus(s), spec.variance_floor, out=sigma2)
        return mu[..., 0], sigma2[..., 0]

    def backward(self, d_mean: np.ndarray, d_variance: np.ndarray) -> np.ndarray:
        """(K, P) gradients of sum_i [d_mean_i * mu_i + d_variance_i * sigma2_i], one row
        per network, for (K, B) upstream derivatives: this pass's ``grad``, written
        slot by slot and valid until the next backward pass that shares it."""
        views, hs, grads = self.views, [self.inputs, *self.hs], self.grads
        # d sigma2 / d s = sigmoid(s); the floor is additive and drops out.
        gs = np.multiply(d_variance, sigmoid(self.heads[1, ..., 0]), out=self.heads[3, ..., 0])
        h_last_t = hs[-1].transpose(0, 2, 1)
        np.matmul(h_last_t, d_mean[..., None], out=grads[-4])
        np.sum(d_mean, axis=-1, keepdims=True, out=grads[-3])
        np.matmul(h_last_t, gs[..., None], out=grads[-2])
        np.sum(gs, axis=-1, keepdims=True, out=grads[-1])

        gh = np.multiply(d_mean[..., None], views[-4].transpose(0, 2, 1), out=self.gh[-1])
        gh += np.multiply(gs[..., None], views[-2].transpose(0, 2, 1), out=self.scratch)
        for i in reversed(range(len(self.hs))):
            # gh becomes this layer's pre-activation gradient, in place; a relu
            # output is positive exactly where its pre-activation is
            a = hs[i + 1]
            if self.spec.hidden_activation == "relu":
                gh *= a > 0.0
            else:
                gh *= a
                gh *= 1.0 - a
            np.matmul(hs[i].transpose(0, 2, 1), gh, out=grads[2 * i])
            np.sum(gh, axis=1, out=grads[2 * i + 1])
            if i > 0:
                gh = np.matmul(gh, views[2 * i].transpose(0, 2, 1), out=self.gh[i - 1])
        return self.grad


def _check_params(spec: ArchitectureSpec, params: np.ndarray) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (spec.n_parameters,):
        raise ValueError(
            f"parameter vector has shape {params.shape}, expected ({spec.n_parameters},)"
        )
    return params


def forward_batch(
    spec: ArchitectureSpec, params: np.ndarray, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Predict (means, variances) for a batch of row-vector inputs. Never mutates ``params``."""
    params = _check_params(spec, params)
    X = _check_inputs(spec, X)
    mu, sigma2 = _Pass(spec, 1, len(X), False).forward(params[None], X[None])
    return mu[0], sigma2[0]


def backward_batch(
    spec: ArchitectureSpec,
    params: np.ndarray,
    X: np.ndarray,
    d_mean: np.ndarray,
    d_variance: np.ndarray,
) -> np.ndarray:
    """Flat parameter gradient of sum_i [d_mean_i * mu_i + d_variance_i * sigma2_i].

    ``d_mean`` and ``d_variance`` are the upstream loss derivatives with
    respect to each row's predicted mean and variance.
    """
    params = _check_params(spec, params)
    X = _check_inputs(spec, X)
    d_mean = np.asarray(d_mean, dtype=np.float64)
    d_variance = np.asarray(d_variance, dtype=np.float64)
    n = X.shape[0]
    if d_mean.shape != (n,) or d_variance.shape != (n,):
        raise ValueError("upstream gradients must be 1-D arrays matching the batch size")
    if not (np.all(np.isfinite(d_mean)) and np.all(np.isfinite(d_variance))):
        raise ValueError("upstream gradients contain non-finite values")
    net = _Pass(spec, 1, n, True)
    net.forward(params[None], X[None])
    return net.backward(d_mean[None], d_variance[None])[0]
