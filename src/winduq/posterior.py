"""Approximate posteriors over network weights.

Three interchangeable samplers produce Monte Carlo draws of Gaussian
predictions for a given input:

* ``deep_ensemble``: independently seeded networks; one draw per member.
  The K members train together as one stacked (K, P) block through the
  shared training loop, each from its own init and shuffle seeds, so every
  member is exactly the network it would be if trained alone.
* ``mc_dropconnect``: one network trained and evaluated with per-weight
  Bernoulli masks, resampled on every forward pass.  Biases are never masked.
* ``bayes_by_backprop``: a factorized Gaussian over the flat weight vector
  with std = softplus(rho), trained against a unit Gaussian prior by
  reparameterized sampling, one weight draw per batch.

All kinds share the flat parameter layout from :mod:`winduq.network`, so a
draw is always "a parameter vector plus a forward pass".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .losses import (
    TrainingConfig,
    TrainingTrace,
    _minibatch_loop,
    _point_draw,
)
from .network import (
    ArchitectureSpec,
    TwoHeadNetwork,
    _check_inputs,
    _forward_cached,
    init_parameters,
    load_checkpoint,
    parameter_layout,
    save_checkpoint,
    sigmoid,
    softplus,
    weight_position_mask,
)
from .seeding import derive_seed, spawn_rng

SAMPLER_KINDS = ("deep_ensemble", "mc_dropconnect", "bayes_by_backprop")

POSTERIOR_FORMAT_VERSION = 1

# spawn_key tags: per-batch training draws, fit-level streams, prediction draws
_STREAM_MASK = 102
_STREAM_WEIGHT_DRAW = 103
_STREAM_MEMBER = 201
_STREAM_INIT = 202
_STREAM_PREDICT = 301


@dataclass(frozen=True)
class PosteriorSampler:
    """Choice of posterior approximation plus its sampler-specific knobs.

    ``sample_count`` is the number of Monte Carlo draws taken at prediction
    time.  For deep ensembles it must equal ``ensemble_size``: one draw per
    member, no resampling.
    """

    kind: str
    sample_count: int
    ensemble_size: int = 5
    drop_rate: float = 0.01
    init_sigma: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"kind must be one of {SAMPLER_KINDS}, got {self.kind!r}")
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")
        if self.kind == "deep_ensemble":
            if self.ensemble_size < 1:
                raise ValueError(f"ensemble_size must be >= 1, got {self.ensemble_size}")
            if self.sample_count != self.ensemble_size:
                raise ValueError(
                    f"deep_ensemble draws one prediction per member: sample_count "
                    f"{self.sample_count} != ensemble_size {self.ensemble_size}"
                )
        if self.kind == "mc_dropconnect" and not 0.0 <= self.drop_rate < 1.0:
            raise ValueError(f"drop_rate must lie in [0, 1), got {self.drop_rate}")
        if self.kind == "bayes_by_backprop" and self.init_sigma <= 0:
            raise ValueError(f"init_sigma must be positive, got {self.init_sigma}")


def sample_weight_mask(
    spec: ArchitectureSpec, drop_rate: float, rng: np.random.Generator
) -> np.ndarray:
    """One Bernoulli keep-mask over the flat layout; bias entries stay 1."""
    mask = np.ones(spec.n_parameters, dtype=np.float64)
    wpos = weight_position_mask(spec)
    mask[wpos] = rng.random(int(wpos.sum())) >= drop_rate
    return mask


def kl_to_unit_gaussian(mean: np.ndarray, rho: np.ndarray) -> float:
    """KL( N(mean, softplus(rho)^2) || N(0, I) ), summed over coordinates."""
    mean = np.asarray(mean, dtype=np.float64)
    sigma = softplus(np.asarray(rho, dtype=np.float64))
    return float(np.sum(-np.log(sigma) + (sigma**2 + mean**2 - 1.0) / 2.0))


def kl_to_unit_gaussian_grads(
    mean: np.ndarray, rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the closed-form KL with respect to (mean, rho)."""
    mean = np.asarray(mean, dtype=np.float64)
    rho = np.asarray(rho, dtype=np.float64)
    sigma = softplus(rho)
    d_mean = mean.copy()
    d_rho = (sigma - 1.0 / sigma) * sigmoid(rho)
    return d_mean, d_rho


def softplus_inverse(y: float) -> float:
    # solves softplus(x) = y for y > 0
    if y <= 0:
        raise ValueError(f"softplus inverse needs a positive argument, got {y}")
    return float(y + np.log1p(-np.exp(-y)))


@dataclass
class EnsemblePosterior:
    kind = "deep_ensemble"
    spec: ArchitectureSpec
    members: list[TwoHeadNetwork]
    member_seeds: list[int]
    sample_count: int = field(init=False)

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("an ensemble needs at least one member")
        self.sample_count = len(self.members)


@dataclass
class DropConnectPosterior:
    kind = "mc_dropconnect"
    spec: ArchitectureSpec
    network: TwoHeadNetwork
    drop_rate: float
    sample_count: int


@dataclass
class VariationalPosterior:
    kind = "bayes_by_backprop"
    spec: ArchitectureSpec
    mean: np.ndarray
    rho: np.ndarray
    sample_count: int

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.rho = np.asarray(self.rho, dtype=np.float64)
        n = self.spec.n_parameters
        if self.mean.shape != (n,) or self.rho.shape != (n,):
            raise ValueError("variational parameter vectors do not match the architecture")

    @property
    def weight_std(self) -> np.ndarray:
        return softplus(self.rho)

    def kl(self) -> float:
        return kl_to_unit_gaussian(self.mean, self.rho)


FittedPosterior = EnsemblePosterior | DropConnectPosterior | VariationalPosterior


def _dropconnect_draw(spec: ArchitectureSpec, rate: float, seed: int):
    """theta = phi * m with a fresh Bernoulli keep-mask m per batch; no prior."""

    def draw(phi: np.ndarray, epoch: int, b: int):
        m = sample_weight_mask(spec, rate, spawn_rng(seed, _STREAM_MASK, epoch, b))
        return phi * m, lambda g: g * m, 0.0

    return draw


def _variational_draw(n_params: int, kl_weight: float, seed: int):
    """theta = mean + softplus(rho) * eps over phi = [mean, rho] (last axis), with
    the weighted KL to the unit Gaussian prior as the prior term."""

    def draw(phi: np.ndarray, epoch: int, b: int):
        mean, rho = phi[..., :n_params], phi[..., n_params:]
        eps = spawn_rng(seed, _STREAM_WEIGHT_DRAW, epoch, b).standard_normal(n_params)
        theta = mean + softplus(rho) * eps
        kl_d_mean, kl_d_rho = kl_to_unit_gaussian_grads(mean, rho)

        def pullback(g: np.ndarray) -> np.ndarray:
            return np.concatenate(
                [g + kl_weight * kl_d_mean, g * eps * sigmoid(rho) + kl_weight * kl_d_rho],
                axis=-1,
            )

        return theta, pullback, kl_weight * kl_to_unit_gaussian(mean, rho)

    return draw


def fit(
    sampler: PosteriorSampler,
    spec: ArchitectureSpec,
    data,
    cfg: TrainingConfig,
) -> tuple[FittedPosterior, list[TrainingTrace]]:
    """Train the chosen posterior approximation on a dataset.

    ``cfg.kl_weight`` must be set for ``bayes_by_backprop`` and left None for
    the other kinds.  Determinism: the result is a pure function of
    (sampler, spec, data, cfg).  Ensemble member k has seed
    ``derive_seed(cfg.seed, 201, k)``, initialises from
    ``derive_seed(member_seed, 1)`` and shuffles from
    ``derive_seed(member_seed, 2)``; the members train as one stacked block.
    """
    if sampler.kind == "bayes_by_backprop":
        if cfg.kl_weight is None:
            raise ValueError("bayes_by_backprop requires cfg.kl_weight")
    elif cfg.kl_weight is not None:
        raise ValueError(f"kl_weight is only meaningful for bayes_by_backprop, not {sampler.kind}")
    if sampler.kind == "deep_ensemble":
        seeds = [derive_seed(cfg.seed, _STREAM_MEMBER, k) for k in range(sampler.ensemble_size)]
        phi = np.stack([init_parameters(spec, derive_seed(s, 1)).params for s in seeds])
        shuffle_seeds = [derive_seed(s, 2) for s in seeds]
        traces = _minibatch_loop(phi, spec, data, cfg, shuffle_seeds, _point_draw, batch_mean=True)
        members = [TwoHeadNetwork(spec, row) for row in phi]
        return EnsemblePosterior(spec, members, seeds), traces
    net = init_parameters(spec, derive_seed(cfg.seed, _STREAM_INIT))
    if sampler.kind == "mc_dropconnect":
        draw = _dropconnect_draw(spec, sampler.drop_rate, cfg.seed)
        traces = _minibatch_loop(
            net.params[None], spec, data, cfg, (cfg.seed,), draw, batch_mean=True
        )
        return DropConnectPosterior(spec, net, sampler.drop_rate, sampler.sample_count), traces
    p = spec.n_parameters
    phi = np.concatenate([net.params, np.full(p, softplus_inverse(sampler.init_sigma))])
    # the data term is the batch sum: with kl_weight = 1 / (batches per
    # epoch), one epoch's objectives add up to the full-data negative ELBO,
    # the minibatch weighting of Blundell et al. (2015)
    draw = _variational_draw(p, cfg.kl_weight, cfg.seed)
    traces = _minibatch_loop(phi[None], spec, data, cfg, (cfg.seed,), draw, batch_mean=False)
    return VariationalPosterior(spec, phi[:p].copy(), phi[p:].copy(), sampler.sample_count), traces


def draw_parameter_matrix(
    fp: FittedPosterior, n_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """(n_draws, P) parameter vectors sampled from the fitted posterior."""
    if isinstance(fp, EnsemblePosterior):
        if n_draws != len(fp.members):
            raise ValueError(
                f"deep_ensemble yields exactly {len(fp.members)} draws, requested {n_draws}"
            )
        return np.stack([m.params for m in fp.members])
    if isinstance(fp, DropConnectPosterior):
        # one block of uniforms, row-major: the same stream as n_draws
        # sequential sample_weight_mask calls
        wpos = weight_position_mask(fp.spec)
        masks = np.ones((n_draws, wpos.size))
        masks[:, wpos] = rng.random((n_draws, int(wpos.sum()))) >= fp.drop_rate
        return fp.network.params[None, :] * masks
    if isinstance(fp, VariationalPosterior):
        eps = rng.standard_normal((n_draws, fp.mean.size))
        return fp.mean[None, :] + softplus(fp.rho)[None, :] * eps
    raise TypeError(f"not a fitted posterior: {type(fp).__name__}")


def _predict_draws(
    fp: FittedPosterior, X: np.ndarray, n_draws: int | None, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """(S, n) means and variances of X's rows under ``draw_parameter_matrix(fp, S,
    spawn_rng(seed, 301))``, with S defaulting to the posterior's ``sample_count``.

    X is validated once, not per draw."""
    X = _check_inputs(fp.spec, X)
    s = fp.sample_count if n_draws is None else int(n_draws)
    if s < 1:
        raise ValueError(f"n_draws must be >= 1, got {s}")
    thetas = draw_parameter_matrix(fp, s, spawn_rng(seed, _STREAM_PREDICT))
    slots = parameter_layout(fp.spec)
    means = np.empty((s, X.shape[0]))
    variances = np.empty((s, X.shape[0]))
    for k in range(s):
        act = _forward_cached(fp.spec, slots, thetas[k : k + 1], X[None])
        means[k], variances[k] = act.mu[0], act.sigma2[0]
    return means, variances


def draw_prediction_arrays(
    fp: FittedPosterior, x: np.ndarray, n_draws: int | None = None, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """(means, variances) of S posterior draws for one input vector.

    These are the draws ``decompose_batch`` reduces for ``x`` with the same
    ``n_draws`` and ``seed``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D input vector, got shape {x.shape}")
    means, variances = _predict_draws(fp, x[None, :], n_draws, seed)
    return means[:, 0], variances[:, 0]


# ---------------------------------------------------------------------------
# persistence


def save_posterior(fp: FittedPosterior, directory: str | Path, extra: dict | None = None) -> None:
    """Write a posterior to a directory as a manifest plus JSON payload files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "format_version": POSTERIOR_FORMAT_VERSION,
        "kind": fp.kind,
        "sample_count": fp.sample_count,
        "spec": fp.spec.to_dict(),
    }
    if extra:
        manifest["training"] = extra
    if isinstance(fp, EnsemblePosterior):
        files = []
        for k, member in enumerate(fp.members):
            name = f"member_{k:02d}.json"
            save_checkpoint(member, directory / name, seed=fp.member_seeds[k])
            files.append(name)
        manifest["members"] = files
        manifest["member_seeds"] = [int(s) for s in fp.member_seeds]
    elif isinstance(fp, DropConnectPosterior):
        save_checkpoint(fp.network, directory / "network.json")
        manifest["network"] = "network.json"
        manifest["drop_rate"] = fp.drop_rate
    elif isinstance(fp, VariationalPosterior):
        payload = {
            "mean": [float(v) for v in fp.mean],
            "rho": [float(v) for v in fp.rho],
        }
        (directory / "variational.json").write_text(json.dumps(payload))
        manifest["variational"] = "variational.json"
    else:
        raise TypeError(f"not a fitted posterior: {type(fp).__name__}")
    (directory / "posterior.json").write_text(json.dumps(manifest, indent=1))


_MANIFEST_KEYS = {
    "deep_ensemble": ("members", "member_seeds"),
    "mc_dropconnect": ("network", "drop_rate", "sample_count"),
    "bayes_by_backprop": ("variational", "sample_count"),
}


def _require(record: dict, keys: tuple[str, ...], path: Path) -> None:
    for key in keys:
        if key not in record:
            raise ValueError(f"{path}: missing key {key!r}")


def _load_matching_checkpoint(path: Path, spec: ArchitectureSpec) -> TwoHeadNetwork:
    net, _ = load_checkpoint(path)
    if net.spec != spec:
        raise ValueError(f"{path}: checkpoint spec {net.spec} differs from the manifest's {spec}")
    return net


def load_posterior(directory: str | Path) -> FittedPosterior:
    """Read a posterior written by :func:`save_posterior`.

    A missing key, an unknown kind or version, or a checkpoint whose
    architecture differs from the manifest's ``spec`` raises ``ValueError``.
    """
    directory = Path(directory)
    manifest_path = directory / "posterior.json"
    manifest = json.loads(manifest_path.read_text())
    version = manifest.get("format_version")
    if version != POSTERIOR_FORMAT_VERSION:
        raise ValueError(f"unsupported posterior format version {version!r}")
    _require(manifest, ("kind", "spec"), manifest_path)
    kind = manifest["kind"]
    if kind not in _MANIFEST_KEYS:
        raise ValueError(f"unknown posterior kind {kind!r}")
    _require(manifest, _MANIFEST_KEYS[kind], manifest_path)
    try:
        spec = ArchitectureSpec.from_dict(manifest["spec"])
    except KeyError as exc:
        raise ValueError(f"{manifest_path}: missing key 'spec.{exc.args[0]}'") from None
    if kind == "deep_ensemble":
        members = [
            _load_matching_checkpoint(directory / name, spec) for name in manifest["members"]
        ]
        seeds = [int(s) for s in manifest["member_seeds"]]
        if len(seeds) != len(members):
            raise ValueError(
                f"{manifest_path}: {len(members)} members but {len(seeds)} member_seeds"
            )
        return EnsemblePosterior(spec, members, seeds)
    if kind == "mc_dropconnect":
        net = _load_matching_checkpoint(directory / manifest["network"], spec)
        return DropConnectPosterior(
            spec, net, float(manifest["drop_rate"]), int(manifest["sample_count"])
        )
    payload_path = directory / manifest["variational"]
    payload = json.loads(payload_path.read_text())
    _require(payload, ("mean", "rho"), payload_path)
    return VariationalPosterior(
        spec,
        np.asarray(payload["mean"], dtype=np.float64),
        np.asarray(payload["rho"], dtype=np.float64),
        int(manifest["sample_count"]),
    )
