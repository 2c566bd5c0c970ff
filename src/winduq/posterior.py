"""Approximate posteriors over network weights.

Every fitted posterior is one :class:`FittedPosterior` record: a kind, an
architecture, its sampling knobs and one float64 matrix phi over the flat
parameter layout of :mod:`winduq.network`.  A kind is just a rule that turns
phi into S parameter draws, so a prediction draw is always "a parameter
vector plus a forward pass":

* ``deep_ensemble``: phi is (K, P), one row per independently seeded
  member; the S = K draws are the rows.  The members train together as one
  stacked block through the shared training loop, each from its own init
  and shuffle seeds, so every member is exactly the network it would be if
  trained alone.
* ``mc_dropconnect``: phi is (1, P); a draw multiplies it by a Bernoulli
  keep-mask over the weights, resampled per draw.  Biases are never masked.
* ``bayes_by_backprop``: phi is (2, P), the mean and rho of a factorized
  Gaussian with std = softplus(rho), trained against a unit Gaussian prior by
  one reparameterized weight draw per batch, from one softplus and one sigmoid.

Each kind's draws come from one draw generator, which writes draw k into one
reused (P,) vector.  ``draw_parameter_matrix`` stacks S draws into the (S, P)
matrix; prediction streams them instead, one forward pass per draw, so it
holds no (S, P) block and gives the matrix's bits.

A saved posterior is ``posterior.json`` plus phi as one ``params.npy``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
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
    _check_inputs,
    _Pass,
    init_parameters,
    parameter_layout,
    sigmoid,
    softplus,
)
from .seeding import _check_int, _check_real, derive_seed, spawn_rng

SAMPLER_KINDS = ("deep_ensemble", "mc_dropconnect", "bayes_by_backprop")

POSTERIOR_FORMAT_VERSION = 2
_PARAMS_FILE = "params.npy"

# spawn_key tags: per-batch training draws, fit-level streams, prediction draws
_STREAM_MASK = 102
_STREAM_WEIGHT_DRAW = 103
_STREAM_MEMBER = 201
_STREAM_INIT = 202
_STREAM_PREDICT = 301


def _check_knobs(record) -> None:
    """Check the kind, sample count and drop rate of a sampler or fitted record, storing
    the count as an int and the rate as a float; only DropConnect reads the rate."""
    if record.kind not in SAMPLER_KINDS:
        raise ValueError(f"kind must be one of {SAMPLER_KINDS}, got {record.kind!r}")
    object.__setattr__(record, "sample_count", _check_int("sample_count", record.sample_count))
    if record.sample_count < 1:
        raise ValueError(f"sample_count must be >= 1, got {record.sample_count}")
    object.__setattr__(record, "drop_rate", _check_real("drop_rate", record.drop_rate))
    if record.kind == "mc_dropconnect" and not 0.0 <= record.drop_rate < 1.0:
        raise ValueError(f"drop_rate must lie in [0, 1), got {record.drop_rate}")


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
        _check_knobs(self)
        object.__setattr__(self, "ensemble_size", _check_int("ensemble_size", self.ensemble_size))
        object.__setattr__(self, "init_sigma", _check_real("init_sigma", self.init_sigma))
        if self.kind == "deep_ensemble":
            if self.ensemble_size < 1:
                raise ValueError(f"ensemble_size must be >= 1, got {self.ensemble_size}")
            if self.sample_count != self.ensemble_size:
                raise ValueError(
                    f"deep_ensemble draws one prediction per member: sample_count "
                    f"{self.sample_count} != ensemble_size {self.ensemble_size}"
                )
        if self.kind == "bayes_by_backprop" and self.init_sigma <= 0:
            raise ValueError(f"init_sigma must be positive, got {self.init_sigma}")


def _fill_keeps(slots: tuple, drop_rate: float, rng, out: np.ndarray) -> np.ndarray:
    """Bernoulli keeps into the weight slots of ``out`` (..., P), slot by slot,
    from one row-major block of uniforms: the stream of sequential single masks."""
    weights = [s for s in slots if s.is_weight]
    u = rng.random(out.shape[:-1] + (sum(w.stop - w.start for w in weights),))
    start = 0
    for w in weights:
        stop = start + w.stop - w.start
        np.greater_equal(u[..., start:stop], drop_rate, out=out[..., w.start : w.stop])
        start = stop
    return out


def sample_weight_mask(
    spec: ArchitectureSpec, drop_rate: float, rng: np.random.Generator
) -> np.ndarray:
    """One Bernoulli keep-mask over the flat layout; bias entries stay 1."""
    return _fill_keeps(parameter_layout(spec), drop_rate, rng, np.ones(spec.n_parameters))


def _kl_terms(mean: np.ndarray, sigma: np.ndarray, sigmoid_rho: np.ndarray):
    """KL(N(mean, sigma^2) || N(0, I)) = sum(-log(sigma) + (sigma**2 + mean**2 - 1) / 2) and
    its rho-gradient (sigma - 1 / sigma) * sigmoid(rho), for sigma = softplus(rho): those
    formulas bit for bit, with fewer temporary arrays."""
    terms, log_sigma = sigma**2 + mean**2, np.log(sigma)
    terms -= 1.0
    terms /= 2.0
    terms -= log_sigma  # x - y is x + (-y)
    d_rho = sigma - 1.0 / sigma
    d_rho *= sigmoid_rho
    return float(np.sum(terms)), d_rho


def softplus_inverse(y: float) -> float:
    # solves softplus(x) = y for y > 0
    if y <= 0:
        raise ValueError(f"softplus inverse needs a positive argument, got {y}")
    return float(y + np.log1p(-np.exp(-y)))


@dataclass(frozen=True)
class FittedPosterior:
    """A fitted posterior: kind, architecture, sampling knobs and the matrix phi.

    phi is float64 over the flat parameter layout, with one shape per kind:
    (K, P) for ``deep_ensemble`` with K = ``sample_count`` members, (1, P)
    for ``mc_dropconnect`` and (2, P), mean then rho, for
    ``bayes_by_backprop``.  ``drop_rate`` is the DropConnect rate and 0 for
    the other kinds.
    """

    kind: str
    spec: ArchitectureSpec
    phi: np.ndarray
    sample_count: int
    drop_rate: float

    def __post_init__(self) -> None:
        _check_knobs(self)
        if self.kind != "mc_dropconnect" and self.drop_rate != 0.0:
            raise ValueError(f"{self.kind} has no drop rate, got {self.drop_rate}")
        phi = self.phi
        if not isinstance(phi, np.ndarray) or phi.dtype != np.float64:
            raise ValueError(f"phi must be a float64 array, got {getattr(phi, 'dtype', type(phi))}")
        rows = {"deep_ensemble": self.sample_count, "mc_dropconnect": 1, "bayes_by_backprop": 2}
        shape = (rows[self.kind], self.spec.n_parameters)
        if phi.shape != shape:
            raise ValueError(f"{self.kind} phi must have shape {shape}, got {phi.shape}")
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi contains non-finite values")


def _dropconnect_draw(spec: ArchitectureSpec, rate: float, seed: int):
    """theta = phi * m with a fresh Bernoulli keep-mask m per batch, refilled in place."""
    slots = parameter_layout(spec)
    m = np.ones(spec.n_parameters)  # each pullback runs before the next draw refills m

    def draw(phi: np.ndarray, epoch: int, b: int):
        _fill_keeps(slots, rate, spawn_rng(seed, _STREAM_MASK, epoch, b), m)
        return phi * m, lambda g: g * m, 0.0

    return draw


def _variational_draw(n_params: int, kl_weight: float, seed: int):
    """theta = mean + softplus(rho) * eps over phi = [mean, rho] (last axis), with the
    weighted KL to the unit Gaussian prior as the prior term; the pullback reads phi."""

    def draw(phi: np.ndarray, epoch: int, b: int):
        mean, rho = phi[..., :n_params], phi[..., n_params:]
        eps = spawn_rng(seed, _STREAM_WEIGHT_DRAW, epoch, b).standard_normal(n_params)
        sigma, sigmoid_rho = softplus(rho), sigmoid(rho)
        theta = mean + sigma * eps
        kl, kl_d_rho = _kl_terms(mean, sigma, sigmoid_rho)
        kl_d_rho *= kl_weight

        def pullback(g: np.ndarray) -> np.ndarray:
            # [g + kl_weight * mean | g * eps * sigmoid(rho) + kl_weight * kl_d_rho]
            out = np.empty(g.shape[:-1] + (2 * n_params,))
            d_mean, d_rho = out[..., :n_params], out[..., n_params:]
            np.multiply(kl_weight, mean, out=d_mean)
            d_mean += g
            np.multiply(g, eps, out=d_rho)
            d_rho *= sigmoid_rho
            d_rho += kl_d_rho
            return out

        return theta, pullback, kl_weight * kl

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
    p, rate, shuffle_seeds = spec.n_parameters, 0.0, (cfg.seed,)
    if sampler.kind == "deep_ensemble":
        seeds = [derive_seed(cfg.seed, _STREAM_MEMBER, k) for k in range(sampler.ensemble_size)]
        phi = np.stack([init_parameters(spec, derive_seed(s, 1)) for s in seeds])
        shuffle_seeds, draw, batch_mean = [derive_seed(s, 2) for s in seeds], _point_draw, True
    else:
        start = init_parameters(spec, derive_seed(cfg.seed, _STREAM_INIT))
        if sampler.kind == "mc_dropconnect":
            phi, rate, batch_mean = start[None], sampler.drop_rate, True
            draw = _dropconnect_draw(spec, rate, cfg.seed)
        else:
            # one [mean | rho] row, kept as (2, P) by the record.  Its data term is the batch
            # sum: with kl_weight = 1 / ceil(n / batch), an epoch adds up to the full-data
            # negative ELBO (Blundell et al., 2015); auto_kl_weight uses round(n / batch)
            phi = np.concatenate([start, np.full(p, softplus_inverse(sampler.init_sigma))])[None]
            draw, batch_mean = _variational_draw(p, cfg.kl_weight, cfg.seed), False
    traces = _minibatch_loop(phi, spec, data, cfg, shuffle_seeds, draw, batch_mean=batch_mean)
    fp = FittedPosterior(sampler.kind, spec, phi.reshape(-1, p), sampler.sample_count, rate)
    return fp, traces


def _draws(fp: FittedPosterior, n_draws: int, rng: np.random.Generator):
    """Iterator over ``n_draws`` parameter draws from ``fp``, each written into one
    reused (P,) vector, which it yields.  Draws read ``rng`` in turn, and numpy fills
    a block row by row, so S draws have the bits of one (S, P) draw.  The count is
    checked, and the vector allocated, on the call, not on the first draw."""
    n_draws = _check_int("n_draws", n_draws)
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    if fp.kind == "deep_ensemble":
        if n_draws != fp.sample_count:
            raise ValueError(
                f"deep_ensemble yields exactly {fp.sample_count} draws, requested {n_draws}"
            )

        def fill(k: int) -> None:
            np.copyto(theta, fp.phi[k])
    elif fp.kind == "mc_dropconnect":
        slots, keeps = parameter_layout(fp.spec), np.ones(fp.spec.n_parameters)

        def fill(k: int) -> None:
            np.multiply(fp.phi[0], _fill_keeps(slots, fp.drop_rate, rng, keeps), out=theta)
    else:
        mean, sigma = fp.phi[0], softplus(fp.phi[1])

        def fill(k: int) -> None:
            rng.standard_normal(out=theta)
            # mean + sigma * eps, bit for bit: IEEE + and * commute exactly
            np.add(np.multiply(theta, sigma, out=theta), mean, out=theta)

    theta = np.empty(fp.spec.n_parameters)

    def draws():
        for k in range(n_draws):
            fill(k)
            yield theta

    return draws()


def draw_parameter_matrix(
    fp: FittedPosterior, n_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """(n_draws, P) parameter vectors sampled from the fitted posterior.

    A deep ensemble's draws are its K members, so it takes exactly
    n_draws = K and leaves ``rng`` untouched."""
    return np.stack([theta.copy() for theta in _draws(fp, n_draws, rng)])


def _predict_draws(
    fp: FittedPosterior, X: np.ndarray, n_draws: int | None, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """(S, n) means and variances of X's rows under ``draw_parameter_matrix(fp, S,
    spawn_rng(seed, 301))``, with S defaulting to the posterior's ``sample_count``.

    X is validated once, not per draw.  No (S, P) matrix is built: each draw
    is written into one (P,) vector and run through one forward-only pass
    made per call, and only its n means and variances are kept."""
    X = _check_inputs(fp.spec, X)
    s = fp.sample_count if n_draws is None else n_draws
    draws = _draws(fp, s, spawn_rng(seed, _STREAM_PREDICT))  # allocates before the pass does
    net = _Pass(fp.spec, 1, X.shape[0], False)
    means, variances = np.empty((2, s, X.shape[0]))
    for k, theta in enumerate(draws):
        means[k], variances[k] = net.forward(theta[None], X[None])
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
    """Write a posterior to a directory: ``posterior.json`` (kind, spec,
    knobs and the optional ``extra`` under ``training``) plus phi as
    ``params.npy``.  Both files read back exactly."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "format_version": POSTERIOR_FORMAT_VERSION,
        "kind": fp.kind,
        "sample_count": fp.sample_count,
        "drop_rate": fp.drop_rate,
        "spec": asdict(fp.spec),
    }
    if extra:
        manifest["training"] = extra
    np.save(directory / _PARAMS_FILE, fp.phi, allow_pickle=False)
    (directory / "posterior.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")


def load_posterior(directory: str | Path) -> FittedPosterior:
    """Read a posterior written by :func:`save_posterior`.

    Any other format version (version 1 included: re-fit to convert), a
    ``posterior.json`` that is not a JSON object, a missing or ill-typed key (JSON
    integers for ``sample_count``, ``spec.input_dim`` and each hidden width, a
    list of them, numbers for ``drop_rate`` and ``spec.variance_floor``), a
    missing ``params.npy``, or a phi that is not a ``.npy`` array, pickled, not
    float64, not finite or of the wrong shape for the kind and spec raises a
    one-line ``ValueError`` naming the file.
    """
    directory = Path(directory)
    manifest_path = directory / "posterior.json"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        version = manifest.get("format_version")
    except (ValueError, AttributeError) as exc:
        raise ValueError(f"{manifest_path}: not a JSON object: {exc}") from None
    if version != POSTERIOR_FORMAT_VERSION:
        raise ValueError(
            f"{manifest_path}: unsupported posterior format version {version!r}; this build "
            f"reads version {POSTERIOR_FORMAT_VERSION} only, so re-fit the posterior"
        )
    for key in ("kind", "spec", "sample_count", "drop_rate"):
        if key not in manifest:
            raise ValueError(f"{manifest_path}: missing key {key!r}")
    try:
        fields = manifest["spec"]
        spec = ArchitectureSpec(fields["input_dim"], fields["hidden_widths"],
                                fields["hidden_activation"], fields["variance_floor"])
    except KeyError as exc:
        raise ValueError(f"{manifest_path}: missing key 'spec.{exc.args[0]}'") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{manifest_path}: spec: {exc}") from None
    params_path = directory / _PARAMS_FILE
    try:
        # np.load takes any other file for a pickle and advises allow_pickle
        with open(params_path, "rb") as fh:
            if fh.read(len(np.lib.format.MAGIC_PREFIX)) != np.lib.format.MAGIC_PREFIX:
                raise ValueError("not a .npy file")
        phi = np.load(params_path, allow_pickle=False)
    except (OSError, EOFError, ValueError) as exc:
        raise ValueError(f"{params_path}: {exc}") from None
    try:
        return FittedPosterior(manifest["kind"], spec, phi, manifest["sample_count"],
                               manifest["drop_rate"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{manifest_path} and {_PARAMS_FILE}: {exc}") from None
