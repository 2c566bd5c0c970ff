"""Experiment harness: configs, runners, result tables, run manifests.

Three canned experiments cover the capabilities end to end:

* ``synthetic_ood``: train on the noisy sine benchmark, decompose on a grid
  spanning the training interval and the extrapolation region beyond it.
* ``data_property``: train on a (surrogate or real) wind power table and
  relate the decomposed uncertainties to sample density and the speed band
  where most observations live.
* ``dataset_scaling``: train on growing subsets of an autoregressive hourly
  power series and track how epistemic uncertainty shrinks with data volume.

The three share one runner, ``_run_cells``, which owns a run from its output
directory to its manifest.  It makes ``out_dir``, loops over seeds, samplers
and the experiment's axis (betas, or subset ratios for ``dataset_scaling``),
derives the fit and decomposition seeds, fits, saves the posterior when
``save_posteriors`` is set, names each cell's CSV and posterior directory by
one stem, then writes the experiment's tables and the manifest.  An experiment
supplies only its data, a per-cell ``evaluate`` and the tables it builds from
the cell records.  Every run writes deterministic CSV tables (floats via repr,
so reruns are byte-identical) plus a ``manifest.json``, built by
``_write_run_manifest``: the config keys the experiment reads, environment,
data fingerprint, artifacts and any saved posterior directories; a failed run
gets one from ``write_failed_manifest``.  ``build_config`` rejects a config key
the experiment does not read (``_EXPERIMENT_DEFAULTS`` lists them), a blank
path, and a config that repeats a seed, sampler, ratio or one sampler's beta,
since each entry names its own cells' files; betas and ratios count as repeats
when their six-significant-digit file tags agree.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
import math
import os
import platform
import re
import time
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .data import (
    SINE_TEST_RANGE,
    SINE_TRAIN_RANGE,
    PowerCurveSpec,
    RegressionDataset,
    _read_float,
    _read_numeric_csv,
    current_speed_column,
    load_scada_csv,
    make_hourly_power_series,
    make_power_curve_table,
    make_sine_dataset,
    preprocess_power_table,
    subsample_dataset,
    window_power_table,
    window_univariate_series,
)
from .losses import TrainingConfig
from .metrics import joint_density_ranks, mse, spearman
from .network import ArchitectureSpec
from .posterior import (
    SAMPLER_KINDS,
    FittedPosterior,
    PosteriorSampler,
    fit,
    load_posterior,
    save_posterior,
)
from .seeding import derive_seed
from .uncertainty import decompose_batch

OUT_DIR_ENV_VAR = "WINDUQ_OUT_DIR"

# seed-derivation tags for the independent streams one run uses
_TAG_DATA = 401
_TAG_FIT = 402
_TAG_DECOMP = 403
_TAG_SUBSET = 404


class ConfigError(ValueError):
    """Raised for unreadable, unknown or ill-typed configuration input."""


# ---------------------------------------------------------------------------
# defaults

_TRAINING_KEYS = ("experiment", "out_dir", "seeds", "samplers", "hidden_widths", "activation",
                  "variance_floor", "batch_size", "betas", "epochs", "lr", "mc_samples",
                  "ensemble_size", "drop_rate", "init_sigma", "kl_weight", "save_posteriors")

# Per experiment, the ExperimentConfig fields it reads (any other key is
# rejected), and those of their defaults that are not the dataclass's:
# per-sampler betas, epochs and lr, and some networks and lag windows.
_EXPERIMENT_DEFAULTS: dict[str, tuple[tuple[str, ...], dict]] = {
    "synthetic_ood": (
        _TRAINING_KEYS + ("grid_points", "sine_n_train", "sine_n_test", "sine_noise_scale"),
        {
            "betas": {k: (0.0, 0.5, 1.0) for k in SAMPLER_KINDS},
            "epochs": {k: 600 for k in SAMPLER_KINDS},
            "lr": {"deep_ensemble": (1e-2, 200, 0.3), "mc_dropconnect": (1e-2, 200, 0.3),
                   "bayes_by_backprop": (3e-3, 200, 0.3)},
        },
    ),
    "data_property": (
        _TRAINING_KEYS + ("dataset", "surrogate_n", "outlier_fraction", "surrogate_seed", "lags",
                          "density_bins", "band"),
        {
            "hidden_widths": (64, 64, 64),
            "betas": {"mc_dropconnect": (0.4, 0.8), "bayes_by_backprop": (0.4, 0.6),
                      "deep_ensemble": (0.2, 0.8)},
            "epochs": {"deep_ensemble": 20, "mc_dropconnect": 150, "bayes_by_backprop": 300},
            "lr": {"deep_ensemble": (1e-3, 10, 0.1), "mc_dropconnect": (1e-3, 60, 0.1),
                   "bayes_by_backprop": (1e-3, 100, 0.1)},
        },
    ),
    "dataset_scaling": (
        _TRAINING_KEYS + ("dataset", "series_n", "series_seed", "test_fraction", "ratios", "lags"),
        {
            "lags": 24,
            "betas": {k: (0.6,) for k in SAMPLER_KINDS},
            "epochs": {"deep_ensemble": 15, "mc_dropconnect": 120, "bayes_by_backprop": 200},
            "lr": {"deep_ensemble": (1e-3, 10, 0.1), "mc_dropconnect": (1e-3, 100, 0.1),
                   "bayes_by_backprop": (1e-4, 100, 0.1)},
        },
    ),
    "decompose": (("experiment", "out_dir", "seeds", "dataset", "posterior_dir", "mc_samples"), {}),
}


@dataclass
class ExperimentConfig:
    """Fully resolved settings for one harness invocation."""

    experiment: str
    out_dir: Path
    samplers: tuple[str, ...] = SAMPLER_KINDS
    seeds: tuple[int, ...] = (1,)
    dataset: Path | None = None
    # network
    hidden_widths: tuple[int, ...] = (32, 32)
    activation: str = "relu"
    variance_floor: float = 1e-6
    # training
    batch_size: int = 128
    betas: dict[str, tuple[float, ...]] = field(default_factory=dict)
    epochs: dict[str, int] = field(default_factory=dict)
    lr: dict[str, tuple[float, int, float]] = field(default_factory=dict)
    # samplers
    mc_samples: int = 30
    ensemble_size: int = 5
    drop_rate: float = 0.01
    init_sigma: float = 0.05
    kl_weight: float | None = None  # None = auto_kl_weight(n_train, batch_size)
    save_posteriors: bool = False
    # synthetic_ood
    grid_points: int = 301
    sine_n_train: int = 1000
    sine_n_test: int = 200
    sine_noise_scale: float = 0.3
    # data_property
    surrogate_n: int = 8000
    outlier_fraction: float = 0.03
    surrogate_seed: int = 7
    lags: int = 10
    density_bins: int = 30
    band: tuple[float, float] = (2.0, 11.0)
    # dataset_scaling
    series_n: int = 4344
    series_seed: int = 11
    test_fraction: float = 0.1
    ratios: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    # decompose
    posterior_dir: Path | None = None


# ---------------------------------------------------------------------------
# config file parsing


def _parse_float(raw: str) -> float:
    value = _read_float(raw)  # the number grammar of every input file
    if value is None or not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return value


def _parse_int(raw: str) -> int:
    # an optional sign and ASCII digits: int() would also take 1_000 and ١
    if not re.fullmatch(r"[+-]?[0-9]+", raw.strip()):
        raise ConfigError(f"expected an integer, got {raw!r}")
    return int(raw)


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected true/false, got {raw!r}")


def _parse_list(raw: str) -> list[str]:
    items = [part.strip() for part in raw.split(",")]
    if any(not item for item in items):
        raise ConfigError(f"malformed comma list {raw!r}")
    return items


def _parse_floats(raw: str) -> tuple[float, ...]:
    return tuple(_parse_float(v) for v in _parse_list(raw))


def _parse_ints(raw: str) -> tuple[int, ...]:
    return tuple(_parse_int(v) for v in _parse_list(raw))


def _parse_lr(raw: str) -> tuple[float, int, float]:
    parts = _parse_list(raw)
    if len(parts) != 3:
        raise ConfigError(f"lr wants 'initial, decay_step, decay_factor', got {raw!r}")
    return (_parse_float(parts[0]), _parse_int(parts[1]), _parse_float(parts[2]))


def _parse_kl_weight(raw: str) -> float | None:
    if raw.strip().lower() == "auto":
        return None
    num, slash, den = raw.partition("/")
    weight = _parse_float(num)
    if slash:
        denominator = _parse_float(den)
        weight = weight / denominator if denominator else math.inf
    if not 0 < weight < math.inf:
        raise ConfigError(f"expected a positive number, 'a/b' or 'auto', got {raw!r}")
    return weight


def _parse_path(raw: str) -> Path:
    if not raw.strip():  # Path("") is the working directory
        raise ConfigError(f"expected a path, got {raw!r}")
    return Path(raw)


def _parse_samplers(raw: str) -> tuple[str, ...]:
    kinds = tuple(_parse_list(raw))
    bad = [k for k in kinds if k not in SAMPLER_KINDS]
    if bad:
        raise ConfigError(f"unknown sampler kinds {bad}; valid: {list(SAMPLER_KINDS)}")
    return kinds


def _parse_band(raw: str) -> tuple[float, float]:
    lo_hi = _parse_floats(raw)
    if len(lo_hi) != 2 or lo_hi[0] >= lo_hi[1]:
        raise ConfigError(f"band wants 'low, high' with low < high, got {raw!r}")
    return lo_hi


# Every ExperimentConfig field but the per-sampler dicts is the config key
# of the same name, parsed by its annotated type unless it has its own parser.
_TYPE_PARSERS: dict[object, Callable[[str], object]] = {
    int: _parse_int, float: _parse_float, bool: _parse_bool, str: str, Path: _parse_path,
    Path | None: _parse_path, tuple[int, ...]: _parse_ints, tuple[float, ...]: _parse_floats,
}
_OWN_PARSERS = {"samplers": _parse_samplers, "kl_weight": _parse_kl_weight, "band": _parse_band}
# ``betas = ...`` sets every sampler, ``<kind>.betas = ...`` one of them
_PER_SAMPLER_PARSERS = {"betas": _parse_floats, "epochs": _parse_int, "lr": _parse_lr}
_KEY_PARSERS = {
    name: _OWN_PARSERS.get(name) or _TYPE_PARSERS[hint]
    for name, hint in typing.get_type_hints(ExperimentConfig).items()
    if name not in _PER_SAMPLER_PARSERS
}
_CONFIG_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)} | {
    f"{kind}.{name}" for kind in SAMPLER_KINDS for name in _PER_SAMPLER_PARSERS
}


def read_config_file(path: str | Path) -> dict[str, str]:
    """Parse a flat 'key = value' UTF-8 file; '#' lines are comments."""
    if not Path(path).is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    entries: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}:{line_no}: empty key")
        if key in entries:
            raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
        entries[key] = value
    return entries


def build_config(experiment: str, entries: dict[str, str]) -> ExperimentConfig:
    """Resolve raw key-value entries against per-experiment defaults, then
    check every value the run's cells will use.

    Unknown keys, and keys the experiment does not read, are rejected outright;
    ``experiment`` inside the file must agree with the subcommand invoked.
    """
    if experiment not in _EXPERIMENT_DEFAULTS:
        raise ConfigError(f"unknown experiment {experiment!r}; valid: {list(_EXPERIMENT_DEFAULTS)}")
    unknown = sorted(set(entries) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; valid keys: {sorted(_CONFIG_KEYS)}")
    keys, defaults = _EXPERIMENT_DEFAULTS[experiment]
    unread = sorted(k for k in entries if k.rpartition(".")[2] not in keys)
    if unread:
        raise ConfigError(f"{unread[0]} is not read by {experiment}")
    declared = entries.get("experiment")
    if declared is not None and declared != experiment:
        raise ConfigError(
            f"config declares experiment {declared!r} but the {experiment!r} command was invoked"
        )

    cfg = ExperimentConfig(experiment, Path(f"runs/{experiment}"), **copy.deepcopy(defaults))
    # plain keys first, so that a <kind>. key overrides whatever the entry order
    for key in sorted(entries, key=lambda k: "." in k):
        kind, _, name = key.rpartition(".")
        try:
            value = (_PER_SAMPLER_PARSERS.get(name) or _KEY_PARSERS[name])(entries[key])
        except ConfigError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from exc
        if kind:
            getattr(cfg, name)[kind] = value
        elif name in _PER_SAMPLER_PARSERS:
            setattr(cfg, name, {k: value for k in SAMPLER_KINDS})
        else:
            setattr(cfg, name, value)
    # validate: a key the experiment does not read keeps its default, which passes;
    # every entry names its own cells' files, betas and ratios by _token, which
    # keeps six significant digits
    cell_keys = {"seeds": cfg.seeds, "samplers": cfg.samplers, "ratios": cfg.ratios}
    cell_keys.update((f"{kind}.betas", betas) for kind, betas in cfg.betas.items())
    for key, values in cell_keys.items():
        names = [_token(v) if isinstance(v, float) else v for v in values]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ConfigError(
                    f"duplicate {key} entry {values[i]!r}: its cells' files would "
                    f"overwrite those of {values[names.index(name)]!r}"
                )
    if any(not 0 < r <= 1 for r in cfg.ratios):
        raise ConfigError(f"ratios must lie in (0, 1], got {cfg.ratios}")
    for kind, betas in cfg.betas.items():
        if cfg.experiment == "dataset_scaling" and len(betas) != 1:
            raise ConfigError(
                f"dataset_scaling fits one beta per sampler; {kind} has {list(betas)}"
            )
    for key, low in (("grid_points", 2), ("sine_n_train", 1), ("sine_n_test", 1)):
        if getattr(cfg, key) < low:
            raise ConfigError(f"{key} must be >= {low}, got {getattr(cfg, key)}")
    if cfg.experiment == "decompose" and cfg.posterior_dir is None:
        raise ConfigError("decompose needs a posterior_dir config entry")
    if cfg.experiment == "decompose" and cfg.dataset is None:
        raise ConfigError("decompose needs --dataset pointing at a CSV of input rows")
    if cfg.experiment == "decompose" and len(cfg.seeds) != 1:
        raise ConfigError(f"decompose draws with one seed, got seeds {list(cfg.seeds)}")
    # build what every cell builds (input width and training-set size aside,
    # which the data sets), so a bad value fails before the first cell's files
    try:
        _network_spec(cfg, 1)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for kind in cfg.samplers:
        try:
            _sampler_for(cfg, kind)
            for beta in cfg.betas.get(kind, ()):  # decompose trains nothing
                _training_config(cfg, kind, beta, 0, 1)
        except ValueError as exc:
            raise ConfigError(f"{kind}: {exc}") from exc
    return cfg


def auto_kl_weight(n_train: int, batch_size: int) -> float:
    """1 / round(n_train / batch_size), halves to even: 900 rows at 128 run 8 batches, get 1/7."""
    if n_train < 1 or batch_size < 1:
        raise ValueError("need positive n_train and batch_size")
    return 1.0 / max(1, round(n_train / batch_size))


# ---------------------------------------------------------------------------
# deterministic table output


def format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list] | np.ndarray) -> None:
    """Write rows, a list or a 2-D array, each cell as ``format_cell`` would.

    A 2-D float64 array ``repr``s each distinct 64-bit pattern once and gathers
    the text through ``np.unique``'s inverse index, since lagged feature windows
    repeat each value in about ``lags + 1`` columns.  Keying on the bits, not the
    value, keeps ``-0.0`` apart from ``0.0``, so every cell's bytes are its
    ``repr``.
    """
    cell = format_cell
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.ndim == 2:
        keys, inverse = np.unique(rows.view(np.int64), return_inverse=True)
        text = np.array([repr(v) for v in keys.view(np.float64).tolist()], dtype=object)
        # the inverse's shape for n-d input changed across numpy 2.0.x
        rows, cell = text[inverse.reshape(rows.shape)].tolist(), None
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row width {len(row)} != header width {len(header)}")
        lines.append(",".join(row if cell is None else map(cell, row)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


_DECOMPOSED = ("mean", "aleatoric", "epistemic", "total")


def _write_decomposed(path: Path, dec, head, tail=()) -> None:
    """Write the (name, column) pairs ``head``, the ``_DECOMPOSED`` fields of
    ``dec``, then the pairs ``tail``, as the columns of one CSV."""
    pairs = [*head, *((f, getattr(dec, f)) for f in _DECOMPOSED), *tail]
    write_csv(path, [n for n, _ in pairs], np.column_stack([c for _, c in pairs]))


def _dataset_fingerprint(ds: RegressionDataset) -> dict:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(ds.inputs))  # hashed in place, with no bytes copy
    digest.update(np.ascontiguousarray(ds.targets))
    return {
        "tag": ds.tag,
        "rows": len(ds),
        "features": ds.inputs.shape[1],
        "provenance": ds.provenance,
        "sha256": digest.hexdigest(),
    }


def _environment() -> dict:
    """The interpreter, numpy, BLAS, BLAS threads and package version of a run, and
    what picks its kernels: the CPU architecture, ``OPENBLAS_CORETYPE`` and the
    CPU features numpy's loops dispatch on (``NPY_DISABLE_CPU_FEATURES`` removes some)."""
    try:
        config = np.show_config(mode="dicts")
        blas, simd = config["Build Dependencies"]["blas"], config["SIMD Extensions"]
    except (KeyError, TypeError):  # numpy before 1.26 only prints its config
        blas, simd = {}, {}
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {"python": platform.python_version(), "numpy": np.__version__, "winduq": __version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "threads": {v: os.environ.get(v) for v in threads},
            "machine": platform.machine(),
            "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE") or None,
            "cpu_dispatch": simd.get("found")}


def _write_manifest(out_dir: Path, cfg: ExperimentConfig | None, **manifest) -> dict:
    if cfg is not None:
        echo = {k: getattr(cfg, k) for k in _EXPERIMENT_DEFAULTS[cfg.experiment][0]}
        manifest["config"] = json.loads(json.dumps(echo, default=str))
    manifest["environment"] = _environment()
    text = json.dumps(manifest, indent=1, sort_keys=True, allow_nan=False)  # strict JSON
    (out_dir / "manifest.json").write_text(text, encoding="utf-8")
    return manifest


def _write_run_manifest(cfg: ExperimentConfig, artifacts: list[str], posteriors: list[str],
                        wall_time_s: float, **fields) -> dict:
    """Write the manifest of a finished run; ``fields`` are its own keys, and with
    ``save_posteriors`` set it lists the saved ``posteriors`` under that key.  Every
    listed artifact must exist non-empty and every listed posterior directory must
    hold a posterior.json, or no manifest is written."""
    for name in artifacts:
        target = cfg.out_dir / name
        if not target.is_file() or target.stat().st_size == 0:
            raise RuntimeError(f"manifest lists missing or empty artifact {target}")
    for name in posteriors:
        if not (cfg.out_dir / name / "posterior.json").is_file():
            raise RuntimeError(f"manifest lists missing posterior {cfg.out_dir / name}")
    if cfg.save_posteriors:
        fields["posteriors"] = posteriors
    return _write_manifest(cfg.out_dir, cfg, experiment=cfg.experiment, status="ok",
                           artifacts=artifacts, wall_time_s=wall_time_s, **fields)


def write_failed_manifest(experiment: str, entries: dict[str, str], cfg: ExperimentConfig | None,
                          error: str, trace: str | None) -> dict:
    """Write the manifest of a failed run into the output directory of ``cfg``, or
    without one, that ``entries`` name: ``error``, any traceback ``trace``, the raw
    ``entries`` and, given ``cfg``, its config echo.  A blank ``out_dir`` counts as none."""
    named = Path(entries.get("out_dir", "").strip() or f"runs/{experiment}")
    out_dir = named if cfg is None else cfg.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    fields = {} if trace is None else {"traceback": trace}
    return _write_manifest(out_dir, cfg, experiment=experiment, status="failed", error=error,
                           entries=entries, artifacts=[], **fields)


def _network_spec(cfg: ExperimentConfig, input_dim: int) -> ArchitectureSpec:
    return ArchitectureSpec(input_dim, cfg.hidden_widths, cfg.activation, cfg.variance_floor)


def _sampler_for(cfg: ExperimentConfig, kind: str) -> PosteriorSampler:
    count = cfg.ensemble_size if kind == "deep_ensemble" else cfg.mc_samples
    return PosteriorSampler(
        kind=kind,
        sample_count=count,
        ensemble_size=cfg.ensemble_size,
        drop_rate=cfg.drop_rate,
        init_sigma=cfg.init_sigma,
    )


def _training_config(
    cfg: ExperimentConfig, kind: str, beta: float, fit_seed: int, n_train: int
) -> TrainingConfig:
    kl = None
    if kind == "bayes_by_backprop":
        kl = cfg.kl_weight if cfg.kl_weight is not None else auto_kl_weight(n_train, cfg.batch_size)
    return TrainingConfig(
        beta=beta,
        epochs=cfg.epochs[kind],
        batch_size=cfg.batch_size,
        lr_schedule=cfg.lr[kind],
        seed=fit_seed,
        kl_weight=kl,
    )


def _token(value: float) -> str:
    return format(value, "g").replace(".", "p").replace("-", "m")


def _spearman_or_blank(a, b) -> float | str:
    # rank correlation, or a blank cell where it is undefined
    try:
        return spearman(a, b)
    except ValueError:
        return ""


def _rows(records: list[dict], header: list[str]) -> list[list]:
    # the header's columns of each cell record, None as a blank cell
    return [["" if r[h] is None else r[h] for h in header] for r in records]


# ---------------------------------------------------------------------------
# runners


class _Cell(NamedTuple):
    """One fitted cell, as its experiment's ``evaluate`` sees it."""

    seed: int
    kind: str
    stem: str  # "<kind>_<axis><token>_seed<seed>"; names the cell's files
    train: RegressionDataset
    tc: TrainingConfig
    decompose_seed: Callable[..., int]  # *extra -> derive_seed(seed, 403, k, j, *extra)


def _run_cells(
    cfg: ExperimentConfig,
    t0: float,
    train_for: Callable[[int, int], RegressionDataset],
    evaluate: Callable[[_Cell, FittedPosterior], tuple[dict, str | None]],
    tables: Callable[[list[dict]], dict[str, tuple[list[str], list[list]]]],
    **fields,
) -> dict:
    """Run a training experiment from its output directory to its manifest.

    Fits, evaluates and optionally saves every seed x sampler x axis cell.
    The axis is the sampler's beta list; dataset_scaling sweeps the subset
    ratios instead, at the sampler's one beta.  Cell (k, j) is sampler k at
    axis index j.  A beta sweep fits all betas of sampler k from
    ``derive_seed(seed, 402, k)``, so they share initialisation and
    shuffles; a ratio cell fits from ``derive_seed(seed, 402, k, j)``.
    ``train_for(seed, j)`` gives the training set, and the network's input
    width; ``evaluate(cell, fp)`` gives the cell's stats and the name of the
    CSV it wrote, or None.  Then writes each table of ``tables(records)``,
    ``{file name: (header, rows)}``, and the manifest: the cell records,
    ``fields`` and the wall time since ``t0``.
    """
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    by_ratio = cfg.experiment == "dataset_scaling"
    axis_key = "ratio" if by_ratio else "beta"
    records: list[dict] = []
    artifacts: list[str] = []
    posteriors: list[str] = []
    for seed in cfg.seeds:
        for k, kind in enumerate(cfg.samplers):
            for j, value in enumerate(cfg.ratios if by_ratio else cfg.betas[kind]):
                beta = cfg.betas[kind][0] if by_ratio else value
                fit_seed = derive_seed(seed, _TAG_FIT, *((k, j) if by_ratio else (k,)))
                train = train_for(seed, j)
                tc = _training_config(cfg, kind, beta, fit_seed, len(train))
                spec = _network_spec(cfg, train.inputs.shape[1])
                fp, _ = fit(_sampler_for(cfg, kind), spec, train, tc)
                stem = f"{kind}_{axis_key}{_token(value)}_seed{seed}"
                decompose_seed = functools.partial(derive_seed, seed, _TAG_DECOMP, k, j)
                stats, name = evaluate(_Cell(seed, kind, stem, train, tc, decompose_seed), fp)
                if cfg.save_posteriors:
                    posteriors.append(f"posterior_{stem}")
                    save_posterior(fp, cfg.out_dir / posteriors[-1],
                                   extra={"seed": seed, "beta": beta, axis_key: value})
                if name is not None:
                    artifacts.append(name)
                    stats = {"file": name, **stats}
                records.append({"sampler": kind, "seed": seed, axis_key: value, **stats})
    for name, (header, rows) in tables(records).items():
        write_csv(cfg.out_dir / name, header, rows)
        artifacts.append(name)
    return _write_run_manifest(cfg, artifacts, posteriors, time.monotonic() - t0, cells=records,
                               **fields)


def run_synthetic_ood(cfg: ExperimentConfig) -> dict:
    """Sine benchmark: decompose over both input ranges after training on the first."""
    t0 = time.monotonic()
    grid = np.linspace(SINE_TRAIN_RANGE[0], SINE_TEST_RANGE[1], cfg.grid_points)
    grid_inputs = grid[:, None]
    in_domain = grid <= SINE_TRAIN_RANGE[1]
    beyond = grid >= SINE_TEST_RANGE[0]
    sine = {
        s: make_sine_dataset(
            seed=derive_seed(s, _TAG_DATA),
            n_train=cfg.sine_n_train,
            n_test=cfg.sine_n_test,
            noise_scale=cfg.sine_noise_scale,
        )
        for s in cfg.seeds
    }

    def evaluate(cell: _Cell, fp: FittedPosterior) -> tuple[dict, str]:
        test = sine[cell.seed][1]
        dec_grid = decompose_batch(fp, grid_inputs, seed=cell.decompose_seed(0))
        dec_test = decompose_batch(fp, test.inputs, seed=cell.decompose_seed(1))
        name = f"synthetic_{cell.stem}.csv"
        _write_decomposed(cfg.out_dir / name, dec_grid, [("x", grid)])
        mean_eu_id = float(dec_grid.epistemic[in_domain].mean())
        mean_eu_ood = float(dec_grid.epistemic[beyond].mean())
        au_id = dec_grid.aleatoric[in_domain]
        return {
            "mse_test": mse(dec_test.mean, test.targets),
            "mean_eu_id": mean_eu_id,
            "mean_eu_ood": mean_eu_ood,
            "eu_ood_ratio": mean_eu_ood / mean_eu_id if mean_eu_id > 0 else "",  # undefined
            "spearman_au_x": _spearman_or_blank(au_id, grid[in_domain]),
            "au_iqr_id": float(np.percentile(au_id, 75) - np.percentile(au_id, 25)),
        }, name

    header = ["sampler", "beta", "seed", "mse_test", "mean_eu_id", "mean_eu_ood",
              "eu_ood_ratio", "spearman_au_x", "au_iqr_id"]
    return _run_cells(
        cfg, t0, lambda seed, j: sine[seed][0], evaluate,
        lambda cells: {"summary.csv": (header, _rows(cells, header))},
        datasets=[_dataset_fingerprint(sine[s][0]) for s in cfg.seeds],
    )


def run_data_property(cfg: ExperimentConfig) -> dict:
    """Wind table: relate decomposed uncertainty to density and speed band."""
    t0 = time.monotonic()
    if cfg.dataset is not None:
        table, diagnostics = load_scada_csv(cfg.dataset)
        source = f"csv:{cfg.dataset}"
    else:
        spec = PowerCurveSpec(outlier_fraction=cfg.outlier_fraction)
        table = make_power_curve_table(seed=cfg.surrogate_seed, n=cfg.surrogate_n, spec=spec)
        diagnostics, source = [], f"surrogate(seed={cfg.surrogate_seed}, n={cfg.surrogate_n})"
    clean, stats = preprocess_power_table(table)
    train, _val, test = window_power_table(clean, stats, lags=cfg.lags)
    speed_phys = current_speed_column(test)
    speed_idx = test.feature_names.index("speed_now")
    density_rank = joint_density_ranks(
        test.inputs[:, speed_idx], test.targets, bins=cfg.density_bins
    )
    lo, hi = cfg.band
    in_band = (speed_phys >= lo) & (speed_phys <= hi)
    if not in_band.any() or in_band.all():
        raise RuntimeError(
            f"speed band [{lo}, {hi}] does not split the test rows; cannot compare"
        )

    def evaluate(cell: _Cell, fp: FittedPosterior) -> tuple[dict, str]:
        dec = decompose_batch(fp, test.inputs, seed=cell.decompose_seed())
        name = f"property_{cell.stem}.csv"
        head = [("wind_speed", speed_phys), ("power", test.targets)]
        _write_decomposed(cfg.out_dir / name, dec, head, [("density_rank", density_rank)])
        return {
            "mse_test": mse(dec.mean, test.targets),
            "mean_eu_in_band": float(dec.epistemic[in_band].mean()),
            "mean_eu_out_band": float(dec.epistemic[~in_band].mean()),
            "spearman_au_density": _spearman_or_blank(dec.aleatoric, density_rank),
        }, name

    header = ["sampler", "beta", "seed", "mse_test", "mean_eu_in_band", "mean_eu_out_band",
              "spearman_au_density"]
    band_counts = [int(in_band.sum()), int((~in_band).sum())]
    return _run_cells(
        cfg, t0, lambda seed, j: train, evaluate,
        lambda cells: {"summary.csv": (header + ["n_in_band", "n_out_band"],
                                       [row + band_counts for row in _rows(cells, header)])},
        source=source,
        load_diagnostics=diagnostics[:20],
        datasets=[_dataset_fingerprint(train), _dataset_fingerprint(test)],
    )


def run_dataset_scaling(cfg: ExperimentConfig) -> dict:
    """Grow the training subset and track mean epistemic uncertainty."""
    t0 = time.monotonic()
    if cfg.dataset is not None:
        X, names = _read_numeric_csv(cfg.dataset)
        if "power" not in names and len(names) != 1:
            raise ConfigError(
                f"{cfg.dataset}: expected a single-column CSV or a 'power' column, got {names}"
            )
        series, source = X[:, names.index("power") if "power" in names else 0], f"csv:{cfg.dataset}"
    else:
        series = make_hourly_power_series(seed=cfg.series_seed, n=cfg.series_n)
        source = f"surrogate(seed={cfg.series_seed}, n={cfg.series_n})"
    pool, test = window_univariate_series(series, lags=cfg.lags, test_fraction=cfg.test_fraction)

    # all before the first fit, so a ratio selecting no rows fails before any file
    subsets = {
        (seed, j): subsample_dataset(pool, ratio, seed=derive_seed(seed, _TAG_SUBSET, j))
        for seed in cfg.seeds
        for j, ratio in enumerate(cfg.ratios)
    }

    def evaluate(cell: _Cell, fp: FittedPosterior) -> tuple[dict, None]:
        dec = decompose_batch(fp, test.inputs, seed=cell.decompose_seed())
        return {
            "n_train": len(cell.train),
            "kl_weight": cell.tc.kl_weight,
            "mse_test": mse(dec.mean, test.targets),
            "mean_aleatoric": float(dec.aleatoric.mean()),
            "mean_epistemic": float(dec.epistemic.mean()),
        }, None

    def tables(cells: list[dict]) -> dict:
        header = ["sampler", "seed", "ratio", "n_train", "kl_weight", "mse_test",
                  "mean_aleatoric", "mean_epistemic"]
        # one trend per (seed, sampler): its cells are consecutive, in ratio order
        n = len(cfg.ratios)
        summary_rows = []
        for first in range(0, len(cells), n):
            eus = [c["mean_epistemic"] for c in cells[first : first + n]]
            trend = _spearman_or_blank(np.asarray(cfg.ratios), np.asarray(eus))
            summary_rows.append([cells[first]["sampler"], cells[first]["seed"], trend, eus[0],
                                 eus[-1]])
        return {
            "scaling.csv": (header, _rows(cells, header)),
            "summary.csv": (["sampler", "seed", "spearman_ratio_eu", "eu_first_ratio",
                             "eu_last_ratio"], summary_rows),
        }

    return _run_cells(
        cfg, t0, lambda seed, j: subsets[seed, j], evaluate, tables,
        source=source,
        datasets=[_dataset_fingerprint(pool), _dataset_fingerprint(test)],
    )


def run_decompose(cfg: ExperimentConfig) -> dict:
    """Ad-hoc decomposition of a saved posterior over a CSV of inputs.

    The manifest's ``phase_s`` gives the seconds taken to load the posterior,
    read the inputs, decompose them and write ``decomposition.csv``.
    """
    t0 = time.monotonic()
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    assert cfg.posterior_dir is not None and cfg.dataset is not None
    stamps = [time.monotonic()]
    fp = load_posterior(cfg.posterior_dir)
    stamps.append(time.monotonic())
    X, names = _read_numeric_csv(cfg.dataset)
    if X.shape[1] != fp.spec.input_dim:
        raise ConfigError(
            f"{cfg.dataset}: {X.shape[1]} columns, the posterior expects {fp.spec.input_dim}"
        )
    clash = [n for n in names if n in _DECOMPOSED]
    if clash:
        raise ConfigError(f"{cfg.dataset}: input column {clash[0]!r} is also an output column")
    stamps.append(time.monotonic())
    n_draws = None if fp.kind == "deep_ensemble" else cfg.mc_samples
    dec = decompose_batch(fp, X, n_draws, seed=cfg.seeds[0])
    stamps.append(time.monotonic())
    name = "decomposition.csv"
    _write_decomposed(cfg.out_dir / name, dec, zip(names, X.T))
    stamps.append(time.monotonic())
    return _write_run_manifest(
        cfg, [name], [], time.monotonic() - t0,
        posterior_kind=fp.kind,
        rows=int(X.shape[0]),
        phase_s=dict(zip(["load", "read", "decompose", "write"], np.diff(stamps).tolist())),
    )


RUNNERS = {
    "synthetic_ood": run_synthetic_ood,
    "data_property": run_data_property,
    "dataset_scaling": run_dataset_scaling,
    "decompose": run_decompose,
}
