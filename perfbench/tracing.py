"""In-memory span tracing of winduq's public functions, from outside the package.

winduq imports functions by name (``losses`` calls its own ``forward_batch``,
``posterior`` its own ``spawn_rng``), so patching only the defining module
would miss most calls. ``Tracer.install`` therefore swaps each target for one
timing wrapper in *every* ``winduq`` module that holds it, and wraps
``losses.Adam.step`` on the class. Spans (name, start, end, parent, run id)
go into flat arrays; self time is derived from them afterwards, and
``restore`` puts every original back and verifies it did.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SAMPLER_KINDS = ("deep_ensemble", "mc_dropconnect", "bayes_by_backprop")


def _fit_hook(a: dict) -> tuple[str, dict]:
    sampler, data, cfg = a["sampler"], a["data"], a["cfg"]
    nets = sampler.ensemble_size if sampler.kind == "deep_ensemble" else 1
    return sampler.kind, {"train_rows": cfg.epochs * len(data.inputs) * nets}


def _decompose_hook(a: dict) -> tuple[str, dict]:
    return a["fp"].kind, {"uncertainty.decompose_batch.rows": len(a["inputs"])}


def _save_hook(a: dict) -> tuple[None, dict]:
    size = sum(p.stat().st_size for p in Path(a["directory"]).iterdir())
    return None, {"posterior.save_posterior.bytes": size}


def _csv_hook(a: dict) -> tuple[None, dict]:
    return None, {"experiments.write_csv.bytes": Path(a["path"]).stat().st_size}


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``attr`` of winduq module ``module`` (``Cls.method``
    for a method), recorded under span ``span``. ``hook`` gets the bound
    arguments after the call and returns (span-name suffix, amounts to add)."""

    module: str
    attr: str
    span: str
    hook: Callable[[dict], tuple[str | None, dict]] | None = None


# What the end-to-end metrics need: time and rows inside fit and decompose_batch.
E2E_TARGETS = (
    Target("posterior", "fit", "posterior.fit", _fit_hook),
    Target("uncertainty", "decompose_batch", "uncertainty.decompose_batch", _decompose_hook),
)

FULL_TARGETS = E2E_TARGETS + (
    Target("network", "parameter_layout", "network.parameter_layout"),
    Target("network", "weight_position_mask", "network.weight_position_mask"),
    Target("network", "forward_batch", "network.forward_batch"),
    Target("network", "backward_batch", "network.backward_batch"),
    Target("losses", "train", "losses.train"),
    Target("losses", "beta_nll_terms", "losses.beta_nll_terms"),
    Target("losses", "beta_nll_grads", "losses.beta_nll_grads"),
    Target("losses", "Adam.step", "losses.Adam.step"),
    Target("posterior", "sample_weight_mask", "posterior.sample_weight_mask"),
    Target("posterior", "draw_parameter_matrix", "posterior.draw_parameter_matrix"),
    Target("posterior", "draw_prediction_arrays", "posterior.draw_prediction_arrays"),
    Target("posterior", "save_posterior", "posterior.save_posterior", _save_hook),
    Target("posterior", "load_posterior", "posterior.load_posterior"),
    Target("uncertainty", "decompose_arrays", "uncertainty.decompose_arrays"),
    Target("seeding", "spawn_rng", "seeding.spawn_rng"),
    Target("seeding", "derive_seed", "seeding.derive_seed"),
    Target("experiments", "write_csv", "experiments.write_csv", _csv_hook),
    Target("experiments", "run_synthetic_ood", "experiments.run"),
    Target("experiments", "run_data_property", "experiments.run"),
    Target("experiments", "run_decompose", "experiments.run"),
    Target("data", "make_sine_dataset", "data.make_sine_dataset"),
    Target("data", "make_power_curve_table", "data.make_power_curve_table"),
    Target("data", "preprocess_power_table", "data.preprocess_power_table"),
    Target("data", "window_power_table", "data.window_power_table"),
    Target("data", "current_speed_column", "data.current_speed_column"),
    Target("metrics", "mse", "metrics.mse"),
    Target("metrics", "spearman", "metrics.spearman"),
    Target("metrics", "joint_density_ranks", "metrics.joint_density_ranks"),
)


def _winduq_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "winduq" or n.startswith("winduq.")]


class Tracer:
    """Records spans of the target functions while installed.

    ``run`` is the id stamped on new spans; the caller bumps it between the
    phases (setup repetitions, passes) it wants to tell apart.
    """

    def __init__(self, targets: tuple[Target, ...]):
        self.targets = targets
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run_of = array("i")
        self.amounts: dict[tuple[int, str], float] = defaultdict(float)
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: set[int] = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, target: Target):
        nid = self._id(target.span)
        hook = target.hook
        sig = inspect.signature(fn) if hook is not None else None
        stack = self._stack
        name_id, start, end, parent, run_of = (
            self.name_id, self.start, self.end, self.parent, self.run_of)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            run_of.append(self.run)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                suffix, amounts = hook(sig.bind(*args, **kwargs).arguments)
                if suffix:
                    name_id[idx] = self._id(f"{target.span}.{suffix}")
                for key, value in amounts.items():
                    self.amounts[(self.run, key)] += value
            return result

        self._wrappers.add(id(wrapper))
        return wrapper

    def install(self) -> None:
        modules = _winduq_modules()
        for target in self.targets:
            owner = sys.modules[f"winduq.{target.module}"]
            cls_name, _, method = target.attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(original, target))
                continue
            original = getattr(owner, target.attr)
            wrapper = self._wrap(original, target)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put every original back; raise if any winduq name still holds a wrapper."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        leftovers = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for module in _winduq_modules()
            for owner in [module, *(v for v in vars(module).values() if isinstance(v, type))]
            for attr, value in list(vars(owner).items())
            if id(value) in self._wrappers
        ]
        if leftovers:
            raise RuntimeError(f"tracing left wrappers installed: {leftovers}")

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run_of, dtype=np.int32).copy(),
        }

    def amount(self, runs: set[int], key: str) -> float:
        return sum(v for (r, k), v in self.amounts.items() if r in runs and k == key)

    def save(self, path: Path, run_labels: list[str]) -> None:
        np.savez_compressed(path, names=np.array(self.names), run_labels=np.array(run_labels),
                            **self.arrays())


class SpanSummary:
    """Per-name calls, total time and self time over the spans of some runs."""

    def __init__(self, tracer: Tracer, runs: set[int]):
        a = tracer.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        keep = np.isin(a["run"], list(runs))
        self._names = tracer.names
        self._name_id = a["name_id"][keep]
        self._dur = dur[keep]
        self._self = (dur - child)[keep]
        parent_name = np.full(a["parent"].shape, -1, dtype=np.int64)
        parent_name[has_parent] = a["name_id"][a["parent"][has_parent]]
        self._parent_name = parent_name[keep]

    def _ids(self, prefix: str) -> list[int]:
        return [i for i, n in enumerate(self._names) if n == prefix or n.startswith(prefix + ".")]

    def calls(self, name: str) -> int:
        if name not in self._names:
            return 0
        return int(np.count_nonzero(self._name_id == self._names.index(name)))

    def total(self, prefix: str) -> float:
        """Time in spans named ``prefix`` or ``prefix.*``, not nested in one another."""
        ids = self._ids(prefix)
        mine = np.isin(self._name_id, ids)
        return float(self._dur[mine & ~np.isin(self._parent_name, ids)].sum())

    def self_time(self, prefix: str) -> float:
        return float(self._self[np.isin(self._name_id, self._ids(prefix))].sum())

    def counts(self) -> dict[str, int]:
        ids, n = np.unique(self._name_id, return_counts=True)
        return {self._names[i]: int(c) for i, c in zip(ids, n)}


# Per-layer metrics: (unit, better, end-to-end metrics it should move, workloads).
LAYER_METRICS: dict[str, tuple[str, str, tuple[str, ...], tuple[str, ...]]] = {}


def _layer(names, unit, better, moves, workloads):
    for name in names:
        LAYER_METRICS[name] = (unit, better, tuple(moves), tuple(workloads))


_TRAIN, _DEC, _WALL, _SETUP = "train_rows_per_s", "decompose_rows_per_s", "wall_s", "setup_s"
_SINE, _PROP, _SAVED = "sine-train", "property-wide", "decompose-saved"
_layer(["network.parameter_layout.calls", "network.weight_position_mask.calls"],
       "count", "lower", [_TRAIN, _DEC], [_SINE, _SAVED])
_layer(["network.parameter_layout.self_s", "network.weight_position_mask.self_s"],
       "s", "lower", [_TRAIN, _DEC], [_SINE, _SAVED])
_layer(["network.parameter_layout.calls_per_step"], "calls/step", "lower", [_TRAIN, _DEC], [_SINE])
_layer(["network.forward_batch.calls", "network.backward_batch.calls"],
       "count", "lower", [_TRAIN], [_SINE, _PROP])
_layer(["network.forward_batch.self_s", "network.backward_batch.self_s"],
       "s", "lower", [_TRAIN], [_SINE, _PROP])
_layer(["losses.train.self_s", "losses.beta_nll_terms.self_s", "losses.beta_nll_grads.self_s"],
       "s", "lower", [_TRAIN], [_SINE])
_layer(["losses.Adam.step.calls"], "count", "lower", [_TRAIN], [_PROP])
_layer(["losses.Adam.step.self_s"], "s", "lower", [_TRAIN], [_PROP])
_layer([f"posterior.fit.{k}.s" for k in SAMPLER_KINDS] + ["posterior.fit.self_s"],
       "s", "lower", [_TRAIN, _WALL], [_SINE, _PROP])
_layer(["posterior.sample_weight_mask.calls", "posterior.draw_parameter_matrix.calls"],
       "count", "lower", [_DEC], [_SAVED, _SINE])
_layer(["posterior.sample_weight_mask.self_s", "posterior.draw_parameter_matrix.self_s",
        "posterior.draw_prediction_arrays.self_s"], "s", "lower", [_DEC], [_SAVED, _SINE])
_layer([f"uncertainty.decompose_batch.{k}.s" for k in SAMPLER_KINDS]
       + ["uncertainty.decompose_arrays.self_s"], "s", "lower", [_DEC, _WALL], [_SAVED])
_layer(["uncertainty.decompose_batch.rows"], "rows", "higher", [_DEC, _WALL], [_SAVED])
_layer(["uncertainty.decompose_arrays.calls"], "count", "lower", [_DEC, _WALL], [_SAVED])
_layer(["seeding.spawn_rng.calls", "seeding.derive_seed.calls"],
       "count", "lower", [_TRAIN, _DEC], [_SINE, _SAVED])
_layer(["seeding.spawn_rng.self_s"], "s", "lower", [_TRAIN, _DEC], [_SINE, _SAVED])
_layer(["posterior.save_posterior.s", "posterior.load_posterior.s"],
       "s", "lower", [_WALL, _SETUP], [_SAVED, _PROP])
_layer(["posterior.save_posterior.bytes"], "bytes", "lower", [_WALL, _SETUP], [_SAVED, _PROP])
_layer(["experiments.write_csv.s", "experiments.run.self_s"], "s", "lower", [_WALL], [_SAVED])
_layer(["experiments.write_csv.bytes"], "bytes", "lower", [_WALL], [_SAVED])
_layer(["data.s", "metrics.s"], "s", "lower", [_SETUP, _WALL], [_PROP])
_layer(["trace.overhead_s"], "s", "lower", [], [_SINE, _PROP, _SAVED])


# Saving happens in setup on decompose-saved and in the pass on property-wide,
# so these also count the setup run; every other layer metric counts the pass alone.
SETUP_SIDE = ("posterior.save_posterior.s", "posterior.save_posterior.bytes")


def _values(tracer: Tracer, runs: set[int]) -> dict[str, float]:
    s = SpanSummary(tracer, runs)
    out: dict[str, float] = {}
    for name in LAYER_METRICS:
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = s.calls(base)
        elif stat == "self_s":
            out[name] = s.self_time(base)
        elif stat == "s":
            out[name] = s.total(base)
        elif stat in ("rows", "bytes"):
            out[name] = tracer.amount(runs, name)
    steps = s.calls("losses.Adam.step")
    out["network.parameter_layout.calls_per_step"] = (
        s.calls("network.parameter_layout") / steps if steps else 0.0)
    return out


def layer_values(tracer: Tracer, run: int, setup_run: int) -> dict[str, float]:
    """Every LAYER_METRICS value except trace.overhead_s, for one traced pass."""
    out = _values(tracer, {run})
    with_setup = _values(tracer, {run, setup_run})
    out.update({name: with_setup[name] for name in SETUP_SIDE})
    return out
