"""What the benchmark uses of winduq still works, without running the benchmark.

``perfbench/tracing.py`` swaps winduq functions for timing wrappers by name,
and its hooks read some of their arguments by parameter name and some
attributes of those arguments, so renaming any of them breaks the
benchmark's traced run rather than any test.  ``perfbench/workloads.py``
builds its configs, samplers and fits through the public API, so each
workload is prepared and run once here at its toy size.
"""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import winduq
from winduq.data import make_sine_dataset
from winduq.experiments import write_csv
from winduq.losses import TrainingConfig
from winduq.network import ArchitectureSpec
from winduq.posterior import SAMPLER_KINDS, PosteriorSampler, fit, save_posterior
from winduq.uncertainty import decompose_batch

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOAD_NAMES = [
    w["name"] for w in json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]
]

# parameters each hook in tracing.py reads from the bound arguments
HOOK_PARAMETERS = {
    "fit": ("sampler", "spec", "data", "cfg"),
    "decompose_batch": ("fp", "inputs"),
    "save_posterior": ("directory",),
    "write_csv": ("path",),
}


@pytest.fixture(scope="module")
def targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.FULL_TARGETS


def _resolve(target):
    owner = importlib.import_module(f"winduq.{target.module}")
    for part in target.attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_name_resolves(targets):
    for target in targets:
        assert callable(_resolve(target)), f"winduq.{target.module}.{target.attr}"


def test_hooked_functions_keep_their_parameter_names(targets):
    hooked = {t.attr: _resolve(t) for t in targets if t.hook is not None}
    assert set(hooked) == set(HOOK_PARAMETERS)
    for attr, names in HOOK_PARAMETERS.items():
        params = inspect.signature(hooked[attr]).parameters
        assert set(names) <= set(params), f"{attr}{inspect.signature(hooked[attr])}"


def test_every_exported_name_resolves():
    for name in winduq.__all__:
        assert hasattr(winduq, name), name


@pytest.mark.parametrize(
    "sampler, networks",
    [
        (PosteriorSampler("deep_ensemble", 3, ensemble_size=3), 3),
        (PosteriorSampler("mc_dropconnect", 4), 1),
    ],
    ids=["deep_ensemble", "mc_dropconnect"],
)
def test_every_hook_reads_a_toy_run(targets, tmp_path, sampler, networks):
    # each hook gets the arguments of a real call, bound as the tracer binds them
    train, _ = make_sine_dataset(seed=1, n_train=20, n_test=2)
    spec, cfg = ArchitectureSpec(1, (4,)), TrainingConfig(epochs=2, batch_size=8, seed=3)
    fp, _ = fit(sampler, spec, train, cfg)
    X = np.zeros((5, 1))
    decompose_batch(fp, X)
    save_posterior(fp, tmp_path / "p")
    write_csv(tmp_path / "t.csv", ["a"], [[1.0]])
    size = sum(f.stat().st_size for f in (tmp_path / "p").iterdir())
    calls = {
        "fit": ((sampler, spec, train, cfg), (sampler.kind, {"train_rows": 2 * 20 * networks})),
        "decompose_batch": ((fp, X), (fp.kind, {"uncertainty.decompose_batch.rows": 5})),
        "save_posterior": ((fp, tmp_path / "p"), (None, {"posterior.save_posterior.bytes": size})),
        "write_csv": (
            (tmp_path / "t.csv", ["a"], [[1.0]]),
            (None, {"experiments.write_csv.bytes": (tmp_path / "t.csv").stat().st_size}),
        ),
    }
    hooked = {t.attr: t for t in targets if t.hook is not None}
    assert set(hooked) == set(calls)
    for attr, (args, expected) in calls.items():
        bound = inspect.signature(_resolve(hooked[attr])).bind(*args).arguments
        assert hooked[attr].hook(bound) == expected, attr


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports tracing.py as a top-level module, as run.py runs it
    sys.path.insert(0, str(PERFBENCH))
    try:
        module = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
    yield module.WORKLOADS
    for name in ("workloads", "tracing"):
        del sys.modules[name]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_workload_runs_at_toy_size(workloads, tmp_path, name):
    workload = workloads[name]
    prepared = workload.prepare(3, True, tmp_path / "work")
    result = workload.run_pass(prepared, tmp_path / "out")
    assert sorted(result.cells) == sorted(SAMPLER_KINDS)
    for path in [*result.cells.values(), *result.others]:
        assert path.is_file() and path.stat().st_size > 0, path
