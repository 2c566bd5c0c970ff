"""Toy-size tests of the benchmark itself. Run: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from tracing import FULL_TARGETS, LAYER_METRICS, Tracer, _winduq_modules  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_toy_run_prints_every_metric_with_unit_and_direction(workload, trace):
    r = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
             "--size", "toy")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # For a traced run this also means the traced passes wrote the same bytes
    # as the untraced one.
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        [line] = [x for x in lines if x.startswith(f"metric {m['name']} = ")]
        assert line.endswith(f" {m['unit']} ({m['better']} is better)")
    env = json.loads(next(x for x in lines if x.startswith("env "))[4:])
    assert set(env["threads"].values()) == {"1"}
    for key in ("python", "numpy", "blas", "nproc", "git_sha", "git_dirty", "seed"):
        assert key in env
    if trace:
        assert any(x.startswith("call counts repeat exactly: True") for x in lines)


def test_workloads_record_reason_and_shortened_experiment():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    for w in BENCH["workloads"]:
        assert w["why"] and WORKLOADS[w["name"]].acceptance in w["why"]


def test_every_layer_metric_names_what_it_should_move():
    assert [m["name"] for m in BENCH["per_layer"]] == list(LAYER_METRICS)
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["per_layer"]:
        unit, better, moves, workloads = LAYER_METRICS[m["name"]]
        assert (unit, better) == (m["unit"], m["better"])
        assert set(moves) <= end_to_end
        assert workloads and set(workloads) <= set(WORKLOADS)


def test_tracer_restores_every_wrapped_name():
    from winduq.losses import Adam

    def snapshot():
        return {(m.__name__, k): v for m in _winduq_modules() for k, v in vars(m).items()}

    before, step = snapshot(), Adam.__dict__["step"]
    tracer = Tracer(FULL_TARGETS)
    tracer.install()
    try:
        import winduq.losses as losses
        import winduq.network as network

        assert losses.forward_batch is network.forward_batch
        assert losses.forward_batch is not before[("winduq.network", "forward_batch")]
        assert Adam.__dict__["step"] is not step
    finally:
        tracer.restore()
    assert snapshot() == before
    assert Adam.__dict__["step"] is step


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    r = _run("--workload", "sine-train", "--seed", "1", "--seconds", "1", "--trace", "0",
             cwd=tmp_path)
    assert r.returncode != 0
    assert '"correct"' not in r.stdout
