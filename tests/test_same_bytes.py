"""Small CLI runs of all four experiments write what ``same_bytes/digests.json``
records: the same files, and the same bytes where the environment is the one
the digests were recorded on.

The runs are the configs in ``same_bytes/``: synthetic, data-property and
scaling with ``save_posteriors = true``, then ``decompose`` of one posterior
the synthetic run saved.  On another numpy, BLAS or CPU the bytes may differ,
so there the test compares the float sum of every CSV column and of every
``params.npy`` within the recorded ``tolerance`` instead, and the bytes of
every ``posterior.json``, which holds no computed number.  It never skips.

A change that means to alter result bytes regenerates the file, and says so:

    PYTHONPATH=src python tests/test_same_bytes.py
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from winduq.cli import main
from winduq.experiments import OUT_DIR_ENV_VAR, _environment

HERE = Path(__file__).parent / "same_bytes"
DIGESTS = HERE / "digests.json"
# (subcommand, config); decompose reads a posterior that the synthetic run saves
RUNS = (("synthetic", "synthetic.cfg"), ("data-property", "data_property.cfg"),
        ("scaling", "scaling.cfg"), ("decompose", "decompose.cfg"))
OUT_DIRS = ("synthetic", "data_property", "scaling", "decompose")
# Relative (and, near zero, absolute) tolerance on a sum, about 1,100 times the
# largest drift measured: 9.0e-16, over reruns under the OpenBLAS kernels
# Haswell, SandyBridge, Nehalem and Katmai and with numpy's AVX-512 loops off,
# where 42-47 of the 71 files changed bytes.
TOLERANCE = 1e-12


def environment() -> dict:
    """What the bytes can depend on: the manifest's environment stamp, which
    names Python, numpy, its BLAS, the CPU architecture, ``OPENBLAS_CORETYPE``
    (OpenBLAS picks its kernel by CPU, or by that variable) and the CPU
    features numpy dispatches on.  The thread counts are left out: the bytes
    agree at 1 and 2 OpenBLAS threads."""
    return {k: v for k, v in _environment().items() if k != "threads"}


def run_all(root: Path) -> None:
    """Run every config in ``RUNS`` through the CLI, inside ``root``."""
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for command, config in RUNS:
            extra = ["--dataset", str(HERE / "inputs.csv")] if command == "decompose" else []
            assert main([command, "--config", str(HERE / config), *extra]) == 0, command
    finally:
        os.chdir(cwd)


def _sums(path: Path) -> dict[str, float | None]:
    """The float sum of each CSV column (blank cells skipped, None for a text
    column), or of every entry of a ``.npy`` array under the key ``""``."""
    if path.suffix == ".npy":
        return {"": math.fsum(np.load(path).ravel().tolist())}
    with path.open(newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    sums: dict[str, float | None] = {}
    for i, name in enumerate(header):
        try:
            sums[name] = math.fsum(float(row[i]) for row in rows if row[i])
        except ValueError:  # a text column, such as sampler
            sums[name] = None
    return sums


def digest(root: Path) -> dict[str, dict]:
    """sha256 and, for a CSV or ``.npy`` file, sums of every output under
    ``root`` but the manifests, by path relative to it."""
    outputs = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            entry = {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
            if path.suffix in (".csv", ".npy"):
                entry["sums"] = _sums(path)
            outputs[path.relative_to(root).as_posix()] = entry
    return outputs


def test_small_runs_write_the_recorded_outputs(tmp_path, monkeypatch):
    monkeypatch.delenv(OUT_DIR_ENV_VAR, raising=False)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    run_all(tmp_path)
    # every output directory holds exactly the digested files plus its manifest
    files = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
    assert files == set(recorded["outputs"]) | {f"{d}/manifest.json" for d in OUT_DIRS}
    for d in OUT_DIRS:
        assert json.loads((tmp_path / d / "manifest.json").read_text())["status"] == "ok"
    outputs = digest(tmp_path)
    if environment() == recorded["environment"]:
        mismatched = [n for n, e in recorded["outputs"].items()
                      if outputs[n]["sha256"] != e["sha256"]]
        assert mismatched == []
        return
    tol = recorded["tolerance"]
    for name, expected in recorded["outputs"].items():
        if "sums" not in expected:  # posterior.json: config values only
            assert outputs[name]["sha256"] == expected["sha256"], name
            continue
        got = outputs[name]["sums"]
        assert got.keys() == expected["sums"].keys(), name
        for column, want in expected["sums"].items():
            have = got[column]
            if want is None or have is None:
                assert have is want, (name, column)
            else:
                assert math.isclose(have, want, rel_tol=tol, abs_tol=tol), (name, column, have)


def record() -> None:
    """Rewrite ``DIGESTS`` from fresh runs in this environment."""
    os.environ.pop(OUT_DIR_ENV_VAR, None)
    with tempfile.TemporaryDirectory() as tmp:
        run_all(Path(tmp))
        outputs = digest(Path(tmp))
    text = json.dumps({"environment": environment(), "tolerance": TOLERANCE, "outputs": outputs},
                      indent=1, sort_keys=True)
    DIGESTS.write_text(text + "\n", encoding="utf-8")
    print(f"recorded {len(outputs)} outputs to {DIGESTS}", file=sys.stderr)


if __name__ == "__main__":
    record()
