"""The narrated demo scripts still run against the public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script",
    [
        "01_decomposition_basics.py",
        "02_sine_extrapolation.py",
        "03_wind_power_pipeline.py",
        "04_data_volume_trend.py",
        "05_save_load_and_cli.py",
    ],
)
def test_demo_exits_cleanly(script, tmp_path):
    # demos 04 and 05 write temp dirs; pyproject's error::RuntimeWarning rule does not
    # reach a subprocess, so the environment carries it
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONWARNINGS="error::RuntimeWarning")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")  # threaded BLAS on tiny matmuls is slower and contends
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert not list(tmp_path.glob("winduq_*")), "demo left its temp dir behind"
