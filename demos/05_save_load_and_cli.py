"""Persisting a fitted posterior and decomposing new inputs from the CLI.

A posterior fitted in one process can be saved as a directory holding a
`posterior.json` manifest and its parameter matrix as one `params.npy`, and
reused later: load it back in Python, or hand it to the
`winduq decompose` subcommand together with a CSV of feature rows.  Both
paths must produce identical numbers, which this script demonstrates.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np

from winduq.cli import main as winduq_main
from winduq.data import make_sine_dataset
from winduq.losses import TrainingConfig
from winduq.network import ArchitectureSpec
from winduq.posterior import PosteriorSampler, fit, load_posterior, save_posterior
from winduq.uncertainty import decompose_batch


def main() -> None:
    train, _ = make_sine_dataset(seed=3, n_train=200, n_test=10)
    spec = ArchitectureSpec(1, (16, 16))
    sampler = PosteriorSampler("mc_dropconnect", sample_count=20, drop_rate=0.05)
    fp, _ = fit(sampler, spec, train, TrainingConfig(epochs=100, seed=3))
    with tempfile.TemporaryDirectory(prefix="winduq_cli_") as tmp:
        save_and_decompose(fp, Path(tmp))


def save_and_decompose(fp, work: Path) -> None:
    posterior_dir = work / "posterior"
    save_posterior(fp, posterior_dir)
    print(f"saved posterior to {posterior_dir}")

    # library path: load and decompose
    restored = load_posterior(posterior_dir)
    xs = np.linspace(0.0, 12.0, 7)[:, None]
    dec = decompose_batch(restored, xs, n_draws=20, seed=5)

    # CLI path: the same inputs through the decompose subcommand
    inputs_csv = work / "inputs.csv"
    inputs_csv.write_text("x\n" + "\n".join(repr(float(x)) for x in xs[:, 0]) + "\n")
    config = work / "decompose.cfg"
    config.write_text(f"posterior_dir = {posterior_dir}\nmc_samples = 20\nseeds = 5\n")
    out_dir = work / "out"
    code = winduq_main(
        ["decompose", "--config", str(config), "--dataset", str(inputs_csv),
         "--out-dir", str(out_dir)]
    )
    assert code == 0

    with open(out_dir / "decomposition.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    print(f"{'x':>5} {'aleatoric':>12} {'epistemic':>12} {'same as library':>16}")
    for i, row in enumerate(rows):
        same = (
            float(row["aleatoric"]) == dec.aleatoric[i]
            and float(row["epistemic"]) == dec.epistemic[i]
        )
        print(
            f"{xs[i, 0]:5.1f} {dec.aleatoric[i]:12.6f} {dec.epistemic[i]:12.6f} "
            f"{str(same):>16}"
        )


if __name__ == "__main__":
    main()
