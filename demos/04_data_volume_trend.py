"""More training data, less epistemic uncertainty.

Epistemic uncertainty is the reducible part: it reflects what the model has
not seen, so feeding the same model a larger slice of the series should
shrink it while the aleatoric part stays put.  This script runs the packaged
data-volume experiment (the same runner the CLI `winduq scaling` command
uses) on the bundled hourly series, then reads the result tables it wrote.
"""

import csv
import tempfile
from pathlib import Path

from winduq.experiments import build_config, run_dataset_scaling


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="winduq_scaling_") as tmp:
        run(Path(tmp) / "run")


def run(out_dir: Path) -> None:
    cfg = build_config(
        "dataset_scaling",
        {"samplers": "deep_ensemble", "seeds": "1", "out_dir": str(out_dir)},
    )
    print("running the data-volume experiment for a deep ensemble ...")
    manifest = run_dataset_scaling(cfg)
    print(f"artifacts in {out_dir}: {', '.join(manifest['artifacts'])}")

    with open(out_dir / "scaling.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    print(f"{'ratio':>5} {'n_train':>8} {'aleatoric':>10} {'epistemic':>10}")
    for row in rows:
        print(
            f"{float(row['ratio']):5.1f} {int(row['n_train']):8d} "
            f"{float(row['mean_aleatoric']):10.6f} {float(row['mean_epistemic']):10.6f}"
        )

    with open(out_dir / "summary.csv", newline="") as fh:
        summary = next(csv.DictReader(fh))
    print(f"Spearman(ratio, mean epistemic): {float(summary['spearman_ratio_eu']):+.3f}")


if __name__ == "__main__":
    main()
