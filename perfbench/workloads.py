"""The benchmark workloads.

Each workload keeps the shape of one acceptance-suite experiment; all but
sine-train also shorten its length. ``prepare`` builds configs and inputs from the workload seed
(``run.py`` repeats it for ``setup_s``);
``run_pass`` is the timed call into winduq and returns one result CSV per
cell plus any other result CSVs.
winduq only ever sees the generated configs and input files.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

# Modules, not names: tracing patches module attributes, so calls made
# through names bound here would go unrecorded.
from winduq import data, experiments, posterior
from winduq.losses import TrainingConfig
from winduq.network import ArchitectureSpec

from tracing import SAMPLER_KINDS

# Acceptance-suite settings of the data_property experiment (one beta per
# sampler, as tests/test_acceptance.py::test_power_table_band_and_density_directions
# pins them): beta, epochs, learning-rate schedule.
_PROPERTY_ACCEPTANCE = {
    "deep_ensemble": (0.2, 150, (1e-2, 60, 0.3)),
    "mc_dropconnect": (0.4, 300, (1e-2, 100, 0.3)),
    "bayes_by_backprop": (0.4, 400, (3e-3, 150, 0.3)),
}
_PROPERTY_KL_WEIGHT = 1e-4
# The acceptance suite's surrogate has 8,000 rows. The workloads keep its
# per-step shapes (32 features, batch 128, widths 64) on fewer rows, so a
# pass is short enough to repeat several times per run and the median can
# filter noise.


def _scaled_schedules(factor: float) -> dict[str, tuple[float, int, tuple[float, int, float]]]:
    """Acceptance schedules with epochs and decay steps scaled by one common factor."""
    return {
        kind: (beta, max(1, round(epochs * factor)), (lr, max(1, round(step * factor)), decay))
        for kind, (beta, epochs, (lr, step, decay)) in _PROPERTY_ACCEPTANCE.items()
    }


@dataclasses.dataclass
class PassResult:
    cells: dict[str, Path]  # sampler kind -> result CSV of that cell
    others: list[Path]  # further result CSVs that must be deterministic too
    eu_ood_ratio: dict[str, float] = dataclasses.field(default_factory=dict)


class SineTrain:
    """synthetic_ood: 1-D sine, 1,000 training rows, widths (32, 32), all three
    samplers at beta 0.5, K = 5, S = 30.

    Tiny matmuls, so per-call Python overhead dominates. The epochs and
    learning-rate schedules are the experiment's defaults (600 epochs, decay
    every 200). Cut to a quarter, the deep ensemble underfits on about one
    seed in a hundred and its ``eu_ood_ratio`` falls below 1. Most of a pass
    is ``fit``; the rest is ``decompose_batch`` over grid 301 plus 200 test rows.
    """

    name = "sine-train"
    acceptance = "synthetic_ood"

    def prepare(self, seed: int, toy: bool, work: Path):
        entries = {
            "samplers": ", ".join(SAMPLER_KINDS), "seeds": str(seed), "betas": "0.5",
            "hidden_widths": "32, 32", "batch_size": "128", "ensemble_size": "5",
            "mc_samples": "30", "sine_n_train": "1000", "sine_n_test": "200",
            "grid_points": "301",
        }
        if toy:
            entries.update(epochs="2", sine_n_train="64", sine_n_test="16", grid_points="31")
        return experiments.build_config("synthetic_ood", entries)

    def run_pass(self, cfg, out: Path) -> PassResult:
        manifest = experiments.run_synthetic_ood(dataclasses.replace(cfg, out_dir=out))
        return PassResult(
            cells={c["sampler"]: out / c["file"] for c in manifest["cells"]},
            others=[out / "summary.csv"],
            eu_ood_ratio={c["sampler"]: c["eu_ood_ratio"] for c in manifest["cells"]},
        )


class PropertyWide:
    """data_property on the power-curve surrogate: 32 features, widths (64, 64, 64).

    Acceptance betas, learning rates and kl_weight, with epochs and decay
    steps cut to a fifth; posteriors saved. Matmuls do real arithmetic and
    the optimizer state is 10k-21k floats.
    """

    name = "property-wide"
    acceptance = "data_property"
    epoch_factor = 0.2
    rows = 1000  # an eighth: about five passes fit in a 25 s run

    def prepare(self, seed: int, toy: bool, work: Path):
        entries = {
            "samplers": ", ".join(SAMPLER_KINDS), "seeds": str(seed),
            "surrogate_seed": str(seed), "surrogate_n": str(self.rows), "lags": "10",
            "hidden_widths": "64, 64, 64", "batch_size": "128",
            "kl_weight": repr(_PROPERTY_KL_WEIGHT), "save_posteriors": "true",
        }
        for kind, (beta, epochs, lr) in _scaled_schedules(self.epoch_factor).items():
            entries[f"{kind}.betas"] = repr(beta)
            entries[f"{kind}.epochs"] = "1" if toy else str(epochs)
            entries[f"{kind}.lr"] = ", ".join(map(str, lr))
        if toy:
            entries.update(surrogate_n="600", hidden_widths="8, 8")
        return experiments.build_config("data_property", entries)

    def run_pass(self, cfg, out: Path) -> PassResult:
        manifest = experiments.run_data_property(dataclasses.replace(cfg, out_dir=out))
        return PassResult(
            cells={c["sampler"]: out / c["file"] for c in manifest["cells"]},
            others=[out / "summary.csv"],
        )


class DecomposeSaved:
    """decompose (the CLI path) on posteriors saved from the property table.

    Setup fits one posterior per sampler kind on a 2,000-row surrogate with
    the acceptance schedules cut to a tenth, saves each, and writes the
    validation and test splits (rows no fit saw) as the input CSV. The timed
    pass runs ``run_decompose`` once per kind at S = 30: load_posterior, CSV
    parse, decompose_batch, write_csv. No training happens in the pass.
    """

    name = "decompose-saved"
    acceptance = "decompose"
    epoch_factor = 0.1
    rows = 2000  # a quarter: 364 held-out rows to decompose

    def prepare(self, seed: int, toy: bool, work: Path):
        n, widths = (600, (8, 8)) if toy else (self.rows, (64, 64, 64))
        table = data.make_power_curve_table(seed=seed, n=n, spec=data.PowerCurveSpec())
        clean, stats = data.preprocess_power_table(table)
        train, val, test = data.window_power_table(clean, stats, lags=10)
        spec = ArchitectureSpec(train.inputs.shape[1], widths)
        work.mkdir(parents=True, exist_ok=True)
        inputs = work / "inputs.csv"
        lines = [",".join(val.feature_names)]
        lines += [",".join(repr(float(v)) for v in row) for ds in (val, test) for row in ds.inputs]
        inputs.write_text("\n".join(lines) + "\n")
        configs = {}
        for k_idx, (kind, (beta, epochs, lr)) in enumerate(
            _scaled_schedules(self.epoch_factor).items()
        ):
            sampler = posterior.PosteriorSampler(
                kind, sample_count=5 if kind == "deep_ensemble" else 30, ensemble_size=5)
            tc = TrainingConfig(
                beta=beta, epochs=epochs, batch_size=128, lr_schedule=lr, seed=seed + k_idx,
                kl_weight=_PROPERTY_KL_WEIGHT if kind == "bayes_by_backprop" else None,
            )
            fp, _ = posterior.fit(sampler, spec, train, tc)
            pdir = work / f"posterior_{kind}"
            posterior.save_posterior(fp, pdir, extra={"seed": seed, "beta": beta})
            configs[kind] = experiments.build_config("decompose", {
                "posterior_dir": str(pdir), "dataset": str(inputs),
                "mc_samples": "30", "seeds": str(seed),
            })
        return configs

    def run_pass(self, configs, out: Path) -> PassResult:
        cells = {}
        for kind, cfg in configs.items():
            manifest = experiments.run_decompose(
                dataclasses.replace(cfg, out_dir=out / kind))
            cells[kind] = out / kind / manifest["artifacts"][0]
        return PassResult(cells=cells, others=[])


WORKLOADS = {w.name: w for w in (SineTrain(), PropertyWide(), DecomposeSaved())}
