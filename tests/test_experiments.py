"""Harness behavior: config resolution, runners, CLI, deterministic output.

Runner tests use deliberately tiny budgets; they check wiring, artifact
layout and byte-level reproducibility, not estimation quality.
"""

import ast
import csv
import dataclasses
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import winduq
from winduq import cli
from winduq.cli import main
from winduq.data import (
    PowerCurveSpec,
    RegressionDataset,
    _read_numeric_csv,
    make_hourly_power_series,
    make_power_curve_table,
    make_sine_dataset,
    preprocess_power_table,
    subsample_dataset,
    window_power_table,
    window_univariate_series,
)
from winduq.experiments import (
    _EXPERIMENT_DEFAULTS,
    _dataset_fingerprint,
    ConfigError,
    ExperimentConfig,
    OUT_DIR_ENV_VAR,
    auto_kl_weight,
    build_config,
    format_cell,
    read_config_file,
    run_data_property,
    run_dataset_scaling,
    run_synthetic_ood,
    write_csv,
)
from winduq.losses import TrainingConfig
from winduq.metrics import mse
from winduq.network import ArchitectureSpec, init_parameters
from winduq.posterior import (
    SAMPLER_KINDS,
    FittedPosterior,
    PosteriorSampler,
    fit,
    load_posterior,
    save_posterior,
)
from winduq.seeding import derive_seed
from winduq.uncertainty import decompose_batch


def read_table(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def csv_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


ENVIRONMENT_KEYS = ["blas", "cpu_dispatch", "machine", "numpy", "openblas_coretype", "python",
                    "threads", "winduq"]


class TestConfigFileParsing:
    def test_key_value_lines_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment\n"
            "\n"
            "seeds = 1, 2\n"
            "batch_size=64\n"
            "  lr = 1e-3, 50, 0.3  \n"
        )
        entries = read_config_file(path)
        assert entries == {"seeds": "1, 2", "batch_size": "64", "lr": "1e-3, 50, 0.3"}

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("seeds = 1\nseeds = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            read_config_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seeds\n")
        with pytest.raises(ConfigError, match="key = value"):
            read_config_file(path)

    def test_empty_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("= 3\n")
        with pytest.raises(ConfigError, match="empty key"):
            read_config_file(path)


class TestBuildConfig:
    def test_per_experiment_defaults(self):
        cfg = build_config("data_property", {})
        assert cfg.hidden_widths == (64, 64, 64)
        assert cfg.epochs == {
            "deep_ensemble": 20,
            "mc_dropconnect": 150,
            "bayes_by_backprop": 300,
        }
        assert cfg.lr["mc_dropconnect"] == (1e-3, 60, 0.1)
        assert cfg.betas["deep_ensemble"] == (0.2, 0.8)
        assert cfg.betas["bayes_by_backprop"] == (0.4, 0.6)
        assert cfg.band == (2.0, 11.0)
        syn = build_config("synthetic_ood", {})
        assert syn.hidden_widths == (32, 32)
        assert syn.grid_points == 301
        assert syn.betas["deep_ensemble"] == (0.0, 0.5, 1.0)
        assert syn.epochs["deep_ensemble"] == 600
        assert syn.lr["deep_ensemble"] == (1e-2, 200, 0.3)
        assert cfg.lags == 10
        scale = build_config("dataset_scaling", {})
        assert scale.ratios == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
        assert scale.betas["mc_dropconnect"] == (0.6,)
        assert scale.lr["bayes_by_backprop"] == (1e-4, 100, 0.1)
        assert scale.lags == 24

    def test_global_and_per_sampler_overrides(self):
        cfg = build_config(
            "synthetic_ood",
            {
                "epochs": "7",
                "lr": "1e-2, 10, 0.5",
                "betas": "0.3, 0.9",
                "mc_dropconnect.epochs": "11",
                "mc_dropconnect.lr": "2e-3, 5, 0.2",
                "deep_ensemble.betas": "1.0",
            },
        )
        assert cfg.epochs["deep_ensemble"] == 7
        assert cfg.epochs["mc_dropconnect"] == 11
        assert cfg.lr["bayes_by_backprop"] == (1e-2, 10, 0.5)
        assert cfg.lr["mc_dropconnect"] == (2e-3, 5, 0.2)
        assert cfg.betas["deep_ensemble"] == (1.0,)
        assert cfg.betas["bayes_by_backprop"] == (0.3, 0.9)

    def test_kl_weight_forms(self):
        assert build_config("synthetic_ood", {"kl_weight": "1/316"}).kl_weight == pytest.approx(
            1.0 / 316.0, rel=1e-15
        )
        assert build_config("synthetic_ood", {"kl_weight": "0.25"}).kl_weight == 0.25
        assert build_config("synthetic_ood", {"kl_weight": "auto"}).kl_weight is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            build_config("synthetic_ood", {"learning_rate": "0.1"})

    def test_experiment_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="declares experiment"):
            build_config("synthetic_ood", {"experiment": "dataset_scaling"})
        cfg = build_config("synthetic_ood", {"experiment": "synthetic_ood"})
        assert cfg.experiment == "synthetic_ood"

    def test_list_and_band_parsing(self):
        cfg = build_config(
            "data_property",
            {"seeds": "3, 5, 8", "samplers": "deep_ensemble", "band": "1.5, 9.0"},
        )
        assert cfg.seeds == (3, 5, 8)
        assert cfg.samplers == ("deep_ensemble",)
        assert cfg.band == (1.5, 9.0)
        with pytest.raises(ConfigError, match="band"):
            build_config("data_property", {"band": "9.0, 1.5"})
        with pytest.raises(ConfigError, match="unknown sampler"):
            build_config("data_property", {"samplers": "bootstrap"})
        with pytest.raises(ConfigError, match="duplicate sampler"):
            build_config("data_property", {"samplers": "deep_ensemble, deep_ensemble"})

    @pytest.mark.parametrize(
        "experiment, entries, named",
        [
            ("synthetic_ood", {"seeds": "1, 2, 1"}, "seeds entry 1"),
            ("data_property", {"samplers": "mc_dropconnect, deep_ensemble, mc_dropconnect"},
             "samplers entry 'mc_dropconnect'"),
            ("dataset_scaling", {"ratios": "0.5, 1.0, 0.50"}, "ratios entry 0.5"),
            ("synthetic_ood", {"bayes_by_backprop.betas": "0.0, 0.5, 0"},
             "bayes_by_backprop.betas entry 0.0"),
            ("data_property", {"samplers": "deep_ensemble", "betas": "0.4, 0.4"},
             "deep_ensemble.betas entry 0.4"),
            # distinct values whose file tags agree: both would write beta0p5
            ("synthetic_ood", {"betas": "0.5000001, 0.5000002"},
             "deep_ensemble.betas entry 0.5000002: its cells' files would overwrite those "
             "of 0.5000001"),
        ],
    )
    def test_repeated_cell_entries_rejected(self, experiment, entries, named):
        with pytest.raises(ConfigError, match=f"^duplicate {re.escape(named)}"):
            build_config(experiment, entries)

    def test_ratio_validation(self):
        with pytest.raises(ConfigError, match="ratios"):
            build_config("dataset_scaling", {"ratios": "0.0, 0.5"})
        with pytest.raises(ConfigError, match="ratios"):
            build_config("dataset_scaling", {"ratios": "0.5, 1.5"})

    def test_scaling_takes_one_beta_per_sampler(self):
        with pytest.raises(ConfigError, match="mc_dropconnect has \\[0.2, 0.4\\]"):
            build_config("dataset_scaling", {"mc_dropconnect.betas": "0.2, 0.4"})
        with pytest.raises(ConfigError, match="one beta per sampler"):
            build_config("dataset_scaling", {"betas": "0.2, 0.4"})
        cfg = build_config("dataset_scaling", {"betas": "0.3", "deep_ensemble.betas": "0.9"})
        assert cfg.betas["mc_dropconnect"] == (0.3,) and cfg.betas["deep_ensemble"] == (0.9,)

    def test_decompose_requires_posterior_and_dataset(self):
        with pytest.raises(ConfigError, match="posterior_dir"):
            build_config("decompose", {"dataset": "x.csv"})
        with pytest.raises(ConfigError, match="dataset"):
            build_config("decompose", {"posterior_dir": "p"})

    def test_decompose_takes_one_seed(self):
        entries = {"posterior_dir": "p", "dataset": "x.csv"}
        assert build_config("decompose", {**entries, "seeds": "7"}).seeds == (7,)
        with pytest.raises(ConfigError, match=r"one seed, got seeds \[1, 2, 3\]"):
            build_config("decompose", {**entries, "seeds": "1, 2, 3"})

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            build_config("calibration", {})

    @pytest.mark.parametrize(
        "name, plain, override, kind_value, others_value",
        [
            ("betas", "0.3", "0.7", (0.7,), (0.3,)),
            ("epochs", "1", "2", 2, 1),
            ("lr", "1e-2, 10, 0.5", "2e-3, 5, 0.2", (2e-3, 5, 0.2), (1e-2, 10, 0.5)),
        ],
    )
    def test_per_sampler_override_wins_in_either_order(
        self, name, plain, override, kind_value, others_value
    ):
        key = f"mc_dropconnect.{name}"
        plain_first = build_config("synthetic_ood", {name: plain, key: override})
        override_first = build_config("synthetic_ood", {key: override, name: plain})
        assert plain_first == override_first
        assert getattr(override_first, name) == {
            "deep_ensemble": others_value,
            "mc_dropconnect": kind_value,
            "bayes_by_backprop": others_value,
        }

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("variance_floor", "nan"),
            ("drop_rate", "inf"),
            ("init_sigma", "-inf"),
            ("betas", "0.5, nan"),
            ("deep_ensemble.lr", "nan, 10, 0.3"),
            ("band", "2, 1e400"),
            ("kl_weight", "nan"),
            ("kl_weight", "1/inf"),
        ],
    )
    def test_non_finite_numbers_rejected(self, key, raw):
        with pytest.raises(ConfigError, match=f"^key '{re.escape(key)}': expected a finite"):
            build_config("data_property", {key: raw})

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("sine_n_train", "1_000"),
            ("seeds", "\u0661, 2"),
            ("grid_points", "1e3"),
            ("batch_size", "1.0"),
            ("mc_dropconnect.epochs", "\uff13"),
            ("lr", "1e-2, 1_0, 0.5"),
            ("mc_samples", "+-3"),
        ],
    )
    def test_integers_are_a_sign_and_ascii_digits(self, key, raw):
        # int() reads the first two as 1000 and (1, 2)
        with pytest.raises(ConfigError, match=f"^key '{re.escape(key)}': expected an integer, got"):
            build_config("synthetic_ood", {key: raw})

    def test_signed_and_padded_integers_parse(self):
        cfg = build_config("synthetic_ood", {"sine_n_train": " +12 ", "seeds": "3, 007, -0"})
        assert cfg.sine_n_train == 12 and cfg.seeds == (3, 7, 0)

    @pytest.mark.parametrize("experiment, key", [
        ("synthetic_ood", "out_dir"), ("data_property", "dataset"), ("dataset_scaling", "dataset"),
        ("decompose", "posterior_dir"), ("decompose", "out_dir"),
    ])
    @pytest.mark.parametrize("raw", ["", "  "])
    def test_a_blank_path_is_rejected(self, experiment, key, raw):
        # Path("") would be the working directory
        with pytest.raises(ConfigError) as exc:
            build_config(experiment, {key: raw})
        assert str(exc.value) == f"key {key!r}: expected a path, got {raw!r}"

    @pytest.mark.parametrize("raw", ["1/0", "0", "-1", "0/5", "1/-4"])
    def test_kl_weight_must_be_positive(self, raw):
        with pytest.raises(ConfigError, match="^key 'kl_weight': expected a positive number"):
            build_config("synthetic_ood", {"kl_weight": raw})

    @pytest.mark.parametrize(
        "key, raw, message",
        [
            ("bayes_by_backprop.epochs", "-1", "bayes_by_backprop: epochs must be >= 0"),
            ("batch_size", "0", "batch_size must be >= 1"),
            # hidden layers are relu only, so no key selects an activation
            ("activation", "tanh", r"unknown config keys \['activation'\]"),
            # Adam is the only optimizer, so there is no key that selects one
            ("optimizer", "adam", r"unknown config keys \['optimizer'\]"),
            ("drop_rate", "1.5", "mc_dropconnect: drop_rate must lie in"),
            ("mc_samples", "0", "sample_count must be >= 1"),
            ("betas", "2.0", "beta must lie in"),
            # an empty test split would fail only after the first cell's files
            ("sine_n_test", "0", "sine_n_test must be >= 1, got 0"),
            ("sine_n_train", "0", "sine_n_train must be >= 1, got 0"),
        ],
    )
    def test_values_a_cell_would_reject_fail_in_build_config(self, key, raw, message):
        with pytest.raises(ConfigError, match=message):
            build_config("synthetic_ood", {key: raw})

    def test_config_keys_are_the_fields_plus_per_sampler_forms(self):
        with pytest.raises(ConfigError) as exc:
            build_config("synthetic_ood", {"no_such_key": "1"})
        listed = ast.literal_eval(str(exc.value).partition("valid keys: ")[2])
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        per_sampler = {f"{k}.{n}" for k in SAMPLER_KINDS for n in ("betas", "epochs", "lr")}
        assert sorted(listed) == sorted(fields | per_sampler)

    @staticmethod
    def _render(value) -> str:
        # the config text of a resolved value; None is only ever kl_weight's auto
        if value is None:
            return "auto"
        if isinstance(value, bool):
            return str(value).lower()
        if isinstance(value, tuple):
            return ", ".join(map(TestBuildConfig._render, value))
        return repr(value) if isinstance(value, float) else str(value)

    @pytest.mark.parametrize("experiment, entries", [
        ("synthetic_ood", {}),
        ("data_property", {}),
        ("dataset_scaling", {}),
        ("decompose", {"posterior_dir": "p", "dataset": "x.csv"}),
        ("synthetic_ood", {"save_posteriors": "yes", "kl_weight": "1/316"}),
        ("data_property", {"dataset": "scada.csv", "band": "3.5, 12"}),
    ])
    def test_every_read_key_round_trips_through_its_text(self, experiment, entries):
        cfg = build_config(experiment, entries)
        text = {}
        for key in _EXPERIMENT_DEFAULTS[experiment][0]:
            value = getattr(cfg, key)
            if isinstance(value, dict):  # one <kind>.key per sampler
                text.update((f"{kind}.{key}", self._render(v)) for kind, v in value.items())
            elif value is not None or key == "kl_weight":  # a None path has no text
                text[key] = self._render(value)
        back = build_config(experiment, text)
        # repr tells 10 from 10.0 and True from 1, which == does not
        assert back == cfg and repr(back) == repr(cfg)

    @pytest.mark.parametrize("key, raw, want", [
        ("lr", "1e-2, 10", "expected 3 comma-separated values, got '1e-2, 10'"),
        ("mc_dropconnect.lr", "1e-2, 10, 0.5, 2", "expected 3 comma-separated values"),
        ("band", "2.0", "expected 2 comma-separated values, got '2.0'"),
        ("band", "1, 2, 3", "expected 2 comma-separated values, got '1, 2, 3'"),
    ])
    def test_fixed_tuples_want_their_length(self, key, raw, want):
        with pytest.raises(ConfigError, match=f"^key '{re.escape(key)}': {re.escape(want)}"):
            build_config("data_property", {key: raw})

    def test_band_order_and_sampler_kinds_are_checked_after_parsing(self):
        with pytest.raises(ConfigError) as exc:
            build_config("data_property", {"band": "9.0, 1.5"})
        assert str(exc.value) == "key 'band': band wants 'low, high' with low < high, got (9.0, 1.5)"
        with pytest.raises(ConfigError) as exc:
            build_config("data_property", {"samplers": "deep_ensemble, bootstrap, gp"})
        assert str(exc.value) == ("key 'samplers': unknown sampler kinds ['bootstrap', 'gp']; "
                                  f"valid: {list(SAMPLER_KINDS)}")

    @pytest.mark.parametrize(
        "experiment, entries, unread",
        [
            ("dataset_scaling", {"grid_points": "5"}, "grid_points"),
            ("data_property", {"ratios": "0.5", "series_n": "10"}, "ratios"),
            ("synthetic_ood", {"surrogate_n": "3", "band": "1, 2"}, "band"),
            ("decompose", {"posterior_dir": "p", "dataset": "x.csv", "deep_ensemble.betas": "0.5"},
             "deep_ensemble.betas"),
            ("decompose", {"posterior_dir": "p", "dataset": "x.csv", "epochs": "3"}, "epochs"),
        ],
    )
    def test_a_key_the_experiment_does_not_read_is_rejected(self, experiment, entries, unread):
        # each used to build, and its manifest echoed the ignored value as if it applied
        with pytest.raises(ConfigError, match=f"^{re.escape(unread)} is not read by {experiment}$"):
            build_config(experiment, entries)

    def test_decompose_keeps_no_training_placeholders(self):
        cfg = build_config("decompose", {"posterior_dir": "p", "dataset": "x.csv"})
        assert cfg.betas == {} and cfg.epochs == {} and cfg.lr == {}

    def test_every_shipped_config_resolves(self):
        configs = Path(__file__).resolve().parents[1] / "configs"
        assert sorted(p.name for p in configs.glob("*.cfg")) == sorted(_SHIPPED_CONFIGS)
        for name, experiment in _SHIPPED_CONFIGS.items():
            cfg = build_config(experiment, read_config_file(configs / name))
            assert cfg.experiment == experiment


_SHIPPED_CONFIGS = {
    "synthetic.cfg": "synthetic_ood",
    "data_property.cfg": "data_property",
    "scaling.cfg": "dataset_scaling",
    "decompose.cfg": "decompose",
}


# CSV inputs that data._read_numeric_csv must reject, and what its error says
_BAD_CSVS = {
    "empty": ("", "empty first line"),
    "duplicate-header": ("a,b,a\n1,2,3\n", "duplicate column name 'a'"),
    "empty-name": ("a,,c\n1,2,3\n", "column 2 has an empty"),
    # `"total"` would be written unquoted and read back as a second `total`
    "quote-first-name": ('x,"""total"""\n1,2\n', "column 2 name '\"total\"' starts with a double"),
    "ragged": ("a,b\n1,2\n3\n", "line 3: the number of columns changed from 2 to 1"),
    "short-rows": ("a,b,c\n1,2\n3,4\n", "line 2: the number of columns changed from 3 to 2"),
    "non-numeric": ("a,b\n1,x\n", "line 2, column 'b': expected a finite number, got 'x'"),
    "non-finite": ("a,b\n1,2\n3,nan\n", "line 3, column 'b': expected a finite number, got 'nan'"),
    # blank lines are skipped, so a data row's number is not its line's
    "ragged-after-blank": (
        "a,b\n\n1,2\n\n3,4,5\n", "line 5: the number of columns changed from 2 to 3"
    ),
    "digit-separator": (
        "a,b\n1,2\n3,1_0\n", "line 3, column 'b': expected a finite number, got '1_0'"
    ),
    "overflow-after-blank": (
        "a,b\n1,2\n\n1e999,4\n", "line 4, column 'a': expected a finite number, got '1e999'"
    ),
    "numeric-header": ("0.5\n0.6\n0.7\n", "column name '0.5' is a number"),
    "header-only": ("a,b\n", "no data rows"),
    "non-ascii-digit": (
        "a,b\n1,2\n3,\u0661\n", "line 3, column 'b': expected a finite number, got '\u0661'"
    ),
    "quoted-field": (
        'a,b\n1,2\n3,"4"\n', "line 3, column 'b': expected a finite number, got '\"4\"'"
    ),
    "undecodable": (b"\xff\xfe,a\n1,2\n", "can't decode byte 0xff"),
}


class TestReadNumericCsv:
    @pytest.mark.parametrize("case", list(_BAD_CSVS))
    def test_malformed_input_rejected(self, tmp_path, case):
        text, message = _BAD_CSVS[case]
        path = tmp_path / "inputs.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(ValueError, match=re.escape(message)) as exc:
            _read_numeric_csv(path)
        assert str(exc.value).startswith(f"{path}: ") and "\n" not in str(exc.value)
        assert "usecols" not in str(exc.value)


    def test_the_header_may_quote_its_names_and_rows_may_not(self, tmp_path):
        path = tmp_path / "inputs.csv"
        path.write_text('"wind speed",b\n1,2\n')
        X, names = _read_numeric_csv(path)
        assert names == ["wind speed", "b"] and X.tolist() == [[1.0, 2.0]]
        path.write_text('"wind speed",b\n"1",2\n')
        with pytest.raises(ValueError, match="line 2, column 'wind speed': expected a finite"):
            _read_numeric_csv(path)


class TestAutoKlWeight:
    def test_batch_count_rounds_to_nearest(self):
        # 23652/128 = 184.8 and 2365/128 = 18.5 round to 185 and 18 batches
        assert auto_kl_weight(23652, 128) == pytest.approx(1.0 / 185.0, rel=1e-15)
        assert auto_kl_weight(2365, 128) == pytest.approx(1.0 / 18.0, rel=1e-15)
        # n / batch rounds, halves to even, so the weight need not be 1 / (batches per
        # epoch): 900 rows run 8 batches and 900/128 = 7.03 gives 1/7; 320 rows run 3
        # batches and 2.5 gives 1/2
        assert auto_kl_weight(900, 128) == 1.0 / 7.0
        assert auto_kl_weight(320, 128) == 1.0 / 2.0

    def test_small_datasets_floor_at_one_batch(self):
        assert auto_kl_weight(10, 128) == 1.0
        assert auto_kl_weight(64, 128) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            auto_kl_weight(0, 128)
        with pytest.raises(ValueError):
            auto_kl_weight(100, 0)


class TestCsvWriting:
    def test_floats_round_trip_exactly(self, tmp_path):
        values = [0.1, 1.0 / 3.0, 1e-17, -2.5, 123456.789]
        path = tmp_path / "t.csv"
        write_csv(path, ["v"], [[v] for v in values])
        rows = read_table(path)
        assert [float(r["v"]) for r in rows] == values

    def test_cells_format_stably(self):
        assert format_cell(0.1) == "0.1"
        assert format_cell(np.float64(0.25)) == "0.25"
        assert format_cell(3) == "3"
        assert format_cell("deep_ensemble") == "deep_ensemble"

    def test_row_width_checked(self, tmp_path):
        with pytest.raises(ValueError, match="width"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0]])

    def test_a_string_array_writes_the_cells_of_a_list(self, tmp_path):
        write_csv(tmp_path / "a.csv", ["v", "w"], np.array([["x", "y z"]]))
        write_csv(tmp_path / "l.csv", ["v", "w"], [["x", "y z"]])
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "l.csv").read_text() == "v,w\nx,y z\n"

    def test_float_matrix_writes_the_bytes_of_format_cell(self, tmp_path):
        rng = np.random.default_rng(5)
        matrix = np.vstack([
            [-0.0, 5e-324, 1e16, 0.1, -1e-300, np.inf],
            [np.nextafter(1.0, 2.0), -np.inf, np.nan, 1.0, 2.0**53, -123.0],
            rng.normal(size=(3, 6)) * 10.0 ** rng.integers(-20, 20, size=(3, 6)),
        ])
        header = list("abcdef")
        reference = [",".join(header)] + [",".join(format_cell(v) for v in row) for row in matrix]
        write_csv(tmp_path / "m.csv", header, matrix)
        assert (tmp_path / "m.csv").read_text() == "\n".join(reference) + "\n"
        assert "-0.0,5e-324,1e+16," in reference[1]
        # summary rows mix str, int and float cells
        rows = [["deep_ensemble", 0.5, 3, -0.0, ""], ["bayes_by_backprop", 1e16, 12, 5e-324, 7]]
        write_csv(tmp_path / "s.csv", list("vwxyz"), rows)
        assert (tmp_path / "s.csv").read_text() == (
            "v,w,x,y,z\ndeep_ensemble,0.5,3,-0.0,\nbayes_by_backprop,1e+16,12,5e-324,7\n"
        )
        with pytest.raises(ValueError, match="width"):
            write_csv(tmp_path / "t.csv", ["a"], matrix)

    def test_trailing_newline(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a"], [[1]])
        assert path.read_text() == "a\n1\n"


def _synthetic_entries(out_dir: Path) -> dict[str, str]:
    return {
        "samplers": "deep_ensemble, mc_dropconnect",
        "seeds": "1",
        "hidden_widths": "8",
        "epochs": "2",
        "lr": "1e-3, 50, 0.3",
        "betas": "0.5",
        "grid_points": "21",
        "sine_n_train": "64",
        "sine_n_test": "16",
        "batch_size": "32",
        "ensemble_size": "2",
        "mc_samples": "8",
        "drop_rate": "0.1",
        "out_dir": str(out_dir),
    }


class TestDatasetFingerprint:
    @pytest.mark.parametrize("layout", ["contiguous", "strided", "fortran"])
    def test_digest_is_that_of_the_c_ordered_bytes(self, layout):
        block = np.arange(60.0).reshape(10, 6) / 7.0
        inputs = {"contiguous": block[:, :3].copy(), "strided": block[:, ::2],
                  "fortran": np.asfortranarray(block[:, :3])}[layout]
        targets = block[::-1, 4]  # a negative stride
        ds = RegressionDataset(inputs, targets, ("a", "b", "c"), "train")
        assert inputs.flags.c_contiguous == (layout == "contiguous")
        expected = hashlib.sha256(inputs.tobytes() + targets.tobytes()).hexdigest()
        got = _dataset_fingerprint(ds)
        assert got["sha256"] == expected
        assert (got["rows"], got["features"], got["tag"]) == (10, 3, "train")


class TestSyntheticRunner:
    def test_artifacts_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        manifest = run_synthetic_ood(build_config("synthetic_ood", _synthetic_entries(out)))
        assert manifest["status"] == "ok"
        assert sorted(manifest["artifacts"]) == sorted(
            [
                "synthetic_deep_ensemble_beta0p5_seed1.csv",
                "synthetic_mc_dropconnect_beta0p5_seed1.csv",
                "summary.csv",
            ]
        )
        for name in manifest["artifacts"]:
            assert (out / name).stat().st_size > 0
        stored = json.loads((out / "manifest.json").read_text())
        assert stored["experiment"] == "synthetic_ood"
        assert stored["datasets"][0]["rows"] == 64
        # the config echo holds the keys the experiment reads, and only those
        assert "surrogate_n" not in stored["config"] and "ratios" not in stored["config"]
        assert sorted(stored["config"]) == sorted(_EXPERIMENT_DEFAULTS["synthetic_ood"][0])
        assert stored["config"]["sine_n_train"] == 64
        grid_rows = read_table(out / "synthetic_deep_ensemble_beta0p5_seed1.csv")
        assert len(grid_rows) == 21
        assert list(grid_rows[0]) == ["x", "mean", "aleatoric", "epistemic", "total"]
        total = float(grid_rows[3]["total"])
        assert total == float(grid_rows[3]["aleatoric"]) + float(grid_rows[3]["epistemic"])
        summary = read_table(out / "summary.csv")
        assert len(summary) == 2
        assert {r["sampler"] for r in summary} == {"deep_ensemble", "mc_dropconnect"}
        for row in summary:
            assert float(row["mean_eu_id"]) >= 0.0
            assert np.isfinite(float(row["mse_test"]))

    def test_manifests_stamp_the_environment_and_csvs_do_not(self, tmp_path, monkeypatch):
        first, second = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")  # read by OpenBLAS at load only
        manifest = run_synthetic_ood(build_config("synthetic_ood", _synthetic_entries(first)))
        env = manifest["environment"]
        assert sorted(env) == ENVIRONMENT_KEYS
        assert sorted(env["blas"]) == ["name", "version"]
        assert env["machine"] == platform.machine() and env["openblas_coretype"] == "Haswell"
        assert env["cpu_dispatch"] == np.show_config(mode="dicts")["SIMD Extensions"]["found"]
        assert env["threads"] == {
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
        }
        assert env["numpy"] == np.__version__ and env["winduq"] == winduq.__version__
        assert json.loads((first / "manifest.json").read_text())["environment"] == env
        # another environment changes the manifest only
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        run_synthetic_ood(build_config("synthetic_ood", _synthetic_entries(second)))
        assert json.loads((second / "manifest.json").read_text())["environment"] != env
        assert csv_bytes(first) == csv_bytes(second)

    def test_reruns_are_byte_identical(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        run_synthetic_ood(build_config("synthetic_ood", _synthetic_entries(first)))
        run_synthetic_ood(build_config("synthetic_ood", _synthetic_entries(second)))
        assert csv_bytes(first) == csv_bytes(second)
        assert len(csv_bytes(first)) == 3

    def test_a_one_draw_posterior_leaves_the_ratio_blank_and_the_manifest_strict(self, tmp_path):
        # one draw has no epistemic spread anywhere, so the ratio is 0/0
        entries = {"samplers": "deep_ensemble, mc_dropconnect", "ensemble_size": "1",
                   "mc_samples": "1", "epochs": "2", "betas": "0.5", "sine_n_train": "64",
                   "sine_n_test": "8", "grid_points": "31", "out_dir": str(tmp_path)}
        run_synthetic_ood(build_config("synthetic_ood", entries))
        for row in read_table(tmp_path / "summary.csv"):
            assert float(row["mean_eu_id"]) == float(row["mean_eu_ood"]) == 0.0
            assert row["eu_ood_ratio"] == ""

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        text = (tmp_path / "manifest.json").read_text()
        cells = json.loads(text, parse_constant=reject)["cells"]
        assert [c["eu_ood_ratio"] for c in cells] == ["", ""]


class TestDataPropertyRunner:
    def test_artifacts_and_band_split(self, tmp_path):
        out = tmp_path / "run"
        entries = {
            "samplers": "deep_ensemble",
            "betas": "0.2",
            "seeds": "1",
            "hidden_widths": "8",
            "epochs": "2",
            "surrogate_n": "500",
            "lags": "5",
            "batch_size": "64",
            "ensemble_size": "2",
            "out_dir": str(out),
        }
        manifest = run_data_property(build_config("data_property", entries))
        assert manifest["status"] == "ok"
        assert manifest["source"].startswith("surrogate")
        summary = read_table(out / "summary.csv")
        assert len(summary) == 1
        row = summary[0]
        assert int(row["n_in_band"]) > 0 and int(row["n_out_band"]) > 0
        assert np.isfinite(float(row["spearman_au_density"]))
        # 495 windows split 9:1:1 by flooring leaves 45 test rows
        samples = read_table(out / "property_deep_ensemble_beta0p2_seed1.csv")
        assert len(samples) == 45
        assert list(samples[0]) == [
            "wind_speed", "power", "mean", "aleatoric", "epistemic", "total", "density_rank",
        ]
        speeds = np.array([float(r["wind_speed"]) for r in samples])
        assert speeds.max() > 11.0 or speeds.min() < 2.0  # out-of-band rows exist

    def test_scada_csv_export_runs_like_the_surrogate(self, tmp_path):
        # repr floats read back bit for bit, so the --dataset path must write
        # the very bytes the in-memory surrogate run writes
        table = make_power_curve_table(seed=7, n=600)
        columns = (table.timestamp, table.wind_speed, table.wind_direction, table.active_power)
        rows = zip(*(c.tolist() for c in columns))
        scada = tmp_path / "scada.csv"
        scada.write_text(
            "timestamp,wind_speed,wind_direction,active_power\n"
            + "".join(f"{t},{s!r},{d!r},{p!r}\n" for t, s, d, p in rows)
        )
        entries = {"surrogate_seed": "7", "surrogate_n": "600", "hidden_widths": "8, 8",
                   "epochs": "2"}
        for name, extra in (("surrogate", {}), ("csv", {"dataset": str(scada)})):
            out = {"out_dir": str(tmp_path / name)}
            run_data_property(build_config("data_property", {**entries, **extra, **out}))
        written = csv_bytes(tmp_path / "surrogate")
        assert len(written) == 7  # six cells and the summary
        assert csv_bytes(tmp_path / "csv") == written


    def test_save_posteriors_are_listed_in_the_manifest(self, tmp_path):
        out = tmp_path / "run"
        entries = {
            "samplers": "mc_dropconnect, deep_ensemble",
            "betas": "0.4, 0.2",
            "seeds": "3",
            "hidden_widths": "8",
            "epochs": "1",
            "surrogate_n": "300",
            "lags": "5",
            "ensemble_size": "2",
            "mc_samples": "4",
            "save_posteriors": "true",
            "out_dir": str(out),
        }
        manifest = run_data_property(build_config("data_property", entries))
        on_disk = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert sorted(manifest["posteriors"]) == on_disk
        assert manifest["posteriors"] == [
            "posterior_mc_dropconnect_beta0p4_seed3",
            "posterior_mc_dropconnect_beta0p2_seed3",
            "posterior_deep_ensemble_beta0p4_seed3",
            "posterior_deep_ensemble_beta0p2_seed3",
        ]
        for name in manifest["posteriors"]:
            assert load_posterior(out / name).kind in name


class TestScalingRunner:
    def test_rows_trend_and_auto_kl(self, tmp_path):
        out = tmp_path / "run"
        entries = {
            "samplers": "deep_ensemble, bayes_by_backprop",
            "seeds": "2",
            "hidden_widths": "8",
            "epochs": "2",
            "series_n": "400",
            "ratios": "0.3, 1.0",
            "batch_size": "128",
            "ensemble_size": "2",
            "mc_samples": "8",
            "out_dir": str(out),
        }
        manifest = run_dataset_scaling(build_config("dataset_scaling", entries))
        assert manifest["status"] == "ok"
        rows = read_table(out / "scaling.csv")
        assert len(rows) == 4  # 2 samplers x 2 ratios
        # 400 points, 24 lags: 376 windows, ceil(37.6) = 38 test, 338 pool
        by_key = {(r["sampler"], r["ratio"]): r for r in rows}
        assert int(by_key[("deep_ensemble", "1.0")]["n_train"]) == 338
        assert int(by_key[("deep_ensemble", "0.3")]["n_train"]) == 101
        assert by_key[("deep_ensemble", "1.0")]["kl_weight"] == ""
        # auto KL weight: round(101/128) -> 1 batch, round(338/128) -> 3
        assert float(by_key[("bayes_by_backprop", "0.3")]["kl_weight"]) == 1.0
        assert float(by_key[("bayes_by_backprop", "1.0")]["kl_weight"]) == pytest.approx(
            1.0 / 3.0, rel=1e-15
        )
        summary = read_table(out / "summary.csv")
        assert len(summary) == 2
        for row in summary:
            assert -1.0 <= float(row["spearman_ratio_eu"]) <= 1.0
            assert float(row["eu_first_ratio"]) >= 0.0
        assert not list(out.glob("posterior_*"))  # save_posteriors is off by default
        assert "posteriors" not in manifest

    def test_save_posteriors_writes_every_cell(self, tmp_path):
        out = tmp_path / "run"
        entries = {
            "samplers": "deep_ensemble, mc_dropconnect",
            "seeds": "2",
            "hidden_widths": "8",
            "epochs": "1",
            "series_n": "400",
            "ratios": "0.3, 1.0",
            "ensemble_size": "2",
            "mc_samples": "4",
            "save_posteriors": "true",
            "out_dir": str(out),
        }
        manifest = run_dataset_scaling(build_config("dataset_scaling", entries))
        saved = sorted(p.name for p in out.glob("posterior_*"))
        assert saved == [
            "posterior_deep_ensemble_ratio0p3_seed2",
            "posterior_deep_ensemble_ratio1_seed2",
            "posterior_mc_dropconnect_ratio0p3_seed2",
            "posterior_mc_dropconnect_ratio1_seed2",
        ]
        assert manifest["posteriors"] == saved  # in run order, which is sorted here
        assert json.loads((out / "manifest.json").read_text())["posteriors"] == saved
        for name in saved:
            assert load_posterior(out / name).kind in name
            training = json.loads((out / name / "posterior.json").read_text())["training"]
            ratio = 0.3 if "ratio0p3" in name else 1.0
            assert training == {"seed": 2, "beta": 0.6, "ratio": ratio}


def _columns(path: Path, names: list[str]) -> dict[str, np.ndarray]:
    rows = read_table(path)
    return {n: np.array([float(r[n]) for r in rows]) for n in names}


class TestSeedStreams:
    """One cell of each runner, refitted by hand from its documented seeds.

    Cell (k, j) is sampler k at beta or ratio index j.  The pinned cells have
    k != j, so swapping or dropping an index of a derive_seed call changes
    the numbers, which rerun-identity tests cannot see.
    """

    DECOMPOSED = ["mean", "aleatoric", "epistemic", "total"]

    def test_synthetic_cell(self, tmp_path):
        entries = _synthetic_entries(tmp_path)
        entries.update(samplers="mc_dropconnect", betas="0.0, 0.5", seeds="3")
        run_synthetic_ood(build_config("synthetic_ood", entries))
        # k = 0, beta index j = 1: fit (3, 402, 0), grid (3, 403, 0, 1, 0), test (..., 1)
        train, test = make_sine_dataset(
            seed=derive_seed(3, 401), n_train=64, n_test=16, noise_scale=0.3
        )
        tc = TrainingConfig(
            beta=0.5, epochs=2, batch_size=32, lr_schedule=(1e-3, 50, 0.3),
            seed=derive_seed(3, 402, 0),
        )
        sampler = PosteriorSampler("mc_dropconnect", 8, ensemble_size=2, drop_rate=0.1)
        fp, _ = fit(sampler, ArchitectureSpec(1, (8,)), train, tc)
        grid = np.linspace(0.0, 15.0, 21)
        dec = decompose_batch(fp, grid[:, None], seed=derive_seed(3, 403, 0, 1, 0))
        dec_test = decompose_batch(fp, test.inputs, seed=derive_seed(3, 403, 0, 1, 1))
        got = _columns(tmp_path / "synthetic_mc_dropconnect_beta0p5_seed3.csv", self.DECOMPOSED)
        for column in self.DECOMPOSED:
            assert np.array_equal(got[column], getattr(dec, column)), column
        [row] = [r for r in read_table(tmp_path / "summary.csv") if r["beta"] == "0.5"]
        assert float(row["mse_test"]) == mse(dec_test.mean, test.targets)

    def test_data_property_cell(self, tmp_path):
        entries = {
            "samplers": "deep_ensemble, bayes_by_backprop",
            "deep_ensemble.betas": "0.2",
            "bayes_by_backprop.betas": "0.4, 0.6",
            "seeds": "2",
            "hidden_widths": "8",
            "epochs": "2",
            "lr": "1e-3, 50, 0.3",
            "surrogate_n": "500",
            "lags": "5",
            "batch_size": "64",
            "ensemble_size": "2",
            "mc_samples": "6",
            "out_dir": str(tmp_path),
        }
        run_data_property(build_config("data_property", entries))
        # k = 1, beta index j = 0: fit (2, 402, 1), decompose (2, 403, 1, 0)
        table = make_power_curve_table(seed=7, n=500, spec=PowerCurveSpec(outlier_fraction=0.03))
        train, _val, test = window_power_table(*preprocess_power_table(table), lags=5)
        tc = TrainingConfig(
            beta=0.4, epochs=2, batch_size=64, lr_schedule=(1e-3, 50, 0.3),
            seed=derive_seed(2, 402, 1), kl_weight=auto_kl_weight(len(train), 64),
        )
        sampler = PosteriorSampler("bayes_by_backprop", 6, ensemble_size=2)
        fp, _ = fit(sampler, ArchitectureSpec(test.inputs.shape[1], (8,)), train, tc)
        dec = decompose_batch(fp, test.inputs, seed=derive_seed(2, 403, 1, 0))
        got = _columns(tmp_path / "property_bayes_by_backprop_beta0p4_seed2.csv", self.DECOMPOSED)
        for column in self.DECOMPOSED:
            assert np.array_equal(got[column], getattr(dec, column)), column

    def test_scaling_cell_and_its_saved_posterior(self, tmp_path):
        entries = {
            "samplers": "mc_dropconnect",
            "seeds": "2",
            "hidden_widths": "8",
            "epochs": "2",
            "lr": "1e-3, 50, 0.3",
            "series_n": "400",
            "ratios": "0.3, 0.6",
            "mc_samples": "6",
            "save_posteriors": "true",
            "out_dir": str(tmp_path),
        }
        run_dataset_scaling(build_config("dataset_scaling", entries))
        # k = 0, ratio index j = 1: subset (2, 404, 1), fit (2, 402, 0, 1), decompose (2, 403, 0, 1)
        pool, test = window_univariate_series(make_hourly_power_series(seed=11, n=400), lags=24)
        subset = subsample_dataset(pool, 0.6, seed=derive_seed(2, 404, 1))
        tc = TrainingConfig(
            beta=0.6, epochs=2, batch_size=128, lr_schedule=(1e-3, 50, 0.3),
            seed=derive_seed(2, 402, 0, 1),
        )
        sampler = PosteriorSampler("mc_dropconnect", 6, drop_rate=0.01)
        fp, _ = fit(sampler, ArchitectureSpec(24, (8,)), subset, tc)
        dec = decompose_batch(fp, test.inputs, seed=derive_seed(2, 403, 0, 1))
        [row] = [r for r in read_table(tmp_path / "scaling.csv") if r["ratio"] == "0.6"]
        assert int(row["n_train"]) == len(subset)
        assert float(row["mse_test"]) == mse(dec.mean, test.targets)
        assert float(row["mean_aleatoric"]) == float(dec.aleatoric.mean())
        assert float(row["mean_epistemic"]) == float(dec.epistemic.mean())
        saved = load_posterior(tmp_path / "posterior_mc_dropconnect_ratio0p6_seed2")
        assert np.array_equal(saved.phi, fp.phi)


class TestCli:
    def _write_config(self, path: Path, entries: dict[str, str]) -> Path:
        path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        return path

    def test_synthetic_round_trip_with_seed_override(self, tmp_path, capsys):
        entries = _synthetic_entries(tmp_path / "ignored")
        del entries["out_dir"]
        cfg_path = self._write_config(tmp_path / "run.cfg", entries)
        out = tmp_path / "cli_run"
        code = main(
            ["synthetic", "--config", str(cfg_path), "--seed", "9", "--out-dir", str(out)]
        )
        assert code == 0
        assert "synthetic_ood" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seeds"] == [9]
        assert (out / "synthetic_deep_ensemble_beta0p5_seed9.csv").is_file()

    def test_cli_reruns_byte_identical(self, tmp_path):
        cfg_path = self._write_config(
            tmp_path / "run.cfg",
            {k: v for k, v in _synthetic_entries(tmp_path / "x").items() if k != "out_dir"},
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synthetic", "--config", str(cfg_path), "--out-dir", str(a)]) == 0
        assert main(["synthetic", "--config", str(cfg_path), "--out-dir", str(b)]) == 0
        assert csv_bytes(a) == csv_bytes(b)

    def test_env_var_overrides_out_dir(self, tmp_path, monkeypatch):
        cfg_path = self._write_config(
            tmp_path / "run.cfg",
            {k: v for k, v in _synthetic_entries(tmp_path / "x").items() if k != "out_dir"},
        )
        flag_dir = tmp_path / "flag"
        env_dir = tmp_path / "env"
        monkeypatch.setenv(OUT_DIR_ENV_VAR, str(env_dir))
        assert main(["synthetic", "--config", str(cfg_path), "--out-dir", str(flag_dir)]) == 0
        assert (env_dir / "manifest.json").is_file()
        assert not flag_dir.exists()

    def test_decompose_matches_library_call(self, tmp_path):
        spec = ArchitectureSpec(2, (4,))
        phi = init_parameters(spec, seed=5)[None]
        fp = FittedPosterior("mc_dropconnect", spec, phi, 8, 0.2)
        pdir = tmp_path / "posterior"
        save_posterior(fp, pdir)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(5, 2))
        features = tmp_path / "inputs.csv"
        features.write_text(
            "f1,f2\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in X) + "\n"
        )
        cfg_path = self._write_config(
            tmp_path / "dec.cfg",
            {"posterior_dir": str(pdir), "mc_samples": "8", "seeds": "3"},
        )
        out = tmp_path / "out"
        code = main(
            [
                "decompose", "--config", str(cfg_path),
                "--dataset", str(features), "--out-dir", str(out),
            ]
        )
        assert code == 0
        rows = read_table(out / "decomposition.csv")
        assert list(rows[0]) == ["f1", "f2", "mean", "aleatoric", "epistemic", "total"]
        expected = decompose_batch(fp, X, 8, seed=3)
        for i, row in enumerate(rows):
            assert float(row["aleatoric"]) == expected.aleatoric[i]
            assert float(row["epistemic"]) == expected.epistemic[i]
            assert float(row["mean"]) == expected.mean[i]
        table = np.column_stack(
            [X, expected.mean, expected.aleatoric, expected.epistemic, expected.total]
        )
        body = "".join(",".join(map(format_cell, row)) + "\n" for row in table)
        header = "f1,f2,mean,aleatoric,epistemic,total\n"
        assert (out / "decomposition.csv").read_text() == header + body
        manifest = json.loads((out / "manifest.json").read_text())
        echo = manifest["config"]
        assert "betas" not in echo and "epochs" not in echo
        assert echo["mc_samples"] == 8 and echo["posterior_dir"] == str(pdir)
        phases = manifest["phase_s"]
        assert sorted(phases) == ["decompose", "load", "read", "write"]
        assert all(v >= 0.0 for v in phases.values())
        assert sum(phases.values()) <= manifest["wall_time_s"]

    def test_decompose_reads_and_writes_utf8_whatever_the_locale(self, tmp_path):
        spec = ArchitectureSpec(2, (4,))
        save_posterior(FittedPosterior("deep_ensemble", spec, init_parameters(spec, 5)[None], 1,
                                       0.0), tmp_path / "posterior")
        features = tmp_path / "inputs.csv"
        features.write_text("sp\u00b0,b\n0.5,1.0\n-2.0,3.0\n", encoding="utf-8")
        cfg_path = self._write_config(
            tmp_path / "dec.cfg", {"posterior_dir": str(tmp_path / "posterior"), "mc_samples": "1"}
        )
        src = str(Path(winduq.__file__).resolve().parent.parent)
        # pyproject's error::RuntimeWarning rule does not reach a subprocess
        env = dict(os.environ, PYTHONUTF8="0", LC_ALL="C", PYTHONWARNINGS="error::RuntimeWarning",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / "out"
        result = subprocess.run(
            [sys.executable, "-m", "winduq.cli", "decompose", "--config", str(cfg_path),
             "--dataset", str(features), "--out-dir", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        header = (out / "decomposition.csv").read_bytes().split(b"\n")[0]
        assert header.decode("utf-8") == "sp\u00b0,b,mean,aleatoric,epistemic,total"

    @pytest.mark.parametrize("column", ["mean", "aleatoric", "epistemic", "total"])
    def test_decompose_rejects_an_input_column_named_like_an_output(
        self, tmp_path, capsys, column
    ):
        spec = ArchitectureSpec(2, (3,))
        pdir = tmp_path / "posterior"
        phi = init_parameters(spec, seed=1)[None]
        save_posterior(FittedPosterior("deep_ensemble", spec, phi, 1, 0.0), pdir)
        features = tmp_path / "inputs.csv"
        features.write_text(f"{column},x\n0.5,1.0\n")
        cfg_path = self._write_config(tmp_path / "dec.cfg", {"posterior_dir": str(pdir)})
        out = tmp_path / "out"
        code = main(
            [
                "decompose", "--config", str(cfg_path),
                "--dataset", str(features), "--out-dir", str(out),
            ]
        )
        assert code == 1
        error = f"{features}: input column {column!r} is also an output column"
        assert capsys.readouterr().err == f"error: {error}\n"
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["error"] == error

    def test_scaling_accepts_series_csv(self, tmp_path):
        series = make_hourly_power_series(seed=2, n=400)
        data = tmp_path / "series.csv"
        data.write_text("power\n" + "\n".join(repr(float(v)) for v in series) + "\n")
        cfg_path = self._write_config(
            tmp_path / "s.cfg",
            {
                "samplers": "deep_ensemble",
                "seeds": "1",
                "hidden_widths": "8",
                "epochs": "2",
                "ratios": "1.0",
                "ensemble_size": "2",
            },
        )
        out = tmp_path / "out"
        code = main(
            [
                "scaling", "--config", str(cfg_path),
                "--dataset", str(data), "--out-dir", str(out),
            ]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["source"] == f"csv:{data}"
        assert len(read_table(out / "scaling.csv")) == 1

    def test_failure_writes_manifest(self, tmp_path, capsys):
        cfg_path = self._write_config(
            tmp_path / "dec.cfg",
            {"posterior_dir": str(tmp_path / "missing"), "seeds": "1"},
        )
        out = tmp_path / "out"
        code = main(
            [
                "decompose", "--config", str(cfg_path),
                "--dataset", str(tmp_path / "also_missing.csv"), "--out-dir", str(out),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"]
        assert sorted(manifest["environment"]) == ENVIRONMENT_KEYS

    def test_failed_manifest_goes_to_the_resolved_out_dir(self, tmp_path, capsys, monkeypatch):
        # the run made " runA", but its failed manifest used to strip the flag and land in "runA"
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(OUT_DIR_ENV_VAR, raising=False)
        self._write_config(tmp_path / "dec.cfg", {"posterior_dir": "nowhere"})
        (tmp_path / "in.csv").write_text("x\n0.5\n")
        argv = ["decompose", "--config", "dec.cfg", "--dataset", "in.csv", "--out-dir", " runA"]
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [" runA", "dec.cfg", "in.csv"]
        manifest = json.loads((tmp_path / " runA" / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["config"]["out_dir"] == " runA"

    def test_malformed_posterior_fails_with_manifest(self, tmp_path, capsys):
        spec = ArchitectureSpec(1, (3,))
        phi = np.stack([init_parameters(spec, seed=k) for k in range(2)])
        pdir = tmp_path / "posterior"
        save_posterior(FittedPosterior("deep_ensemble", spec, phi, 2, 0.0), pdir)
        np.save(pdir / "params.npy", phi[:, :-1])  # one column short of the spec's 14
        features = tmp_path / "inputs.csv"
        features.write_text("x\n0.5\n")
        cfg_path = self._write_config(tmp_path / "dec.cfg", {"posterior_dir": str(pdir)})
        out = tmp_path / "out"
        code = main(
            [
                "decompose", "--config", str(cfg_path),
                "--dataset", str(features), "--out-dir", str(out),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "params.npy" in err and "got (2, 13)" in err and len(err.strip().splitlines()) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and "got (2, 13)" in manifest["error"]

    def test_unexpected_error_fails_with_manifest(self, tmp_path, capsys, monkeypatch):
        def broken_runner(cfg):
            raise KeyError("lost")

        monkeypatch.setitem(cli.RUNNERS, "synthetic_ood", broken_runner)
        out = tmp_path / "out"
        assert main(["synthetic", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "error: KeyError: 'lost'\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["error"] == "KeyError: 'lost'"
        assert "broken_runner" in manifest["traceback"]
        assert manifest["entries"] == {"out_dir": str(out)}
        assert manifest["config"]["out_dir"] == str(out)

    def test_invalid_value_fails_before_the_first_fit(self, tmp_path, capsys):
        entries = _synthetic_entries(tmp_path / "x")
        del entries["out_dir"]
        # deep_ensemble's cell would run first and write its CSV
        entries.update(samplers="deep_ensemble, bayes_by_backprop")
        entries["bayes_by_backprop.epochs"] = "-1"
        cfg_path = self._write_config(tmp_path / "run.cfg", entries)
        out = tmp_path / "out"
        assert main(["synthetic", "--config", str(cfg_path), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: bayes_by_backprop: epochs must be >= 0, got -1\n"
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and "epochs must be >= 0" in manifest["error"]
        assert "traceback" not in manifest

    @pytest.mark.parametrize(
        "command, extra, error",
        [
            ("synthetic", {"sine_n_test": "0"}, "sine_n_test must be >= 1, got 0"),
            ("scaling", {"series_n": "400", "ratios": "1.0, 0.0001"},
             "ratio 0.0001 selects no rows from 338"),
        ],
        ids=["empty-sine-test-split", "ratio-selecting-no-rows"],
    )
    def test_rejection_leaves_only_a_failed_manifest(self, tmp_path, capsys, command, extra, error):
        # each used to fail only after the first cell had written its CSV or posterior
        sine_keys = ("grid_points", "sine_n_train", "sine_n_test")  # synthetic_ood's own
        entries = {k: v for k, v in _synthetic_entries(tmp_path).items()
                   if k != "out_dir" and (command == "synthetic" or k not in sine_keys)}
        entries.update(extra, save_posteriors="true")
        cfg_path = self._write_config(tmp_path / "run.cfg", entries)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["error"] == error

    @pytest.mark.parametrize("seed", ["1_000", "x"])
    def test_seed_flag_takes_the_config_integer_grammar(self, tmp_path, capsys, seed):
        # both used to reach argparse: 1_000 ran seed 1000, x exited 2 with its usage text
        out = tmp_path / "out"
        assert main(["synthetic", "--seed", seed, "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: key 'seeds': expected an integer, got {seed!r}\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["error"] == err[7:-1]
        assert manifest["entries"] == {"seeds": seed, "out_dir": str(out)}

    def test_config_error_exits_nonzero(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path / "bad.cfg", {"not_a_key": "1"})
        code = main(["synthetic", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(["synthetic", "--config", str(tmp_path / "nope.cfg"), "--out-dir", out])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    # One case per kind of failure after argument parsing: (command, config file
    # text, or None for no file, extra arguments, whether the file's entries reach
    # the manifest, a fragment of the error, where the output directory comes
    # from).  {cfg} and {tmp} stand for the config path and the test's directory.
    _FAILURES = {
        "missing-config-file": (
            "synthetic", None, [], False, "config file not found: {cfg}", "flag"),
        "malformed-line": (
            "synthetic", "seeds = 1\nepochs 3\n", [], False,
            "{cfg}:2: expected 'key = value', got 'epochs 3'", "env"),
        "duplicate-key": (
            "synthetic", "seeds = 1\nseeds = 2\n", [], False, "{cfg}:2: duplicate key 'seeds'",
            "flag"),
        "unknown-key": (
            "synthetic", "not_a_key = 1\n", [], True, "unknown config keys ['not_a_key']", "file"),
        "unread-key": (
            "synthetic", "posterior_dir = p\n", [], True,
            "posterior_dir is not read by synthetic_ood", "env"),
        "bad-value-in-file": (
            "synthetic", "epochs = 2.5\n", [], True, "key 'epochs': expected an integer, got '2.5'",
            "file"),
        "seed-flag": (
            "synthetic", "seeds = 1\n", ["--seed", "x"], True,
            "key 'seeds': expected an integer, got 'x'", "flag"),
        "experiment-mismatch": (
            "synthetic", "experiment = data_property\n", [], True,
            "config declares experiment 'data_property' but the 'synthetic_ood' command", "file"),
        "not-utf-8": (  # written as latin-1, so the é is the lone byte 0xe9
            "synthetic", "seeds = 1\n# café\n", [], False,
            "{cfg}: 'utf-8' codec can't decode byte 0xe9", "env"),
        "validation": (
            "synthetic", "sine_n_test = 0\n", [], True, "sine_n_test must be >= 1, got 0", "file"),
        "runner": (
            "decompose", "posterior_dir = {tmp}/missing\n", ["--dataset", "{tmp}/inputs.csv"], True,
            "No such file or directory: '{tmp}/missing/posterior.json'", "file"),
    }

    @pytest.mark.parametrize("case", list(_FAILURES))
    def test_every_failure_leaves_a_failed_manifest(self, tmp_path, capsys, monkeypatch, case):
        command, text, extra, file_read, fragment, out_from = self._FAILURES[case]
        cfg_path, out = tmp_path / "run.cfg", tmp_path / "out"
        fill = {"cfg": cfg_path, "tmp": tmp_path}
        argv = [command, "--config", str(cfg_path)] + [a.format(**fill) for a in extra]
        keys = {"--seed": "seeds", "--dataset": "dataset"}
        flags = {keys[k]: v for k, v in zip(argv[3::2], argv[4::2])}
        if out_from == "flag":
            argv += ["--out-dir", str(out)]
        elif out_from == "env":
            monkeypatch.setenv(OUT_DIR_ENV_VAR, str(out))
        else:
            text = f"out_dir = {out}\n" + text
        if out_from != "file":
            flags["out_dir"] = str(out)
        if text is not None:
            cfg_path.write_bytes(text.format(**fill).encode("latin-1"))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert fragment.format(**fill) in err
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["error"] == err[7:-1]
        assert manifest["experiment"] == cli._COMMANDS[command][0]
        assert manifest["artifacts"] == [] and "traceback" not in manifest
        file_entries = read_config_file(cfg_path) if file_read else {}
        assert manifest["entries"] == {**file_entries, **flags}
        # only a config that resolved is echoed: here, the one whose runner failed
        assert ("config" in manifest) == (case == "runner")

    def test_failed_manifest_defaults_to_the_experiment_directory(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["scaling", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert capsys.readouterr().err == f"error: config file not found: {tmp_path / 'nope.cfg'}\n"
        manifest = json.loads((tmp_path / "runs/dataset_scaling/manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["entries"] == {}

    @pytest.mark.parametrize("command, text, extra, key", [
        ("synthetic", "seeds = 1\nout_dir =\n", [], "out_dir"),
        ("synthetic", "seeds = 1\n", ["--out-dir", ""], "out_dir"),
        ("data-property", "dataset =\n", [], "dataset"),
    ])
    def test_a_blank_path_fails_into_the_experiment_directory(
        self, tmp_path, capsys, monkeypatch, command, text, extra, key
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(OUT_DIR_ENV_VAR, raising=False)
        (tmp_path / "run.cfg").write_text(text)
        assert main([command, "--config", "run.cfg", *extra]) == 1
        assert capsys.readouterr().err == f"error: key {key!r}: expected a path, got ''\n"
        # nothing lands in the working directory, and the manifest goes where no
        # out_dir entry would put it
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "runs"]
        experiment = cli._COMMANDS[command][0]
        manifest = json.loads((tmp_path / "runs" / experiment / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["entries"][key] == ""

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])
