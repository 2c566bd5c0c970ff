"""End-to-end acceptance suite.

One test per shipped guarantee, each printed as a single pass/fail line by
``pytest -v``.  Exact algebraic identities and gradient correctness come
first, then seed-fixed directional behaviour of the three posterior samplers
on the bundled benchmarks, and finally byte-level CLI determinism.  Every
test asserts a wall-clock budget so runtime regressions surface here instead
of in CI timeouts.

The real-data MSE check needs a SCADA export that is not distributed with
the package; it runs only when WINDUQ_SCADA_CSV points at the CSV.
"""

import csv
import os
import time
from pathlib import Path

import numpy as np
import pytest

from winduq.cli import main
from winduq.experiments import (
    OUT_DIR_ENV_VAR,
    build_config,
    run_data_property,
    run_dataset_scaling,
    run_synthetic_ood,
)
from winduq.losses import beta_nll_grads, beta_nll_terms
from winduq.network import (
    ArchitectureSpec,
    backward_batch,
    forward_batch,
    init_parameters,
    sigmoid,
    softplus,
    weight_position_mask,
)
from winduq.posterior import (
    FittedPosterior,
    _kl_terms,
    sample_weight_mask,
    softplus_inverse,
)
from winduq.seeding import spawn_rng
from winduq.uncertainty import decompose_arrays, decompose_batch

from relu_kink import assert_clear_of_the_kink, with_random_biases

SAMPLERS = ("deep_ensemble", "mc_dropconnect", "bayes_by_backprop")

REAL_SCADA_ENV = "WINDUQ_SCADA_CSV"


def _kl(mean, rho) -> float:
    # the KL to the unit Gaussian as the Bayes-by-backprop training loop computes it
    return _kl_terms(mean, softplus(rho), sigmoid(rho))[0]


def _read_table(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_mixture_identity_and_sampling_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240817)
    for _ in range(1000):
        s = int(rng.integers(1, 65))
        means = rng.normal(scale=3.0, size=s)
        variances = rng.uniform(0.05, 4.0, size=s)
        au, eu, tu, _ = decompose_arrays(means, variances)
        assert tu == pytest.approx(au + eu, rel=1e-12, abs=0.0)
        # independently recomputed mixture variance
        assert tu == pytest.approx(float(np.mean(variances) + np.var(means)), rel=1e-12)
    for _ in range(20):
        s = int(rng.integers(1, 65))
        means = rng.normal(scale=3.0, size=s)
        variances = rng.uniform(0.05, 4.0, size=s)
        _, _, tu, _ = decompose_arrays(means, variances)
        component = rng.integers(0, s, size=1_000_000)
        draws = rng.normal(means[component], np.sqrt(variances[component]))
        assert float(np.var(draws)) == pytest.approx(tu, rel=0.01)
    assert time.monotonic() - t0 < 30.0


def test_full_network_gradients_match_finite_differences():
    t0 = time.monotonic()
    rng = np.random.default_rng(424242)
    h = 1e-5
    for _ in range(50):
        spec = ArchitectureSpec(
            int(rng.integers(1, 5)),
            tuple(int(w) for w in rng.integers(3, 8, size=int(rng.integers(1, 3)))),
        )
        params = init_parameters(spec, seed=int(rng.integers(100_000)))
        params = with_random_biases(spec, params, rng)
        X = rng.normal(size=(int(rng.integers(1, 4)), spec.input_dim))
        y = rng.normal(size=X.shape[0])
        assert_clear_of_the_kink(spec, params, X, h)
        mu0, sigma20 = forward_batch(spec, params, X)
        for beta in (0.0, 0.5, 1.0):
            # the variance-power weight is frozen at the base point by construction
            frozen_w = sigma20**beta

            def value(theta):
                mu, sigma2 = forward_batch(spec, theta, X)
                return float(
                    np.sum(frozen_w * (0.5 * np.log(sigma2) + (mu - y) ** 2 / (2 * sigma2)))
                )

            d_mean, d_variance = beta_nll_grads(mu0, sigma20, y, beta)
            analytic = backward_batch(spec, params, X, d_mean, d_variance)
            numeric = np.zeros_like(analytic)
            for i in range(analytic.size):
                up = params.copy()
                up[i] += h
                dn = params.copy()
                dn[i] -= h
                numeric[i] = (value(up) - value(dn)) / (2 * h)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-9)
    assert time.monotonic() - t0 < 30.0


def test_beta_endpoints_recover_nll_and_variance_free_mean_gradient():
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    mu = rng.normal(size=10_000)
    sigma2 = rng.uniform(0.01, 5.0, size=10_000)
    y = rng.normal(size=10_000)
    values, weights = beta_nll_terms(mu, sigma2, y, beta=0.0)
    assert np.array_equal(values, 0.5 * np.log(sigma2) + (y - mu) ** 2 / (2 * sigma2))
    assert np.all(weights == 1.0)
    d_small, _ = beta_nll_grads(mu, np.full(10_000, 0.04), y, beta=1.0)
    d_large, _ = beta_nll_grads(mu, np.full(10_000, 25.0), y, beta=1.0)
    assert np.array_equal(d_small, d_large)
    assert np.array_equal(d_small, mu - y)
    assert time.monotonic() - t0 < 5.0


@pytest.mark.slow
def test_sine_extrapolation_directions_hold_for_seed_majority(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "sine"
    cfg = build_config(
        "synthetic_ood",
        {"samplers": "deep_ensemble", "seeds": "1, 2, 3", "out_dir": str(out)},
    )
    assert cfg.ensemble_size == 5
    run_synthetic_ood(cfg)
    by = {(r["seed"], r["beta"]): r for r in _read_table(out / "summary.csv")}
    seeds = ("1", "2", "3")
    ratio_ok = [float(by[(s, "0.5")]["eu_ood_ratio"]) >= 2.0 for s in seeds]
    spearman_ok = [float(by[(s, "0.5")]["spearman_au_x"]) >= 0.5 for s in seeds]
    iqr_ok = [
        float(by[(s, "1.0")]["au_iqr_id"]) <= 0.6 * float(by[(s, "0.0")]["au_iqr_id"])
        for s in seeds
    ]
    assert sum(ratio_ok) >= 2, ratio_ok
    assert sum(spearman_ok) >= 2, spearman_ok
    assert sum(iqr_ok) >= 2, iqr_ok
    assert time.monotonic() - t0 < 300.0


@pytest.mark.slow
def test_power_table_band_and_density_directions(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "property"
    # Each sampler runs at the smaller of its two default beta values.  The
    # default budgets target a much larger real table; the bundled surrogate
    # needs longer schedules and a weaker prior before the variance head and
    # the fit spread settle into the data-driven pattern.
    smaller_beta = {
        kind: min(betas) for kind, betas in build_config("data_property", {}).betas.items()
    }
    cfg = build_config(
        "data_property",
        {
            "seeds": "1",
            "samplers": ", ".join(SAMPLERS),
            "deep_ensemble.betas": str(smaller_beta["deep_ensemble"]),
            "mc_dropconnect.betas": str(smaller_beta["mc_dropconnect"]),
            "bayes_by_backprop.betas": str(smaller_beta["bayes_by_backprop"]),
            "deep_ensemble.epochs": "150",
            "deep_ensemble.lr": "1e-2, 60, 0.3",
            "mc_dropconnect.epochs": "300",
            "mc_dropconnect.lr": "1e-2, 100, 0.3",
            "bayes_by_backprop.epochs": "400",
            "bayes_by_backprop.lr": "3e-3, 150, 0.3",
            "kl_weight": "1e-4",
            "out_dir": str(out),
        },
    )
    run_data_property(cfg)
    rows = {r["sampler"]: r for r in _read_table(out / "summary.csv")}
    assert set(rows) == set(SAMPLERS)
    for kind in SAMPLERS:
        in_band = float(rows[kind]["mean_eu_in_band"])
        out_band = float(rows[kind]["mean_eu_out_band"])
        assert in_band < out_band, (kind, in_band, out_band)
    for kind in ("deep_ensemble", "mc_dropconnect"):
        assert float(rows[kind]["spearman_au_density"]) < 0.0, kind
    assert time.monotonic() - t0 < 600.0


@pytest.mark.skipif(
    REAL_SCADA_ENV not in os.environ,
    reason=f"set {REAL_SCADA_ENV} to a real SCADA CSV to run the MSE check",
)
def test_real_scada_ensemble_mse(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "real"
    cfg = build_config(
        "data_property",
        {
            "samplers": "deep_ensemble",
            "seeds": "1",
            "dataset": os.environ[REAL_SCADA_ENV],
            "out_dir": str(out),
        },
    )
    run_data_property(cfg)
    rows = _read_table(out / "summary.csv")
    assert len(rows) == 2  # both default beta values
    for row in rows:
        assert float(row["mse_test"]) <= 0.003, (row["beta"], row["mse_test"])
    assert time.monotonic() - t0 < 600.0


@pytest.mark.slow
def test_data_volume_shrinks_epistemic_for_seed_majority(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "scaling"
    cfg = build_config("dataset_scaling", {"seeds": "1, 2, 3", "out_dir": str(out)})
    assert cfg.ratios == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    run_dataset_scaling(cfg)
    rows = _read_table(out / "summary.csv")
    for kind in SAMPLERS:
        per_seed = [r for r in rows if r["sampler"] == kind]
        assert len(per_seed) == 3
        trend_ok = [float(r["eu_last_ratio"]) < float(r["eu_first_ratio"]) for r in per_seed]
        spearman_ok = [float(r["spearman_ratio_eu"]) <= -0.6 for r in per_seed]
        assert sum(trend_ok) >= 2, (kind, trend_ok)
        assert sum(spearman_ok) >= 2, (kind, spearman_ok)
    assert time.monotonic() - t0 < 900.0


def test_posterior_property_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(8)

    # KL to the unit prior: zero exactly at the prior, strictly positive away
    prior_rho = np.full(64, softplus_inverse(1.0))
    assert _kl(np.zeros(64), prior_rho) == pytest.approx(0.0, abs=1e-12)
    for _ in range(200):
        mean = rng.normal(scale=2.0, size=32)
        rho = rng.normal(scale=2.0, size=32)
        kl = _kl(mean, rho)
        assert kl > 0.0  # random draws are never the prior itself

    # closed form against a one-million-draw Monte Carlo estimate
    mean = rng.normal(scale=0.8, size=5)
    rho = rng.normal(scale=0.8, size=5)
    sigma = softplus(rho)
    draws = rng.normal(size=(1_000_000, 5)) * sigma + mean
    log_ratio = (-0.5 * ((draws - mean) / sigma) ** 2 - np.log(sigma)) - (-0.5 * draws**2)
    mc = float(np.mean(np.sum(log_ratio, axis=1)))
    assert mc == pytest.approx(_kl(mean, rho), rel=0.01)

    # empirical mask rate over 1e5 draws within half a percent of configured
    spec = ArchitectureSpec(6, (16, 16))
    weight_positions = weight_position_mask(spec)
    weight_slots = int(weight_positions.sum())
    drop_rate = 0.1
    mask_rng = spawn_rng(6, 102)
    dropped = 0
    n_draws = 100_000
    for _ in range(n_draws):
        mask = sample_weight_mask(spec, drop_rate, mask_rng)
        dropped += int((mask[weight_positions] == 0.0).sum())
    assert abs(dropped / (n_draws * weight_slots) - drop_rate) < 0.005

    # identical draws give exactly zero epistemic uncertainty
    for s in (1, 2, 3, 17, 64):
        m = float(rng.normal())
        v = float(rng.uniform(0.1, 2.0))
        au, eu, tu, mean_hat = decompose_arrays(np.full(s, m), np.full(s, v))
        assert eu == 0.0
        assert mean_hat == m
        assert au == pytest.approx(v, rel=1e-15)
        assert tu == au
    spec = ArchitectureSpec(2, (6,))
    params = init_parameters(spec, seed=4)
    clones = FittedPosterior("deep_ensemble", spec, np.stack([params] * 3), 3, 0.0)
    dec = decompose_batch(clones, rng.normal(size=(20, 2)))
    assert np.all(dec.epistemic == 0.0)

    assert time.monotonic() - t0 < 60.0


def test_cli_rerun_writes_byte_identical_csvs(tmp_path, monkeypatch):
    t0 = time.monotonic()
    monkeypatch.delenv(OUT_DIR_ENV_VAR, raising=False)
    synthetic = {
        "samplers": ", ".join(SAMPLERS),
        "seeds": "1",
        "hidden_widths": "8",
        "epochs": "3",
        "lr": "1e-3, 50, 0.3",
        "betas": "0.5",
        "grid_points": "31",
        "sine_n_train": "96",
        "sine_n_test": "24",
        "batch_size": "32",
        "ensemble_size": "2",
        "mc_samples": "8",
        "drop_rate": "0.1",
    }
    scaling = {
        "samplers": "deep_ensemble, bayes_by_backprop",
        "seeds": "1",
        "hidden_widths": "8",
        "epochs": "2",
        "series_n": "400",
        "ratios": "0.5, 1.0",
        "ensemble_size": "2",
        "mc_samples": "8",
    }
    for command, entries in (("synthetic", synthetic), ("scaling", scaling)):
        cfg_path = tmp_path / f"{command}.cfg"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        first = tmp_path / f"{command}_a"
        second = tmp_path / f"{command}_b"
        assert main([command, "--config", str(cfg_path), "--out-dir", str(first)]) == 0
        assert main([command, "--config", str(cfg_path), "--out-dir", str(second)]) == 0
        names = sorted(p.name for p in first.glob("*.csv"))
        assert names == sorted(p.name for p in second.glob("*.csv"))
        assert len(names) >= 2
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
    assert time.monotonic() - t0 < 120.0
