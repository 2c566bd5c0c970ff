"""Loss values against hand arithmetic, gradients against finite differences.

The weighted-NLL gradient check freezes the weight factor at the base point,
because the weight is excluded from differentiation by construction.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from winduq.data import make_sine_dataset
from winduq.losses import (
    Adam,
    TrainingConfig,
    TrainingDivergedError,
    _minibatch_loop,
    _point_draw,
    beta_nll_grads,
    beta_nll_terms,
    learning_rate_at,
    nll_terms,
    train,
)
from winduq.network import (
    ArchitectureSpec,
    backward_batch,
    forward_batch,
    init_parameters,
)
from winduq.seeding import spawn_rng


def output_grads(mu, sigma2, y, beta):
    """beta_nll_grads of one prediction, as Python floats."""
    d_mean, d_variance = beta_nll_grads(mu, sigma2, y, beta)
    return float(d_mean), float(d_variance)


class TestNllValues:
    def test_hand_computed_value(self):
        # log(4)/2 + (1-3)^2 / (2*4)
        assert float(nll_terms(1.0, 4.0, 3.0)) == pytest.approx(
            math.log(4.0) / 2.0 + 0.5, rel=1e-15
        )

    def test_beta_one_scales_by_variance(self):
        value, weight = beta_nll_terms(1.0, 4.0, 3.0, beta=1.0)
        assert weight == 4.0
        assert value == pytest.approx(4.0 * (math.log(4.0) / 2.0 + 0.5), rel=1e-15)

    def test_beta_zero_is_plain_nll_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        mu = rng.normal(size=10_000)
        sigma2 = rng.uniform(0.01, 5.0, size=10_000)
        y = rng.normal(size=10_000)
        values, weights = beta_nll_terms(mu, sigma2, y, beta=0.0)
        plain = nll_terms(mu, sigma2, y)
        assert np.array_equal(values, plain)
        assert np.all(weights == 1.0)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            nll_terms(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            beta_nll_terms(0.0, -1.0, 1.0, 0.5)

    def test_nan_variance_rejected(self):
        # a NaN variance is not "strictly positive" either
        sigma2 = np.array([np.nan, 1.0])
        for fn in (beta_nll_terms, beta_nll_grads):
            with pytest.raises(ValueError, match="strictly positive"):
                fn(np.zeros(2), sigma2, np.zeros(2), 0.5)

    @pytest.mark.parametrize("beta", [-0.1, 1.1, 2.0])
    def test_beta_out_of_range_rejected(self, beta):
        with pytest.raises(ValueError):
            beta_nll_terms(0.0, 1.0, 1.0, beta)


class TestBetaGradients:
    def test_hand_computed_case(self):
        d_mean, d_var = output_grads(1.0, 4.0, 3.0, beta=0.5)
        assert d_mean == pytest.approx((1.0 - 3.0) / 4.0**0.5, rel=1e-15)
        assert d_var == pytest.approx((4.0 - 4.0) / (2.0 * 4.0**1.5), abs=1e-15)

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.5, 0.8, 1.0])
    def test_matches_frozen_weight_finite_differences(self, beta):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(40):
            mu = float(rng.normal())
            sigma2 = float(rng.uniform(0.05, 4.0))
            y = float(rng.normal())
            weight = sigma2**beta  # frozen at the base point

            def frozen(mu_, sigma2_):
                return weight * (0.5 * math.log(sigma2_) + (mu_ - y) ** 2 / (2 * sigma2_))

            fd_mean = (frozen(mu + h, sigma2) - frozen(mu - h, sigma2)) / (2 * h)
            fd_var = (frozen(mu, sigma2 + h) - frozen(mu, sigma2 - h)) / (2 * h)
            d_mean, d_var = output_grads(mu, sigma2, y, beta)
            assert d_mean == pytest.approx(fd_mean, rel=1e-7, abs=1e-9)
            assert d_var == pytest.approx(fd_var, rel=1e-6, abs=1e-8)

    def test_perturbing_weight_factor_does_not_change_gradients(self):
        # the returned gradients must depend on sigma2 only through the NLL
        # part; replacing the weight's sigma2 by anything else is invisible
        mu, sigma2, y, beta = 0.4, 1.7, -0.9, 0.6
        d = output_grads(mu, sigma2, y, beta)
        expected_mean = (mu - y) / sigma2 ** (1.0 - beta)
        expected_var = (sigma2 - (y - mu) ** 2) / (2.0 * sigma2 ** (2.0 - beta))
        assert d == (pytest.approx(expected_mean, rel=1e-15), pytest.approx(expected_var, rel=1e-15))

    @pytest.mark.parametrize("beta", [0.0, 0.4, 0.5, 1.0])
    def test_terms_and_grads_are_the_plain_formulas_bit_for_bit(self, beta):
        rng = np.random.default_rng(3)
        mu, y = rng.normal(size=(2, 257))
        sigma2 = rng.uniform(1e-3, 9.0, size=257)
        values, weights = beta_nll_terms(mu, sigma2, y, beta)
        d_mean, d_variance = beta_nll_grads(mu, sigma2, y, beta)
        nll = 0.5 * np.log(sigma2) + (mu - y) ** 2 / (2.0 * sigma2)
        assert np.array_equal(weights, sigma2**beta)
        assert np.array_equal(values, sigma2**beta * nll)
        assert np.array_equal(d_mean, (mu - y) / sigma2 ** (1.0 - beta))
        assert np.array_equal(d_variance, (sigma2 - (y - mu) ** 2) / (2.0 * sigma2 ** (2.0 - beta)))

    def test_beta_one_mean_gradient_ignores_variance(self):
        rng = np.random.default_rng(11)
        mu = rng.normal(size=500)
        y = rng.normal(size=500)
        for sigma2 in (0.01, 1.0, 50.0):
            d_mean, _ = beta_nll_grads(mu, np.full(500, sigma2), y, beta=1.0)
            assert np.array_equal(d_mean, mu - y)

    def test_variance_gradient_sign(self):
        # overestimated variance is pushed down, underestimated up
        _, d_hi = output_grads(0.0, 9.0, 1.0, 0.5)
        _, d_lo = output_grads(0.0, 0.25, 1.0, 0.5)
        assert d_hi > 0
        assert d_lo < 0


class TestFullNetworkGradients:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_composed_gradient_matches_finite_differences(self, beta):
        rng = np.random.default_rng(555)
        for _ in range(6):
            spec = ArchitectureSpec(
                int(rng.integers(1, 4)),
                tuple(int(w) for w in rng.integers(3, 7, size=2)),
                "sigmoid",
            )
            params = init_parameters(spec, seed=int(rng.integers(10_000)))
            X = rng.normal(size=(3, spec.input_dim))
            y = rng.normal(size=3)
            mu0, sigma20 = forward_batch(spec, params, X)
            frozen_w = sigma20**beta

            def value(theta):
                mu, sigma2 = forward_batch(spec, theta, X)
                return float(
                    np.sum(frozen_w * (0.5 * np.log(sigma2) + (mu - y) ** 2 / (2 * sigma2)))
                )

            d_mean, d_var = beta_nll_grads(mu0, sigma20, y, beta)
            analytic = backward_batch(spec, params, X, d_mean, d_var)
            h = 1e-5
            numeric = np.zeros_like(analytic)
            for i in range(analytic.size):
                up = params.copy()
                up[i] += h
                dn = params.copy()
                dn[i] -= h
                numeric[i] = (value(up) - value(dn)) / (2 * h)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-9)


class TestSchedule:
    def test_step_decay_boundaries(self):
        schedule = (0.001, 60, 0.1)
        assert learning_rate_at(schedule, 0) == 0.001
        assert learning_rate_at(schedule, 59) == 0.001
        assert learning_rate_at(schedule, 60) == pytest.approx(1e-4, rel=1e-12)
        assert learning_rate_at(schedule, 119) == pytest.approx(1e-4, rel=1e-12)
        assert learning_rate_at(schedule, 120) == pytest.approx(1e-5, rel=1e-12)


class TestTrainingConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": 1.5},
            {"epochs": -1},
            {"batch_size": 0},
            {"lr_schedule": (0.0, 10, 0.1)},
            {"lr_schedule": (0.001, 0, 0.1)},
            {"lr_schedule": (0.001, 10, 0.0)},
            {"kl_weight": 0.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainingConfig(**kwargs)


class TestAdam:
    @pytest.mark.parametrize("rows", [1, 5])
    def test_matches_the_textbook_update_bit_for_bit(self, rows):
        rng = np.random.default_rng(rows)
        shape = (rows, 263)
        params = rng.normal(size=shape)
        expected = params.copy()
        m, v = np.zeros(shape), np.zeros(shape)
        b1, b2, eps = 0.9, 0.999, 1e-8
        opt = Adam(shape)
        for t in range(1, 5):
            grad = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 4, size=shape)
            lr = 1e-3 * t
            opt.step(params, grad, lr)
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad * grad
            expected = expected - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            assert np.array_equal(params, expected), t
        assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)


class TestTrain:
    def _sine(self, seed=1):
        train_ds, _ = make_sine_dataset(seed=seed)
        return train_ds

    def test_zero_epochs_returns_equal_network(self):
        data = self._sine()
        spec = ArchitectureSpec(1, (8,))
        params = init_parameters(spec, seed=4)
        out, trace = train(spec, params, data, TrainingConfig(epochs=0))
        assert np.array_equal(out, params)
        assert out is not params
        assert len(trace) == 0

    def test_input_network_not_mutated(self):
        data = self._sine()
        spec = ArchitectureSpec(1, (8,))
        params = init_parameters(spec, seed=4)
        before = params.copy()
        out, _ = train(spec, params, data, TrainingConfig(epochs=2, seed=3))
        assert np.array_equal(params, before)
        assert not np.array_equal(out, before)

    def test_deterministic_given_config(self):
        data = self._sine()
        spec = ArchitectureSpec(1, (8, 8))
        params = init_parameters(spec, seed=4)
        cfg = TrainingConfig(beta=0.5, epochs=3, seed=12)
        a, trace_a = train(spec, params, data, cfg)
        b, trace_b = train(spec, params, data, cfg)
        assert np.array_equal(a, b)
        assert trace_a.mean_loss == trace_b.mean_loss
        c, _ = train(spec, params, data, TrainingConfig(beta=0.5, epochs=3, seed=13))
        assert not np.array_equal(a, c)

    def test_smoke_run_loss_mostly_decreases(self):
        # ensembles-style budget on the sine benchmark: 20 epochs, batch 128
        data = self._sine(seed=3)
        spec = ArchitectureSpec(1, (32, 32))
        params = init_parameters(spec, seed=8)
        cfg = TrainingConfig(
            beta=0.5, epochs=20, batch_size=128, lr_schedule=(1e-3, 10, 0.1), seed=8
        )
        _, trace = train(spec, params, data, cfg)
        drops = sum(
            1 for a, b in zip(trace.mean_loss[:-1], trace.mean_loss[1:]) if b < a
        )
        assert drops >= 0.8 * (len(trace) - 1)
        assert trace.mean_loss[-1] < 0.05 * trace.mean_loss[0]
        assert trace.learning_rate[0] == 1e-3
        assert trace.learning_rate[-1] == pytest.approx(1e-4, rel=1e-12)

    def test_trace_length_and_epoch_numbers(self):
        data = self._sine()
        spec = ArchitectureSpec(1, (4,))
        _, trace = train(spec, init_parameters(spec, seed=2), data, TrainingConfig(epochs=5))
        assert trace.epoch == list(range(5))

    def test_batch_larger_than_dataset_is_one_batch(self):
        data = self._sine()
        spec = ArchitectureSpec(1, (4,))
        params = init_parameters(spec, seed=2)
        out, trace = train(spec, params, data, TrainingConfig(epochs=1, batch_size=10_000))
        assert len(trace) == 1
        assert np.all(np.isfinite(out))

    def test_divergence_aborts_with_location(self):
        data = self._sine()
        spec = ArchitectureSpec(1, (8,))
        params = init_parameters(spec, seed=4)
        cfg = TrainingConfig(epochs=3, lr_schedule=(1e200, 10, 1.0), seed=0)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError, match=r"epoch \d+, batch \d+"):
                train(spec, params, data, cfg)

    def test_diverging_member_is_named(self):
        # one huge input row overflows the loss of whichever member's shuffle
        # reaches it first; the others stay finite until then
        data = self._sine()
        X = data.inputs.copy()
        X[123] = 1e200
        spec = ArchitectureSpec(1, (8,))
        phi = np.stack([init_parameters(spec, seed=s) for s in (3, 4, 5)])
        cfg = TrainingConfig(epochs=1, batch_size=64)
        seeds = (11, 12, 13)
        batch_of_row = [
            int(np.flatnonzero(spawn_rng(s, 101, 0).permutation(len(X)) == 123)[0]) // 64
            for s in seeds
        ]
        first = min(batch_of_row)
        member = batch_of_row.index(first)
        with np.errstate(all="ignore"):
            with pytest.raises(
                TrainingDivergedError,
                match=rf"in member {member} at epoch 0, batch {first}$",
            ):
                _minibatch_loop(
                    phi, spec, SimpleNamespace(inputs=X, targets=data.targets), cfg, seeds,
                    _point_draw, batch_mean=True,
                )

    @pytest.mark.parametrize("where", ["inputs", "targets"])
    def test_non_finite_data_rejected_before_training(self, where):
        data = self._sine()
        X, y = data.inputs.copy(), data.targets.copy()
        (X if where == "inputs" else y)[5] = np.nan
        spec = ArchitectureSpec(1, (4,))
        bad = SimpleNamespace(inputs=X, targets=y)
        with pytest.raises(ValueError, match="non-finite"):
            train(spec, init_parameters(spec, seed=2), bad, TrainingConfig(epochs=1))

    def test_wrong_input_width_rejected(self):
        data = self._sine()
        spec = ArchitectureSpec(2, (4,))
        with pytest.raises(ValueError, match="shapes"):
            train(spec, init_parameters(spec, seed=2), data, TrainingConfig(epochs=1))

    def test_trace_kl_is_zero_without_a_prior(self):
        data = self._sine()
        spec = ArchitectureSpec(1, (4,))
        _, trace = train(spec, init_parameters(spec, seed=2), data, TrainingConfig(epochs=3))
        assert trace.kl == [0.0, 0.0, 0.0]
