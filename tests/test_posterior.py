"""Posterior samplers against Monte Carlo oracles and exact invariants.

The closed-form KL is checked against a large-sample estimate of
E_q[log q - log p], mask statistics against their Bernoulli rate, the
training pullbacks against finite differences, and prediction draws against
the single-network forward under the same parameter stream.
Fit-level tests pin determinism and the degenerate corners (drop rate zero,
overwhelming prior weight) where the right answer is known exactly.
"""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from winduq.data import make_sine_dataset
from winduq.losses import (
    Adam,
    TrainingConfig,
    TrainingDivergedError,
    _beta_nll,
    _point_draw,
    beta_nll_terms,
    learning_rate_at,
    train,
)
from winduq.network import (
    ArchitectureSpec,
    _Pass,
    backward_batch,
    forward_batch,
    init_parameters,
    sigmoid,
    softplus,
)
from winduq.posterior import (
    SAMPLER_KINDS,
    FittedPosterior,
    PosteriorSampler,
    _dropconnect_draw,
    _kl_terms,
    _variational_draw,
    draw_parameter_matrix,
    draw_prediction_arrays,
    fit,
    load_posterior,
    sample_weight_mask,
    save_posterior,
    softplus_inverse,
)
from winduq.seeding import derive_seed, spawn_rng


def _rho_for_std(std):
    return np.array([softplus_inverse(s) for s in np.atleast_1d(std)])


def _kl(mean, rho):
    """(KL to the unit Gaussian, its rho-gradient), from the call the
    Bayes-by-backprop training loop makes; the mean-gradient is ``mean``."""
    return _kl_terms(mean, softplus(rho), sigmoid(rho))


class TestKlClosedForm:
    def test_hand_computed_single_coordinate(self):
        # KL(N(1, 2^2) || N(0, 1)) = -log 2 + (4 + 1 - 1)/2
        kl = _kl(np.array([1.0]), _rho_for_std(2.0))[0]
        assert kl == pytest.approx(2.0 - math.log(2.0), rel=1e-12)

    def test_unit_gaussian_gives_zero(self):
        rho = _rho_for_std(np.ones(7))
        assert _kl(np.zeros(7), rho)[0] == pytest.approx(0.0, abs=1e-12)

    def test_positive_away_from_unit_gaussian(self):
        rho_unit = _rho_for_std(1.0)
        assert _kl(np.array([0.3]), rho_unit)[0] > 1e-3
        assert _kl(np.array([0.0]), _rho_for_std(1.3))[0] > 1e-3
        assert _kl(np.array([0.0]), _rho_for_std(0.7))[0] > 1e-3

    def test_monte_carlo_oracle(self):
        mean = np.array([0.3, -1.2, 0.4, 2.0])
        std = np.array([0.5, 1.7, 1.0, 0.8])
        rho = _rho_for_std(std)
        rng = np.random.default_rng(2024)
        z = rng.standard_normal((1_000_000, 4))
        x = mean + std * z
        # log q - log p with the shared 2*pi constant cancelled
        log_ratio = (-np.log(std) - z**2 / 2.0) - (-(x**2) / 2.0)
        estimate = float(log_ratio.sum(axis=1).mean())
        assert _kl(mean, rho)[0] == pytest.approx(estimate, rel=0.01)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        mean = rng.normal(size=6)
        rho = rng.normal(size=6)
        d_mean, d_rho = mean, _kl(mean, rho)[1]
        h = 1e-6
        for i in range(6):
            for vec, grad in ((mean, d_mean), (rho, d_rho)):
                bumped_up, bumped_dn = vec.copy(), vec.copy()
                bumped_up[i] += h
                bumped_dn[i] -= h
                if vec is mean:
                    fd = _kl(bumped_up, rho)[0] - _kl(bumped_dn, rho)[0]
                else:
                    fd = _kl(mean, bumped_up)[0] - _kl(mean, bumped_dn)[0]
                assert grad[i] == pytest.approx(fd / (2 * h), rel=1e-6, abs=1e-9)

    def test_softplus_inverse_round_trip(self):
        for y in (1e-4, 0.05, 1.0, 3.0, 40.0):
            assert softplus(softplus_inverse(y)) == pytest.approx(y, rel=1e-12)
        with pytest.raises(ValueError):
            softplus_inverse(0.0)


class TestWeightMasks:
    SPEC = ArchitectureSpec(16, (32, 32))

    def test_biases_never_masked(self):
        rng = np.random.default_rng(0)
        from winduq.network import weight_position_mask

        wpos = weight_position_mask(self.SPEC)
        for _ in range(20):
            mask = sample_weight_mask(self.SPEC, 0.9, rng)
            assert np.all(mask[~wpos] == 1.0)
            assert set(np.unique(mask)) <= {0.0, 1.0}

    def test_keep_rate_matches_bernoulli_statistics(self):
        from winduq.network import weight_position_mask

        wpos = weight_position_mask(self.SPEC)
        n_weights = int(wpos.sum())
        rng = np.random.default_rng(77)
        drop_rate = 0.3
        draws = 2000  # 2000 * 1600 weights > 3e6 Bernoulli samples
        kept = 0
        for _ in range(draws):
            mask = sample_weight_mask(self.SPEC, drop_rate, rng)
            kept += int(mask[wpos].sum())
        keep_rate = kept / (draws * n_weights)
        assert keep_rate == pytest.approx(1.0 - drop_rate, abs=0.005)

    def test_zero_rate_keeps_everything(self):
        rng = np.random.default_rng(1)
        mask = sample_weight_mask(self.SPEC, 0.0, rng)
        assert np.all(mask == 1.0)


def _tiny_sine(n=48, seed=9):
    train_ds, _ = make_sine_dataset(seed=seed, n_train=n, n_test=4)
    return train_ds


class TestEnsembleFit:
    def test_fit_is_deterministic_and_members_differ(self):
        data = _tiny_sine()
        spec = ArchitectureSpec(1, (6,))
        sampler = PosteriorSampler("deep_ensemble", sample_count=3, ensemble_size=3)
        cfg = TrainingConfig(epochs=2, batch_size=16, seed=42)
        fp1, traces = fit(sampler, spec, data, cfg)
        fp2, _ = fit(sampler, spec, data, cfg)
        assert fp1.phi.shape == (3, spec.n_parameters) and len(traces) == 3
        for a, b in zip(fp1.phi, fp2.phi):
            assert a.tobytes() == b.tobytes()
        assert fp1.phi[0].tobytes() != fp1.phi[1].tobytes()

    def test_members_are_seed_isolated(self):
        # member k must not depend on how many members follow it
        data = _tiny_sine()
        spec = ArchitectureSpec(1, (6,))
        cfg = TrainingConfig(epochs=2, batch_size=16, seed=42)
        big, _ = fit(PosteriorSampler("deep_ensemble", 4, ensemble_size=4), spec, data, cfg)
        small, _ = fit(PosteriorSampler("deep_ensemble", 2, ensemble_size=2), spec, data, cfg)
        for a, b in zip(small.phi, big.phi):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_stacked_fit_equals_members_trained_alone(self, activation):
        # 50 rows in batches of 16 leave a partial last batch of 2
        data = _tiny_sine(n=50)
        spec = ArchitectureSpec(1, (6, 5), activation)
        cfg = TrainingConfig(beta=0.5, epochs=3, batch_size=16, lr_schedule=(1e-2, 2, 0.5), seed=7)
        fp, traces = fit(PosteriorSampler("deep_ensemble", 3, ensemble_size=3), spec, data, cfg)
        for k in range(3):
            member_seed = derive_seed(cfg.seed, 201, k)
            start = init_parameters(spec, derive_seed(member_seed, 1))
            alone, trace = train(spec, start, data, replace(cfg, seed=derive_seed(member_seed, 2)))
            assert np.array_equal(fp.phi[k], alone)
            for column in ("epoch", "mean_loss", "kl", "mse", "learning_rate"):
                assert np.array_equal(getattr(traces[k], column), getattr(trace, column))

    def test_draws_are_exactly_the_members(self):
        data = _tiny_sine()
        spec = ArchitectureSpec(1, (6,))
        cfg = TrainingConfig(epochs=1, batch_size=16, seed=0)
        fp, _ = fit(PosteriorSampler("deep_ensemble", 2, ensemble_size=2), spec, data, cfg)
        thetas = draw_parameter_matrix(fp, 2, np.random.default_rng(0))
        assert np.array_equal(thetas[0], fp.phi[0])
        assert np.array_equal(thetas[1], fp.phi[1])
        with pytest.raises(ValueError):
            draw_parameter_matrix(fp, 5, np.random.default_rng(0))


class TestDropConnectFit:
    def test_zero_drop_rate_reproduces_plain_training(self):
        data = _tiny_sine()
        spec = ArchitectureSpec(1, (6,))
        cfg = TrainingConfig(epochs=3, batch_size=16, seed=11)
        sampler = PosteriorSampler("mc_dropconnect", sample_count=8, drop_rate=0.0)
        fp, _ = fit(sampler, spec, data, cfg)
        plain, _ = train(spec, init_parameters(spec, derive_seed(cfg.seed, 202)), data, cfg)
        assert fp.phi[0].tobytes() == plain.tobytes()

    def test_fit_is_deterministic(self):
        data = _tiny_sine()
        spec = ArchitectureSpec(1, (6,))
        cfg = TrainingConfig(epochs=2, batch_size=16, seed=3)
        sampler = PosteriorSampler("mc_dropconnect", sample_count=8, drop_rate=0.2)
        fp1, traces = fit(sampler, spec, data, cfg)
        fp2, _ = fit(sampler, spec, data, cfg)
        assert fp1.phi.tobytes() == fp2.phi.tobytes()
        assert traces[0].kl == [0.0, 0.0]

    def test_consecutive_draws_do_not_alias(self):
        # the draw refills one keep-mask vector; what it returned must not change
        spec = ArchitectureSpec(2, (6, 5))
        phi = init_parameters(spec, seed=3)[None]
        g = np.random.default_rng(1).normal(size=phi.shape)
        draw = _dropconnect_draw(spec, 0.4, seed=8)
        theta1, pullback1, _ = draw(phi, 0, 0)
        grad1 = pullback1(g)
        kept = theta1.copy(), grad1.copy()
        theta2, pullback2, _ = draw(phi, 0, 1)
        assert np.array_equal(theta1, kept[0]) and np.array_equal(grad1, kept[1])
        assert not np.array_equal(theta1, theta2)
        mask = sample_weight_mask(spec, 0.4, spawn_rng(8, 102, 0, 1))
        assert np.array_equal(theta2, phi * mask) and np.array_equal(pullback2(g), g * mask)

    def test_parameter_draws_zero_only_weight_positions(self):
        from winduq.network import weight_position_mask

        spec = ArchitectureSpec(2, (8,))
        params = np.arange(1, spec.n_parameters + 1, dtype=np.float64)
        fp = FittedPosterior("mc_dropconnect", spec, params[None], 6, drop_rate=0.4)
        thetas = draw_parameter_matrix(fp, 200, np.random.default_rng(8))
        wpos = weight_position_mask(spec)
        assert np.all(thetas[:, ~wpos] == params[~wpos])
        dropped = thetas[:, wpos] == 0.0
        kept = thetas[:, wpos] == params[wpos]
        assert np.all(dropped | kept)
        assert dropped.mean() == pytest.approx(0.4, abs=0.02)

    def test_parameter_draws_match_sequential_masks(self):
        spec = ArchitectureSpec(2, (5, 3))
        params = init_parameters(spec, seed=4)
        fp = FittedPosterior("mc_dropconnect", spec, params[None], 9, drop_rate=0.3)
        thetas = draw_parameter_matrix(fp, 9, np.random.default_rng(21))
        rng = np.random.default_rng(21)
        masks = np.stack([sample_weight_mask(spec, 0.3, rng) for _ in range(9)])
        assert np.array_equal(thetas, params[None, :] * masks)


def _reference_fit(spec, data, cfg, phi, shuffle_seeds, draw):
    """The batch-mean training loop written plainly: every batch gathered by
    fancy indexing into a fresh pass, so no buffer outlives its batch."""
    X, y = data.inputs, data.targets
    opt = Adam(phi.shape)
    for epoch in range(cfg.epochs):
        lr = learning_rate_at(cfg.lr_schedule, epoch)
        perms = np.stack([spawn_rng(s, 101, epoch).permutation(len(y)) for s in shuffle_seeds])
        for b, start in enumerate(range(0, len(y), cfg.batch_size)):
            idx = perms[:, start : start + cfg.batch_size]
            theta, pullback, _ = draw(phi, epoch, b)
            net = _Pass(spec, *idx.shape, True)
            mu, sigma2 = net.forward(theta, X[idx])
            _, _, d_mean, d_variance, _ = _beta_nll(mu, sigma2, y[idx], cfg.beta)
            scale = 1.0 / idx.shape[1]
            opt.step(phi, pullback(net.backward(d_mean * scale, d_variance * scale)), lr)
    return phi


class TestFitAgainstAReferenceLoop:
    """``fit`` reuses one pass's buffers for every batch and a second pass over
    their front for the short last batch; a fresh pass per batch gives the same bits."""

    # 50 rows in batches of 16 leave a last batch of 2
    DATA = _tiny_sine(n=50)
    SPEC = ArchitectureSpec(1, (6, 5))
    CFG = TrainingConfig(beta=0.5, epochs=3, batch_size=16, lr_schedule=(1e-2, 2, 0.5), seed=7)

    def test_deep_ensemble(self):
        sampler = PosteriorSampler("deep_ensemble", 3, ensemble_size=3)
        fp, _ = fit(sampler, self.SPEC, self.DATA, self.CFG)
        seeds = [derive_seed(self.CFG.seed, 201, k) for k in range(3)]
        phi = np.stack([init_parameters(self.SPEC, derive_seed(s, 1)) for s in seeds])
        shuffles = [derive_seed(s, 2) for s in seeds]
        expected = _reference_fit(self.SPEC, self.DATA, self.CFG, phi, shuffles, _point_draw)
        assert fp.phi.tobytes() == expected.tobytes()

    def test_mc_dropconnect(self):
        sampler = PosteriorSampler("mc_dropconnect", 8, drop_rate=0.2)
        fp, _ = fit(sampler, self.SPEC, self.DATA, self.CFG)
        phi = init_parameters(self.SPEC, derive_seed(self.CFG.seed, 202))[None]
        draw = _dropconnect_draw(self.SPEC, 0.2, self.CFG.seed)
        expected = _reference_fit(self.SPEC, self.DATA, self.CFG, phi, [self.CFG.seed], draw)
        assert fp.phi.tobytes() == expected.tobytes()


class TestVariationalFit:
    def test_overwhelming_prior_pulls_toward_unit_gaussian(self):
        # with a huge KL weight the data term is negligible, so the fit
        # must converge to the prior: mean near 0, weight std near 1
        data = _tiny_sine(n=32)
        spec = ArchitectureSpec(1, (4,))
        sampler = PosteriorSampler("bayes_by_backprop", sample_count=10, init_sigma=0.05)
        cfg = TrainingConfig(
            epochs=300, batch_size=32, seed=5, lr_schedule=(0.05, 100, 0.3), kl_weight=1e8
        )
        fp, _ = fit(sampler, spec, data, cfg)
        mean, rho = fp.phi
        assert np.max(np.abs(mean)) < 0.05
        assert_allclose(softplus(rho), 1.0, atol=0.05)
        assert _kl(mean, rho)[0] < 0.01

    def test_fit_is_deterministic_and_trace_is_finite(self):
        data = _tiny_sine()
        spec = ArchitectureSpec(1, (4,))
        sampler = PosteriorSampler("bayes_by_backprop", sample_count=5)
        cfg = TrainingConfig(epochs=3, batch_size=16, seed=21, kl_weight=0.05)
        fp1, traces = fit(sampler, spec, data, cfg)
        fp2, _ = fit(sampler, spec, data, cfg)
        assert np.array_equal(fp1.phi[0], fp2.phi[0])
        assert np.array_equal(fp1.phi[1], fp2.phi[1])
        assert len(traces) == 1 and len(traces[0]) == 3
        assert np.all(np.isfinite(traces[0].mean_loss))
        assert _kl(*fp1.phi)[0] >= 0.0

    def test_initial_std_matches_init_sigma(self):
        data = _tiny_sine(n=16)
        spec = ArchitectureSpec(1, (4,))
        sampler = PosteriorSampler("bayes_by_backprop", sample_count=5, init_sigma=0.02)
        cfg = TrainingConfig(epochs=0, batch_size=16, seed=2, kl_weight=1.0)
        fp, _ = fit(sampler, spec, data, cfg)
        assert_allclose(softplus(fp.phi[1]), 0.02, rtol=1e-12)
        assert np.array_equal(fp.phi[0], init_parameters(spec, derive_seed(cfg.seed, 202)))

    def test_kl_weight_is_required(self):
        data = _tiny_sine(n=16)
        spec = ArchitectureSpec(1, (4,))
        sampler = PosteriorSampler("bayes_by_backprop", sample_count=5)
        with pytest.raises(ValueError, match="kl_weight"):
            fit(sampler, spec, data, TrainingConfig(epochs=1, batch_size=16))

    def test_kl_weight_rejected_for_other_kinds(self):
        data = _tiny_sine(n=16)
        spec = ArchitectureSpec(1, (4,))
        cfg = TrainingConfig(epochs=1, batch_size=16, kl_weight=0.1)
        with pytest.raises(ValueError, match="kl_weight"):
            fit(PosteriorSampler("deep_ensemble", 2, ensemble_size=2), spec, data, cfg)

    def test_trace_separates_data_term_and_kl(self):
        # one epoch of one batch: the trace holds that batch's data term and
        # weighted KL, each per training row
        data = _tiny_sine(n=20)
        spec = ArchitectureSpec(1, (4,))
        sampler = PosteriorSampler("bayes_by_backprop", sample_count=5, init_sigma=0.1)
        cfg = TrainingConfig(beta=0.5, epochs=1, batch_size=32, seed=8, kl_weight=0.25)
        _, [trace] = fit(sampler, spec, data, cfg)
        p = spec.n_parameters
        mean = init_parameters(spec, derive_seed(cfg.seed, 202))
        rho = np.full(p, softplus_inverse(0.1))
        eps = spawn_rng(cfg.seed, 103, 0, 0).standard_normal(p)
        theta = mean + softplus(rho) * eps
        mu, sigma2 = forward_batch(spec, theta, data.inputs)
        values, _ = beta_nll_terms(mu, sigma2, data.targets, cfg.beta)
        assert trace.mean_loss[0] == pytest.approx(values.sum() / 20, rel=1e-12)
        assert trace.kl[0] == pytest.approx(0.25 * _kl(mean, rho)[0] / 20, rel=1e-12)
        assert trace.kl[0] > 0.0

    def test_pullback_matches_finite_differences(self):
        # the pullback is the phi-gradient of one batch objective, prior
        # term included, at the batch's fixed eps
        rng = np.random.default_rng(17)
        spec = ArchitectureSpec(2, (4, 3), "sigmoid")
        p = spec.n_parameters
        phi = np.concatenate(
            [rng.normal(scale=0.5, size=p), _rho_for_std(rng.uniform(0.1, 0.5, size=p))]
        )
        draw = _variational_draw(p, 0.3, seed=6)
        X = rng.normal(size=(3, 2))
        c1, c2 = rng.normal(size=3), rng.normal(size=3)

        def objective(phi_):
            theta, _, prior = draw(phi_, 1, 2)
            mu, sigma2 = forward_batch(spec, theta, X)
            return float(c1 @ mu + c2 @ sigma2) + prior

        theta, pullback, prior = draw(phi, 1, 2)
        assert prior == pytest.approx(0.3 * _kl(phi[:p], phi[p:])[0], rel=1e-15)
        analytic = pullback(backward_batch(spec, theta, X, c1, c2))
        h = 1e-6
        numeric = np.zeros_like(phi)
        for i in range(phi.size):
            up, dn = phi.copy(), phi.copy()
            up[i] += h
            dn[i] -= h
            numeric[i] = (objective(up) - objective(dn)) / (2 * h)
        assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("rows", [(), (1,)])
    def test_draw_matches_the_reference_composition_bit_for_bit(self, rows):
        # rho of both signs, and zero, runs both branches of sigmoid
        rng = np.random.default_rng(23)
        p = 301
        mean = rng.normal(size=rows + (p,))
        rho = rng.normal(scale=4.0, size=rows + (p,))
        rho[..., 0] = 0.0
        assert (rho > 0).any() and (rho < 0).any()
        g = rng.normal(size=rows + (p,))
        draw = _variational_draw(p, 0.3, seed=6)
        theta, pullback, prior = draw(np.concatenate([mean, rho], axis=-1), 2, 5)
        eps = spawn_rng(6, 103, 2, 5).standard_normal(p)
        assert np.array_equal(theta, mean + softplus(rho) * eps)
        kl, kl_d_rho = _kl(mean, rho)
        assert prior == 0.3 * kl
        sigma = softplus(rho)  # the KL pair is the plain formula
        plain_kl = np.sum(-np.log(sigma) + (sigma**2 + mean**2 - 1.0) / 2.0)
        assert kl == float(plain_kl)
        assert np.array_equal(kl_d_rho, (sigma - 1.0 / sigma) * sigmoid(rho))
        expected = np.concatenate(
            [g + 0.3 * mean, g * eps * sigmoid(rho) + 0.3 * kl_d_rho], axis=-1
        )
        assert np.array_equal(pullback(g), expected)

    def test_consecutive_pullbacks_do_not_alias(self):
        rng = np.random.default_rng(29)
        p = 40
        phi = np.concatenate([rng.normal(size=p), _rho_for_std(rng.uniform(0.1, 1, p))])[None]
        g1, g2 = rng.normal(size=(2, 1, p))
        draw = _variational_draw(p, 0.5, seed=2)
        theta1, pullback1, _ = draw(phi, 0, 0)
        first = pullback1(g1)
        kept = first.copy(), theta1.copy()
        theta2, pullback2, _ = draw(phi, 0, 1)
        second = pullback2(g2)
        again = pullback2(g2)
        assert np.array_equal(first, kept[0]) and np.array_equal(theta1, kept[1])
        for a, b in [(first, second), (second, again), (theta1, theta2)]:
            assert not np.shares_memory(a, b)
        assert np.array_equal(second, again)

    def test_divergence_aborts_with_location(self):
        data = _tiny_sine()
        spec = ArchitectureSpec(1, (8,))
        sampler = PosteriorSampler("bayes_by_backprop", sample_count=5)
        cfg = TrainingConfig(epochs=3, lr_schedule=(1e200, 10, 1.0), seed=0, kl_weight=0.1)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError, match=r"epoch \d+, batch \d+"):
                fit(sampler, spec, data, cfg)

    def test_draw_statistics_match_variational_parameters(self):
        spec = ArchitectureSpec(1, (2,))
        rng = np.random.default_rng(13)
        mean = rng.normal(size=spec.n_parameters)
        rho = _rho_for_std(rng.uniform(0.2, 0.8, size=spec.n_parameters))
        fp = FittedPosterior("bayes_by_backprop", spec, np.stack([mean, rho]), 5, 0.0)
        thetas = draw_parameter_matrix(fp, 40_000, np.random.default_rng(4))
        assert_allclose(thetas.mean(axis=0), mean, atol=0.02)
        assert_allclose(thetas.std(axis=0), softplus(rho), atol=0.02)


class TestDraws:
    def _variational(self):
        spec = ArchitectureSpec(3, (5, 4))
        rng = np.random.default_rng(30)
        mean = rng.normal(scale=0.5, size=spec.n_parameters)
        rho = _rho_for_std(np.full(spec.n_parameters, 0.3))
        return FittedPosterior("bayes_by_backprop", spec, np.stack([mean, rho]), 16, 0.0)

    def _posterior(self, kind):
        if kind == "bayes_by_backprop":
            return self._variational()
        spec = ArchitectureSpec(3, (5, 4))
        if kind == "deep_ensemble":
            phi = np.stack([init_parameters(spec, seed=k) for k in range(4)])
            return FittedPosterior(kind, spec, phi, 4, 0.0)
        return FittedPosterior(kind, spec, init_parameters(spec, seed=30)[None], 16, 0.25)

    def test_draws_follow_the_decompose_batch_stream(self):
        # the parameter matrix comes from spawn_rng(seed, 301), as in decompose_batch
        x = np.array([0.2, -1.0, 0.7])
        for fp in map(self._posterior, SAMPLER_KINDS):
            mu, sigma2 = draw_prediction_arrays(fp, x, seed=9)
            thetas = draw_parameter_matrix(fp, fp.sample_count, spawn_rng(9, 301))
            for s in range(fp.sample_count):
                ref_mu, ref_sigma2 = forward_batch(fp.spec, thetas[s], x[None, :])
                assert mu[s] == ref_mu[0] and sigma2[s] == ref_sigma2[0]

    def test_same_seed_same_draws(self):
        fp = self._variational()
        x = np.array([0.2, -1.0, 0.7])
        mu1, v1 = draw_prediction_arrays(fp, x, seed=5)
        mu2, v2 = draw_prediction_arrays(fp, x, seed=5)
        mu3, _ = draw_prediction_arrays(fp, x, seed=6)
        assert np.array_equal(mu1, mu2) and np.array_equal(v1, v2)
        assert not np.array_equal(mu1, mu3)

    def test_input_validation(self):
        fp = self._variational()
        with pytest.raises(ValueError):
            draw_prediction_arrays(fp, np.array([1.0, 2.0]), seed=0)
        with pytest.raises(ValueError):
            draw_prediction_arrays(fp, np.array([1.0, np.nan, 0.0]), seed=0)


def _set_version(directory, version):
    path = directory / "posterior.json"
    manifest = json.loads(path.read_text())
    manifest["format_version"] = version
    path.write_text(json.dumps(manifest))


def _with_entry(phi, value):
    bad = phi.copy()
    bad[1, 3] = value
    return bad


def _write(array_of, allow_pickle=False):
    """An edit that replaces params.npy with ``array_of(phi)``."""
    return lambda d, phi: np.save(d / "params.npy", array_of(phi), allow_pickle=allow_pickle)


def _set_field(key, value):
    """An edit that sets one posterior.json entry (``spec.<key>`` inside spec)."""

    def edit(directory, phi):
        path = directory / "posterior.json"
        manifest = json.loads(path.read_text())
        record, _, name = key.rpartition(".")
        (manifest[record] if record else manifest)[name] = value
        path.write_text(json.dumps(manifest))

    return edit


# edits of a saved (2, 41) bayes_by_backprop posterior, the error each must
# raise and the file that error names
_MALFORMED = {
    "missing": (lambda d, phi: (d / "params.npy").unlink(), "No such file", "params.npy"),
    "pickled": (
        _write(lambda phi: np.array([{"a": 1}]), allow_pickle=True), "allow_pickle", "params.npy"
    ),
    "not-npy": (
        lambda d, phi: (d / "params.npy").write_bytes(b"not an array"), "not a .npy file",
        "params.npy",
    ),
    "float32": (_write(lambda phi: phi.astype(np.float32)), "float64", "params.npy"),
    "three-rows": (_write(lambda phi: np.vstack([phi, phi[:1]])), r"got \(3, 41\)", "params.npy"),
    "wrong-width": (_write(lambda phi: phi[:, :-1]), r"got \(2, 40\)", "params.npy"),
    "nan": (_write(lambda phi: _with_entry(phi, np.nan)), "non-finite", "params.npy"),
    "inf": (_write(lambda phi: _with_entry(phi, -np.inf)), "non-finite", "params.npy"),
    "version-1": (lambda d, phi: _set_version(d, 1), "version 1.*re-fit", "posterior.json"),
    "not-json": (
        lambda d, phi: (d / "posterior.json").write_text("{\n"), "not a JSON object",
        "posterior.json",
    ),
    "not-an-object": (
        lambda d, phi: (d / "posterior.json").write_text("[2]"), "JSON object", "posterior.json"
    ),
    "count-float": (_set_field("sample_count", 2.7), "sample_count .*2.7", "posterior.json"),
    "count-string": (_set_field("sample_count", "3"), "sample_count .*'3'", "posterior.json"),
    "count-bool": (_set_field("sample_count", True), "sample_count .*True", "posterior.json"),
    "drop-rate-null": (_set_field("drop_rate", None), "NoneType", "posterior.json"),
    "widths-not-a-list": (_set_field("spec.hidden_widths", 5), "spec: .*int", "posterior.json"),
    # each below loaded at a cast's value, so that the record matched the saved phi
    "input-dim-float": (
        _set_field("spec.input_dim", 2.7), "spec: input_dim must be int, got float 2.7",
        "posterior.json",
    ),
    "input-dim-string": (
        _set_field("spec.input_dim", "2"), "spec: input_dim must be int, got str '2'",
        "posterior.json",
    ),
    "width-float": (
        _set_field("spec.hidden_widths", [5.9, 3]), "spec: a hidden width must be int, got float",
        "posterior.json",
    ),
    "widths-string": (  # whose characters are the widths 5 and 3
        _set_field("spec.hidden_widths", "53"), "spec: a hidden width must be int, got str '5'",
        "posterior.json",
    ),
    "floor-string": (
        _set_field("spec.variance_floor", "1e-05"), "spec: variance_floor must be int or float",
        "posterior.json",
    ),
    "floor-bool": (
        _set_field("spec.variance_floor", False), "variance_floor .*got bool", "posterior.json"
    ),
    "drop-rate-string": (
        _set_field("drop_rate", "0.0"), "drop_rate must be int or float, got str", "posterior.json"
    ),
}


class TestPersistence:
    def _specs(self):
        return ArchitectureSpec(2, (5, 3), variance_floor=1e-5)

    def _dropconnect(self, spec, seed=1, sample_count=9, drop_rate=0.1):
        phi = init_parameters(spec, seed=seed)[None]
        return FittedPosterior("mc_dropconnect", spec, phi, sample_count, drop_rate)

    def test_ensemble_round_trip(self, tmp_path):
        spec = self._specs()
        phi = np.stack([init_parameters(spec, seed=k) for k in range(3)])
        fp = FittedPosterior("deep_ensemble", spec, phi, 3, 0.0)
        save_posterior(fp, tmp_path / "ens")
        assert sorted(p.name for p in (tmp_path / "ens").iterdir()) == [
            "params.npy", "posterior.json"
        ]
        back = load_posterior(tmp_path / "ens")
        assert back.kind == "deep_ensemble"
        assert back.spec == spec and back.sample_count == 3
        for a, b in zip(fp.phi, back.phi):
            assert a.tobytes() == b.tobytes()

    def test_dropconnect_round_trip(self, tmp_path):
        spec = self._specs()
        fp = self._dropconnect(spec, seed=7, sample_count=30, drop_rate=0.15)
        save_posterior(fp, tmp_path / "dc", extra={"epochs": 5})
        back = load_posterior(tmp_path / "dc")
        assert back.kind == "mc_dropconnect"
        assert back.drop_rate == 0.15 and back.sample_count == 30
        assert back.phi.tobytes() == fp.phi.tobytes()

    def test_variational_round_trip(self, tmp_path):
        spec = self._specs()
        rng = np.random.default_rng(3)
        phi = rng.normal(size=(2, spec.n_parameters))
        fp = FittedPosterior("bayes_by_backprop", spec, phi, 12, 0.0)
        save_posterior(fp, tmp_path / "vp")
        back = load_posterior(tmp_path / "vp")
        assert back.kind == "bayes_by_backprop"
        assert np.array_equal(back.phi[0], fp.phi[0])
        assert np.array_equal(back.phi[1], fp.phi[1])
        assert back.sample_count == 12

    def test_loaded_posterior_predicts_identically(self, tmp_path):
        spec = self._specs()
        fp = self._dropconnect(spec)
        save_posterior(fp, tmp_path / "p")
        back = load_posterior(tmp_path / "p")
        x = np.array([0.3, -0.4])
        mu1, v1 = draw_prediction_arrays(fp, x, seed=2)
        mu2, v2 = draw_prediction_arrays(back, x, seed=2)
        assert np.array_equal(mu1, mu2) and np.array_equal(v1, v2)

    @pytest.mark.parametrize("case", list(_MALFORMED))
    def test_malformed_artefact_rejected(self, tmp_path, case):
        edit, message, file = _MALFORMED[case]
        spec = self._specs()
        phi = np.random.default_rng(4).normal(size=(2, spec.n_parameters))
        save_posterior(FittedPosterior("bayes_by_backprop", spec, phi, 6, 0.0), tmp_path / "vp")
        edit(tmp_path / "vp", phi)
        with pytest.raises(ValueError, match=message) as exc:
            load_posterior(tmp_path / "vp")
        assert file in str(exc.value) and "\n" not in str(exc.value)
        assert "unsafely" not in str(exc.value)

    def test_unknown_format_version_rejected(self, tmp_path):
        spec = self._specs()
        save_posterior(self._dropconnect(spec), tmp_path / "p")
        _set_version(tmp_path / "p", 99)
        with pytest.raises(ValueError, match="format version"):
            load_posterior(tmp_path / "p")


class TestRecordValidation:
    @pytest.mark.parametrize(
        "kind, rows, sample_count, drop_rate, message",
        [
            ("bootstrap", 1, 5, 0.0, "kind"),
            ("mc_dropconnect", 1, 0, 0.1, "sample_count"),
            ("mc_dropconnect", 1, 5, 1.0, "drop_rate"),
            ("bayes_by_backprop", 2, 5, 0.1, "no drop rate"),
            ("deep_ensemble", 3, 2, 0.0, r"shape \(2, 10\), got \(3, 10\)"),
            ("bayes_by_backprop", 2, 2.5, 0.0, "sample_count must be int, got float 2.5"),
        ],
        ids=["kind", "sample-count", "drop-rate", "rate-without-dropconnect", "members",
             "fractional-count"],
    )
    def test_invalid_record_rejected(self, kind, rows, sample_count, drop_rate, message):
        spec = ArchitectureSpec(1, (2,))
        with pytest.raises(ValueError, match=message):
            FittedPosterior(kind, spec, np.zeros((rows, spec.n_parameters)), sample_count, drop_rate)


class TestSamplerValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            PosteriorSampler("bootstrap", sample_count=5)

    def test_ensemble_draws_must_match_members(self):
        with pytest.raises(ValueError, match="member"):
            PosteriorSampler("deep_ensemble", sample_count=10, ensemble_size=5)

    def test_drop_rate_bounds(self):
        with pytest.raises(ValueError, match="drop_rate"):
            PosteriorSampler("mc_dropconnect", sample_count=5, drop_rate=1.0)
        PosteriorSampler("mc_dropconnect", sample_count=5, drop_rate=0.0)

    def test_init_sigma_positive(self):
        with pytest.raises(ValueError, match="init_sigma"):
            PosteriorSampler("bayes_by_backprop", sample_count=5, init_sigma=0.0)

    def test_sample_count_positive(self):
        with pytest.raises(ValueError, match="sample_count"):
            PosteriorSampler("mc_dropconnect", sample_count=0)

    @pytest.mark.parametrize(
        "kind, sample_count, ensemble_size, message",
        [
            ("mc_dropconnect", 2.5, 5, "sample_count must be int, got float 2.5"),
            ("bayes_by_backprop", "3", 5, "sample_count must be int, got str '3'"),
            ("deep_ensemble", True, True, "sample_count must be int, got bool True"),
            ("deep_ensemble", 2, 2.0, "ensemble_size must be int, got float 2.0"),
        ],
    )
    def test_non_integer_counts_rejected(self, kind, sample_count, ensemble_size, message):
        # each used to construct; the 2.5 draws of DropConnect are not a count
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PosteriorSampler(kind, sample_count, ensemble_size=ensemble_size)

    def test_numpy_integer_counts_become_ints(self):
        sampler = PosteriorSampler("deep_ensemble", np.int64(3), ensemble_size=np.int32(3))
        assert sampler == PosteriorSampler("deep_ensemble", 3, ensemble_size=3)
        assert type(sampler.sample_count) is int and type(sampler.ensemble_size) is int
