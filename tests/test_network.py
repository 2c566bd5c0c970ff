"""Forward/backward correctness for the two-head network.

The backward pass is checked against a central finite-difference oracle on
every parameter; forward values are checked against scalar arithmetic done
with stdlib math, independent of the vectorized implementation.  Single
inputs go through the batch API as one-row matrices.
"""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from winduq.network import (
    ArchitectureSpec,
    _Pass,
    backward_batch,
    forward_batch,
    init_parameters,
    parameter_layout,
    sigmoid,
    weight_position_mask,
)
from winduq.losses import TrainingConfig, train
from winduq.posterior import _dropconnect_draw, sample_weight_mask
from winduq.seeding import spawn_rng


def fd_gradient(fun, theta, h=1e-5):
    """Central finite differences of a scalar function of the flat parameters."""
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        up[i] += h
        down = theta.copy()
        down[i] -= h
        grad[i] = (fun(up) - fun(down)) / (2.0 * h)
    return grad


def predict_one(spec, params, x):
    """(mean, variance) of one input vector through the batch API."""
    mu, sigma2 = forward_batch(spec, params, np.asarray(x, dtype=np.float64)[None, :])
    return float(mu[0]), float(sigma2[0])


def backward_one(spec, params, x, upstream):
    """Flat gradient for one input vector through the batch API."""
    x = np.asarray(x, dtype=np.float64)[None, :]
    return backward_batch(spec, params, x, np.array([upstream[0]]), np.array([upstream[1]]))


class TestArchitectureSpec:
    def test_parameter_count_matches_layer_arithmetic(self):
        spec = ArchitectureSpec(1, (32, 32))
        # (1+1)*32 + (32+1)*32 + two heads of (32+1) each
        assert spec.n_parameters == 64 + 1056 + 33 + 33 == 1186

    def test_layout_covers_vector_exactly_once(self):
        spec = ArchitectureSpec(3, (7, 5), "sigmoid")
        slots = parameter_layout(spec)
        covered = np.zeros(spec.n_parameters, dtype=int)
        for slot in slots:
            covered[slot.start : slot.stop] += 1
        assert np.all(covered == 1)

    @pytest.mark.parametrize("widths", [(1,), (32, 32), (64, 64, 64)])
    @pytest.mark.parametrize("input_dim", [1, 32])
    def test_layout_is_contiguous_in_order_and_ends_at_the_count(self, input_dim, widths):
        spec = ArchitectureSpec(input_dim, widths)
        slots = parameter_layout(spec)
        assert spec.n_parameters == slots[-1].stop and slots[0].start == 0
        assert all(a.stop == b.start for a, b in zip(slots, slots[1:]))
        assert all(s.stop - s.start == math.prod(s.block) for s in slots)
        hidden = [f"hidden{i}.{part}" for i in range(len(widths)) for part in "Wb"]
        assert [s.name for s in slots] == [*hidden, "mean.W", "mean.b", "variance.W", "variance.b"]

    def test_weight_mask_counts_biases(self):
        spec = ArchitectureSpec(1, (32, 32))
        wpos = weight_position_mask(spec)
        assert wpos.sum() == spec.n_parameters - (32 + 32 + 1 + 1)

    def test_cached_layout_and_mask_are_read_only(self):
        spec = ArchitectureSpec(2, (4, 3))
        wpos = weight_position_mask(spec)
        assert weight_position_mask(ArchitectureSpec(2, (4, 3))) is wpos
        with pytest.raises(ValueError, match="read-only"):
            wpos[0] = False
        slots = parameter_layout(spec)
        assert isinstance(slots, tuple) and parameter_layout(spec) is slots
        with pytest.raises(AttributeError):
            slots[0].start = 1
        assert weight_position_mask(spec).sum() == 2 * 4 + 4 * 3 + 3 + 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"input_dim": 0, "hidden_widths": (4,)},
            {"input_dim": 2, "hidden_widths": ()},
            {"input_dim": 2, "hidden_widths": (4, 0)},
            {"input_dim": 2, "hidden_widths": (4,), "hidden_activation": "tanh"},
            {"input_dim": 2, "hidden_widths": (4,), "variance_floor": -1.0},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ArchitectureSpec(**kwargs)

    @pytest.mark.parametrize(
        "input_dim, widths, message",
        [
            (True, (4,), "input_dim must be int, got bool True"),
            (2.5, (4,), "input_dim must be int, got float 2.5"),
            ("2", (4,), "input_dim must be int, got str '2'"),
            (1, (4.9, 3), "a hidden width must be int, got float 4.9"),
            (1, (4, "3"), "a hidden width must be int, got str '3'"),
            (1, (np.bool_(True),), "a hidden width must be int, got bool"),
        ],
    )
    def test_non_integer_sizes_rejected_not_cast(self, input_dim, widths, message):
        # each used to build: width 4 from 4.9, input width 1 from True, 24.0 parameters
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            ArchitectureSpec(input_dim, widths)

    def test_numpy_integer_sizes_become_ints(self):
        spec = ArchitectureSpec(np.int64(2), (np.int32(4), np.uint8(3)))
        assert spec == ArchitectureSpec(2, (4, 3))
        assert type(spec.input_dim) is int and {type(w) for w in spec.hidden_widths} == {int}


class TestForward:
    def test_hand_computed_tiny_network(self):
        # one input, one hidden relu unit, hand-set weights
        spec = ArchitectureSpec(1, (1,), "relu", variance_floor=1e-6)
        params = np.array([0.5, 0.1, 2.0, 0.3, -1.0, 0.2])
        mean, variance = predict_one(spec, params, [2.0])
        h = max(0.5 * 2.0 + 0.1, 0.0)
        assert mean == pytest.approx(2.0 * h + 0.3, abs=1e-15)
        expected_var = math.log1p(math.exp(-1.0 * h + 0.2)) + 1e-6
        assert variance == pytest.approx(expected_var, rel=1e-14)

    def test_zero_parameters_give_softplus_zero_variance(self):
        spec = ArchitectureSpec(2, (8, 8), variance_floor=1e-6)
        mean, variance = predict_one(spec, np.zeros(spec.n_parameters), [0.7, -0.3])
        assert mean == 0.0
        assert variance == pytest.approx(math.log(2.0) + 1e-6, rel=1e-14)

    def test_variance_always_at_least_floor(self):
        rng = np.random.default_rng(5)
        spec = ArchitectureSpec(3, (16, 16), variance_floor=1e-6)
        params = init_parameters(spec, seed=11)
        X = rng.normal(0.0, 50.0, size=(200, 3))
        _, sigma2 = forward_batch(spec, params, X)
        assert np.all(sigma2 >= 1e-6)
        assert np.all(np.isfinite(sigma2))

    def test_batch_matches_single_rows(self):
        rng = np.random.default_rng(6)
        spec = ArchitectureSpec(4, (6, 5), "sigmoid")
        params = init_parameters(spec, seed=3)
        X = rng.normal(size=(10, 4))
        mu, sigma2 = forward_batch(spec, params, X)
        for i in range(10):
            mean, variance = predict_one(spec, params, X[i])
            # matmul accumulation order differs between shapes, so agreement
            # is only up to floating-point associativity
            assert mean == pytest.approx(mu[i], rel=1e-13, abs=1e-15)
            assert variance == pytest.approx(sigma2[i], rel=1e-13, abs=1e-15)

    def test_forward_is_pure(self):
        spec = ArchitectureSpec(2, (5,))
        params = init_parameters(spec, seed=0)
        before = params.copy()
        forward_batch(spec, params, np.array([[1.0, 2.0]]))
        assert np.array_equal(params, before)

    def test_input_validation(self):
        spec = ArchitectureSpec(2, (4,))
        params = init_parameters(spec, seed=0)
        with pytest.raises(ValueError):
            forward_batch(spec, params, np.array([[1.0]]))
        with pytest.raises(ValueError):
            forward_batch(spec, params, np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError):
            forward_batch(spec, params, np.array([1.0, 2.0]))


def _two_branch_sigmoid(z: np.ndarray) -> np.ndarray:
    # the reference form: 1 / (1 + exp(-z)) where z >= 0, exp(z) / (1 + exp(z)) elsewhere
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    @pytest.mark.parametrize("shape", [(), (263,), (5, 128)])
    def test_matches_the_two_branch_form_bit_for_bit(self, shape):
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 710.5, -710.5, 745.2, -746.0,
                   1e308, -1e308, 5e-324, -5e-324, 36.7, -36.7, 1.0, -1.0]
        rng = np.random.default_rng(9)
        pool = np.concatenate([special, rng.normal(0.0, 30.0, 4096)])
        z = pool[rng.integers(0, pool.size, int(np.prod(shape)))].reshape(shape)
        if shape == (263,):
            z[: len(special)] = special  # every special value, at least once
        got = np.asarray(sigmoid(z))
        assert got.shape == z.shape and got.dtype == np.float64
        assert got.tobytes() == _two_branch_sigmoid(z).tobytes()


class TestInit:
    def test_deterministic_per_seed(self):
        spec = ArchitectureSpec(2, (8, 8))
        a = init_parameters(spec, seed=42)
        b = init_parameters(spec, seed=42)
        c = init_parameters(spec, seed=43)
        assert a.shape == (spec.n_parameters,) and a.dtype == np.float64
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_biases_start_at_zero_weights_within_bound(self):
        spec = ArchitectureSpec(3, (16,))
        params = init_parameters(spec, seed=9)
        wpos = weight_position_mask(spec)
        assert np.all(params[~wpos] == 0.0)
        bound = math.sqrt(6.0 / 3.0)  # widest bound is the first layer's
        assert np.all(np.abs(params[wpos]) <= bound)

    @pytest.mark.parametrize("widths", [(1,), (5, 3), (64, 64, 64)])
    def test_matches_per_weight_array_draws_bit_for_bit(self, widths):
        # the draw of each weight as its (fan_in, fan_out) array, raveled, and of each
        # head's as a (width,) vector, in layout order with zero biases between
        rng, parts = spawn_rng(17), []
        hidden = [((fan_in, fan_out), fan_out) for fan_in, fan_out in zip((3, *widths), widths)]
        for shape, n_bias in hidden + [((widths[-1],), 1)] * 2:
            bound = np.sqrt(6.0 / shape[0])
            parts += [rng.uniform(-bound, bound, size=shape).ravel(), np.zeros(n_bias)]
        expected = np.concatenate(parts)
        assert init_parameters(ArchitectureSpec(3, widths), 17).tobytes() == expected.tobytes()

    def test_negative_seed_accepted(self):
        spec = ArchitectureSpec(1, (4,))
        a = init_parameters(spec, seed=-17)
        b = init_parameters(spec, seed=-17)
        assert np.array_equal(a, b)


class TestBackward:
    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_matches_finite_differences(self, activation):
        rng = np.random.default_rng(1234)
        for trial in range(8):
            spec = ArchitectureSpec(
                int(rng.integers(1, 4)),
                tuple(int(w) for w in rng.integers(3, 8, size=int(rng.integers(1, 3)))),
                activation,
            )
            params = init_parameters(spec, seed=int(rng.integers(10_000)))
            x = rng.normal(size=spec.input_dim)
            c1, c2 = rng.normal(size=2)

            def value(theta, spec=spec, x=x, c1=c1, c2=c2):
                mean, variance = predict_one(spec, theta, x)
                return c1 * mean + c2 * variance

            analytic = backward_one(spec, params, x, (c1, c2))
            numeric = fd_gradient(value, params.copy())
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)

    def test_mean_bias_gradient_is_upstream_exactly(self):
        spec = ArchitectureSpec(2, (6, 4))
        grad = backward_one(spec, init_parameters(spec, seed=7), [0.4, -1.2], (0.3, 0.7))
        (mean_bias,) = [s for s in parameter_layout(spec) if s.name == "mean.b"]
        assert grad[mean_bias.start] == 0.3

    def test_batch_gradient_is_sum_of_rows(self):
        rng = np.random.default_rng(88)
        spec = ArchitectureSpec(3, (5,), "sigmoid")
        params = init_parameters(spec, seed=21)
        X = rng.normal(size=(6, 3))
        dm = rng.normal(size=6)
        dv = rng.normal(size=6)
        whole = backward_batch(spec, params, X, dm, dv)
        parts = sum(backward_one(spec, params, X[i], (dm[i], dv[i])) for i in range(6))
        np.testing.assert_allclose(whole, parts, rtol=1e-12, atol=1e-15)

    def test_non_finite_upstream_rejected(self):
        spec = ArchitectureSpec(1, (4,))
        with pytest.raises(ValueError):
            backward_one(spec, init_parameters(spec, seed=1), [1.0], (np.nan, 0.0))


class TestStackedBlock:
    """The private pass runs K networks as one (K, P) block."""

    def _block(self, activation, k=3, batch=7):
        rng = np.random.default_rng(61)
        spec = ArchitectureSpec(2, (5, 4), activation)
        params = np.stack([init_parameters(spec, seed=s) for s in range(10, 10 + k)])
        # nonzero biases keep relu pre-activations off the kink at exactly 0,
        # where finite differences straddle the subgradient
        params += rng.normal(0.05, 0.1, size=params.shape)
        X = rng.normal(size=(k, batch, 2))
        return spec, params, X, rng.normal(size=(k, batch)), rng.normal(size=(k, batch))

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_rows_equal_single_networks_exactly(self, activation):
        spec, params, X, dm, dv = self._block(activation)
        net = _Pass(spec, *X.shape[:2], True)
        block_mu, block_sigma2 = net.forward(params, X)
        grads = net.backward(dm, dv)
        assert grads.shape == params.shape
        for k in range(len(params)):
            mu, sigma2 = forward_batch(spec, params[k], X[k])
            assert np.array_equal(block_mu[k], mu) and np.array_equal(block_sigma2[k], sigma2)
            assert np.array_equal(grads[k], backward_batch(spec, params[k], X[k], dm[k], dv[k]))

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_block_gradient_matches_finite_differences(self, activation):
        # one scalar over the whole block: a row that read another row's
        # weights or activations would show up off the diagonal
        spec, params, X, dm, dv = self._block(activation, batch=4)
        net = _Pass(spec, *X.shape[:2], True)

        def objective(flat):
            mu, sigma2 = net.forward(flat.reshape(params.shape), X)
            return float(np.sum(dm * mu + dv * sigma2))

        net.forward(params, X)
        analytic = net.backward(dm, dv)
        numeric = fd_gradient(objective, params.ravel().copy()).reshape(params.shape)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)


class TestWeightMask:
    """DropConnect runs the network at theta = phi * m; see the pullback in posterior."""

    def test_masking_mean_head_pins_mean_to_bias(self):
        spec = ArchitectureSpec(2, (6,))
        params = init_parameters(spec, seed=2)
        slots = {s.name: s for s in parameter_layout(spec)}
        params[slots["mean.b"].start] = 1.5  # make the pinned value nonzero
        mask = np.ones(spec.n_parameters)
        mask[slots["mean.W"].start : slots["mean.W"].stop] = 0.0
        mu, _ = forward_batch(spec, params * mask, np.array([[0.3, 0.4], [5.0, -2.0]]))
        assert np.all(mu == 1.5)

    def test_masked_positions_get_zero_gradient(self):
        rng = np.random.default_rng(3)
        spec = ArchitectureSpec(2, (6, 5))
        params = init_parameters(spec, seed=14)
        draw = _dropconnect_draw(spec, 0.3, seed=14)
        theta, pullback, prior = draw(params, 2, 1)
        mask = sample_weight_mask(spec, 0.3, spawn_rng(14, 102, 2, 1))
        assert np.array_equal(theta, params * mask) and prior == 0.0
        dropped = np.flatnonzero(mask == 0.0)
        assert dropped.size > 0
        g = backward_batch(
            spec, theta, rng.normal(size=(4, 2)), rng.normal(size=4), rng.normal(size=4)
        )
        assert np.all(pullback(g)[dropped] == 0.0)

    def test_masked_backward_matches_finite_differences(self):
        # the DropConnect pullback is the phi-gradient of the batch objective
        # at the batch's fixed mask
        rng = np.random.default_rng(44)
        spec = ArchitectureSpec(2, (5, 4))
        params = init_parameters(spec, seed=31)
        # keep pre-activations away from the relu kink: masking every input
        # of a unit with a zero bias would park it exactly at z = 0, where
        # finite differences straddle the subgradient
        phi = params + rng.normal(0.05, 0.1, size=spec.n_parameters)
        draw = _dropconnect_draw(spec, 0.3, seed=5)
        X = rng.normal(size=(3, 2))
        c1, c2 = rng.normal(size=3), rng.normal(size=3)

        def objective(phi_):
            theta, _, prior = draw(phi_, 0, 0)
            mu, sigma2 = forward_batch(spec, theta, X)
            return float(c1 @ mu + c2 @ sigma2) + prior

        theta, pullback, _ = draw(phi, 0, 0)
        assert np.any(theta != phi)
        analytic = pullback(backward_batch(spec, theta, X, c1, c2))
        numeric = fd_gradient(objective, phi.copy())
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)


class TestCheckpoints:
    def test_wrong_parameter_length_rejected(self):
        # each public single-network function checks its vector
        spec = ArchitectureSpec(1, (2,))
        assert spec.n_parameters == 10
        X, d = np.zeros((3, 1)), np.zeros(3)
        data = SimpleNamespace(inputs=X, targets=d)
        calls = (
            lambda p: forward_batch(spec, p, X),
            lambda p: backward_batch(spec, p, X, d, d),
            lambda p: train(spec, p, data, TrainingConfig(epochs=1)),
        )
        for shape in [(9,), (11,), (1, 10), ()]:
            message = f"parameter vector has shape {re.escape(str(shape))}, expected \\(10,\\)"
            for call in calls:
                with pytest.raises(ValueError, match=message):
                    call(np.zeros(shape))

    def test_integer_vector_is_read_as_float64(self):
        spec = ArchitectureSpec(1, (2,))
        X = np.array([[0.5], [-1.0]])
        mu, sigma2 = forward_batch(spec, np.arange(10), X)
        ref_mu, ref_sigma2 = forward_batch(spec, np.arange(10.0), X)
        assert mu.dtype == np.float64
        assert np.array_equal(mu, ref_mu) and np.array_equal(sigma2, ref_sigma2)
