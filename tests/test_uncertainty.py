"""Variance decomposition against closed forms and mixture sampling.

The two-draw case has a closed form, the general case is checked against the
empirical variance of a large sample from the equal-weight Gaussian mixture,
and the Monte Carlo error of the epistemic term must shrink like one over
the square root of the draw count.
"""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from winduq.network import (
    ArchitectureSpec,
    forward_batch,
    init_parameters,
    weight_position_mask,
)
from winduq.posterior import (
    SAMPLER_KINDS,
    FittedPosterior,
    draw_parameter_matrix,
    draw_prediction_arrays,
    softplus_inverse,
)
from winduq.seeding import spawn_rng
from winduq.uncertainty import (
    BatchDecomposition,
    _reduce_draws,
    decompose_arrays,
    decompose_batch,
)


class TestClosedForms:
    def test_two_component_hand_values(self):
        # means 1, 3 and variances 4, 2: aleatoric (4+2)/2, epistemic (3-1)^2/4
        au, eu, tu, mean_hat = decompose_arrays(np.array([1.0, 3.0]), np.array([4.0, 2.0]))
        assert au == pytest.approx(3.0, rel=1e-15)
        assert eu == pytest.approx(1.0, rel=1e-15)
        assert tu == pytest.approx(4.0, rel=1e-15)
        assert mean_hat == pytest.approx(2.0, rel=1e-15)

    def test_two_component_general(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            m1, m2 = rng.normal(size=2)
            v1, v2 = rng.uniform(0.1, 3.0, size=2)
            au, eu, tu, _ = decompose_arrays(np.array([m1, m2]), np.array([v1, v2]))
            assert au == pytest.approx((v1 + v2) / 2.0, rel=1e-12)
            assert eu == pytest.approx((m1 - m2) ** 2 / 4.0, rel=1e-9, abs=1e-15)
            assert tu == pytest.approx(au + eu, rel=1e-15)

    def test_total_is_sum_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            s = int(rng.integers(1, 40))
            means = rng.normal(size=s)
            variances = rng.uniform(1e-6, 5.0, size=s)
            au, eu, tu, _ = decompose_arrays(means, variances)
            assert tu == au + eu
            assert au >= 0.0 and eu >= 0.0

    def test_population_divisor(self):
        # epistemic uses the 1/S population variance, not 1/(S-1)
        means = np.array([0.0, 1.0, 2.0, 3.0])
        au, eu, _, _ = decompose_arrays(means, np.zeros(4))
        assert eu == pytest.approx(float(np.var(means)), rel=1e-15)
        assert eu != pytest.approx(float(np.var(means, ddof=1)), rel=1e-3)
        assert au == 0.0

    def test_single_draw_has_zero_epistemic(self):
        au, eu, tu, mean_hat = decompose_arrays(np.array([2.5]), np.array([0.7]))
        assert eu == 0.0
        assert au == 0.7 and tu == 0.7 and mean_hat == 2.5

    def test_identical_draws_give_exact_zero_epistemic(self):
        # awkward binary values must not leave roundoff residue
        for value in (0.1 + 0.2, 1.0 / 3.0, 1e-9, 123456.789):
            means = np.full(64, value)
            variances = np.full(64, 0.42)
            au, eu, tu, mean_hat = decompose_arrays(means, variances)
            assert eu == 0.0
            assert tu == au
            assert mean_hat == value


class TestMixtureOracle:
    def test_total_matches_mixture_variance(self):
        means = np.array([0.5, -1.0, 2.0, 0.0, 1.2])
        stds = np.array([0.8, 1.5, 0.3, 1.0, 0.6])
        _, _, tu, mean_hat = decompose_arrays(means, stds**2)
        rng = np.random.default_rng(99)
        comp = rng.integers(0, means.size, size=1_000_000)
        sample = rng.normal(means[comp], stds[comp])
        assert tu == pytest.approx(float(np.var(sample)), rel=0.01)
        assert mean_hat == pytest.approx(float(sample.mean()), abs=0.01)

    def test_epistemic_error_shrinks_like_root_draws(self):
        rng = np.random.default_rng(17)
        true_eu = 1.44  # means drawn with std 1.2
        draw_counts = (100, 400, 1600, 6400)
        reps = 300
        mean_abs_err = []
        for s in draw_counts:
            errs = np.empty(reps)
            for r in range(reps):
                means = rng.normal(0.0, 1.2, size=s)
                variances = np.full(s, 0.5)
                _, eu, _, _ = decompose_arrays(means, variances)
                errs[r] = abs(eu - true_eu)
            mean_abs_err.append(errs.mean())
        slope = np.polyfit(np.log(draw_counts), np.log(mean_abs_err), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)


class TestDecompose:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            decompose_arrays(np.array([]), np.array([]))

    def test_array_validation(self):
        with pytest.raises(ValueError):
            decompose_arrays(np.array([1.0, 2.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            decompose_arrays(np.array([[1.0]]), np.array([[1.0]]))
        with pytest.raises(ValueError):
            decompose_arrays(np.array([np.inf]), np.array([1.0]))
        with pytest.raises(ValueError):
            decompose_arrays(np.array([0.0]), np.array([-1e-9]))


class TestDecomposeBatch:
    SPEC = ArchitectureSpec(2, (6,))

    def _dropconnect(self, rate=0.3):
        phi = init_parameters(self.SPEC, seed=3)[None]
        return FittedPosterior("mc_dropconnect", self.SPEC, phi, 20, rate)

    def _ensemble(self):
        phi = np.stack([init_parameters(self.SPEC, seed=k) for k in range(4)])
        return FittedPosterior("deep_ensemble", self.SPEC, phi, 4, 0.0)

    def test_rows_match_single_input_draws(self):
        # every row shares one (S, P) draw from the call's seed
        fp = self._dropconnect()
        rng = np.random.default_rng(12)
        X = rng.normal(size=(5, 2))
        batch = decompose_batch(fp, X, seed=8)
        for i in range(5):
            au, eu, tu, mean_hat = decompose_arrays(*draw_prediction_arrays(fp, X[i], seed=8))
            # one-row and whole-batch BLAS calls may differ at the ulp level
            assert batch.aleatoric[i] == pytest.approx(au, rel=1e-12, abs=1e-15)
            assert batch.epistemic[i] == pytest.approx(eu, rel=1e-12, abs=1e-15)
            assert batch.total[i] == pytest.approx(tu, rel=1e-12, abs=1e-15)
            assert batch.mean[i] == pytest.approx(mean_hat, rel=1e-12)

    def test_prefix_rows_unaffected_by_extra_rows(self):
        fp = self._dropconnect()
        rng = np.random.default_rng(2)
        X = rng.normal(size=(6, 2))
        full = decompose_batch(fp, X, seed=4)
        head = decompose_batch(fp, X[:3], seed=4)
        assert np.array_equal(full.aleatoric[:3], head.aleatoric)
        assert np.array_equal(full.epistemic[:3], head.epistemic)
        assert np.array_equal(full.mean[:3], head.mean)

    def test_ensemble_batch_matches_per_row_draws(self):
        fp = self._ensemble()
        rng = np.random.default_rng(10)
        X = rng.normal(size=(7, 2))
        batch = decompose_batch(fp, X)
        assert isinstance(batch, BatchDecomposition) and len(batch) == 7
        for i in range(7):
            mu_i, s2_i = draw_prediction_arrays(fp, X[i])
            au, eu, tu, mean_hat = decompose_arrays(mu_i, s2_i)
            # batched BLAS accumulation differs from per-row at the ulp level
            assert batch.aleatoric[i] == pytest.approx(au, rel=1e-12, abs=1e-15)
            assert batch.epistemic[i] == pytest.approx(eu, rel=1e-12, abs=1e-15)
            assert batch.total[i] == pytest.approx(tu, rel=1e-12, abs=1e-15)
            assert batch.mean[i] == pytest.approx(mean_hat, rel=1e-12)

    def test_zero_drop_rate_has_exactly_zero_epistemic(self):
        fp = self._dropconnect(rate=0.0)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(8, 2))
        batch = decompose_batch(fp, X, seed=5)
        assert np.all(batch.epistemic == 0.0)
        assert np.array_equal(batch.total, batch.aleatoric)

    def test_variational_zero_std_has_exactly_zero_epistemic(self):
        # softplus(-1000) underflows to exactly 0, collapsing every draw onto the mean
        rho = np.full(self.SPEC.n_parameters, -1000.0)
        mean = init_parameters(self.SPEC, seed=2)
        fp = FittedPosterior("bayes_by_backprop", self.SPEC, np.stack([mean, rho]), 12, 0.0)
        X = np.random.default_rng(0).normal(size=(4, 2))
        batch = decompose_batch(fp, X, seed=1)
        assert np.all(batch.epistemic == 0.0)

    def test_draw_count_and_shape_validation(self):
        fp = self._ensemble()
        X = np.zeros((2, 2))
        message = r"^deep_ensemble yields exactly 4 draws, requested 9$"
        with pytest.raises(ValueError, match=message):
            decompose_batch(fp, X, n_draws=9)
        with pytest.raises(ValueError):
            decompose_batch(fp, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            decompose_batch(fp, np.zeros(2))
        with pytest.raises(ValueError, match="n_draws"):
            decompose_batch(self._dropconnect(), X, n_draws=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_rejected(self, bad):
        X = np.zeros((3, 2))
        X[1, 0] = bad
        for fp in (self._dropconnect(), self._ensemble()):
            with pytest.raises(ValueError, match="inputs contain non-finite"):
                decompose_batch(fp, X, seed=1)


def _posterior(kind: str, spec: ArchitectureSpec, count: int) -> FittedPosterior:
    rng = np.random.default_rng(spec.input_dim)
    mean = init_parameters(spec, seed=3) + rng.normal(0.0, 0.05, size=spec.n_parameters)
    if kind == "deep_ensemble":
        phi = np.stack([init_parameters(spec, seed=k) for k in range(count)])
        return FittedPosterior(kind, spec, phi, count, 0.0)
    if kind == "mc_dropconnect":
        return FittedPosterior(kind, spec, mean[None], count, 0.3)
    rho = np.full(spec.n_parameters, softplus_inverse(0.2))
    return FittedPosterior(kind, spec, np.stack([mean, rho]), count, 0.0)


# (sample_count, n_draws) per kind: S = 1 and S > 1, and n_draws other than
# sample_count where the kind allows it
_DRAW_COUNTS = {
    "deep_ensemble": [(1, None), (4, None), (4, 4)],
    "mc_dropconnect": [(4, None), (4, 1), (4, 7)],
    "bayes_by_backprop": [(4, None), (4, 1), (4, 7)],
}


class TestStreamedDraws:
    """decompose_batch streams one parameter draw at a time through reused blocks;
    it must give the bits of the (S, P) matrix composition."""

    @pytest.mark.parametrize(
        "spec",
        [
            ArchitectureSpec(1, (6, 5)),
            ArchitectureSpec(1, (4,), "sigmoid"),
            ArchitectureSpec(3, (7, 4), "sigmoid"),
            ArchitectureSpec(5, (8, 3, 6)),
        ],
        ids=str,
    )
    @pytest.mark.parametrize(
        "kind, count, n_draws",
        [(kind, *c) for kind in SAMPLER_KINDS for c in _DRAW_COUNTS[kind]],
    )
    def test_matches_the_parameter_matrix_composition(self, spec, kind, count, n_draws):
        fp = _posterior(kind, spec, count)
        X = np.random.default_rng(count).normal(size=(11, spec.input_dim))
        s = count if n_draws is None else n_draws
        thetas = draw_parameter_matrix(fp, s, spawn_rng(6, 301))
        draws = [forward_batch(spec, theta, X) for theta in thetas]
        expected = _reduce_draws(np.stack([m for m, _ in draws]), np.stack([v for _, v in draws]))
        got = decompose_batch(fp, X, n_draws, seed=6)
        for a, b in zip((got.aleatoric, got.epistemic, got.total, got.mean), expected):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    def test_parameter_rows_are_the_one_block_draw(self, kind):
        # written row by row, the matrix keeps the bits of one (S, P) draw
        spec = ArchitectureSpec(3, (5, 4))
        fp = _posterior(kind, spec, 4)
        thetas = draw_parameter_matrix(fp, 4, np.random.default_rng(17))
        rng = np.random.default_rng(17)
        if kind == "deep_ensemble":
            expected = fp.phi
        elif kind == "mc_dropconnect":
            keeps = np.ones((4, spec.n_parameters))
            wpos = weight_position_mask(spec)
            keeps[:, wpos] = rng.random((4, int(wpos.sum()))) >= fp.drop_rate
            expected = fp.phi * keeps
        else:
            mean, rho = fp.phi
            expected = mean + np.logaddexp(0.0, rho) * rng.standard_normal((4, spec.n_parameters))
        assert thetas.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_decompose_peaks_below_one_parameter_matrix(kind):
    # the draws stream through one (P,) vector: no (S, P) block is ever built
    spec = ArchitectureSpec(32, (64, 64, 64))
    fp = _posterior(kind, spec, 5 if kind == "deep_ensemble" else 30)
    X = np.random.default_rng(0).normal(size=(90, 32))
    decompose_batch(fp, X, seed=1)  # fills the per-spec layout caches
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        decompose_batch(fp, X, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < fp.sample_count * spec.n_parameters * 8
