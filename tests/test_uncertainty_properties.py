"""Property tests of the exact mixture identities in ``decompose_arrays``.

For any S draws of finite means and positive variances the split must keep
total = aleatoric + epistemic exactly, keep the epistemic term nonnegative,
give exactly zero epistemic uncertainty for identical draws, and make the
aleatoric term the mean of the drawn variances.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from winduq.uncertainty import decompose_arrays  # noqa: E402

_MEANS = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_VARIANCES = st.floats(1e-12, 1e6, allow_nan=False, allow_infinity=False)

# examples come from a fixed seed and no example database, so every run
# checks the same draws and writes nothing
_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def draws(draw):
    s = draw(st.integers(1, 40))
    means = draw(st.lists(_MEANS, min_size=s, max_size=s))
    variances = draw(st.lists(_VARIANCES, min_size=s, max_size=s))
    return np.array(means), np.array(variances)


@_SETTINGS
@given(draws())
def test_total_is_exactly_the_sum_and_epistemic_is_nonnegative(mv):
    aleatoric, epistemic, total, _ = decompose_arrays(*mv)
    assert total == aleatoric + epistemic
    assert epistemic >= 0.0
    assert aleatoric > 0.0


@_SETTINGS
@given(draws())
def test_aleatoric_is_the_mean_variance(mv):
    means, variances = mv
    aleatoric, _, _, _ = decompose_arrays(means, variances)
    assert aleatoric == float(np.mean(variances))
    assert aleatoric == pytest.approx(math.fsum(variances) / len(variances), rel=1e-12)


@_SETTINGS
@given(_MEANS, st.lists(_VARIANCES, min_size=1, max_size=40))
def test_identical_draws_have_zero_epistemic(mean, variances):
    means = np.full(len(variances), mean)
    aleatoric, epistemic, total, mean_hat = decompose_arrays(means, np.array(variances))
    assert epistemic == 0.0
    assert mean_hat == mean
    assert total == aleatoric
