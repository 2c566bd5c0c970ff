"""Property test of posterior persistence: ``load_posterior(save_posterior(fp))``
gives back exactly ``fp``.

For any kind, small architecture and finite phi of the right shape, with
negative zeros, subnormals and values such as 1/3 mixed in, the loaded
record must hold byte-equal phi, the same spec and knobs, and decompose
every input exactly as the original does.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from winduq.network import ArchitectureSpec, init_parameters  # noqa: E402
from winduq.posterior import (  # noqa: E402
    SAMPLER_KINDS,
    FittedPosterior,
    load_posterior,
    save_posterior,
)
from winduq.uncertainty import decompose_batch  # noqa: E402

# bounded so that every draw's forward pass stays finite
_ENTRIES = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([-0.0, 1.0 / 3.0, 5e-324, -2.2250738585072014e-308, 1e-300]),
)

# examples come from a fixed seed and no example database, so every run
# checks the same draws and writes nothing
_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def posteriors(draw):
    spec = ArchitectureSpec(
        draw(st.integers(1, 3)),
        tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))),
        draw(st.sampled_from(["relu", "sigmoid"])),
        draw(st.floats(0.0, 1.0)),
    )
    kind = draw(st.sampled_from(SAMPLER_KINDS))
    sample_count = draw(st.integers(1, 4))
    rows = {"deep_ensemble": sample_count, "mc_dropconnect": 1, "bayes_by_backprop": 2}[kind]
    n = rows * spec.n_parameters
    phi = np.array(draw(st.lists(_ENTRIES, min_size=n, max_size=n))).reshape(rows, -1)
    drop_rate = draw(st.floats(0.0, 0.99)) if kind == "mc_dropconnect" else 0.0
    return FittedPosterior(kind, spec, phi, sample_count, drop_rate)


def _exact_entries():
    """One DropConnect posterior of a sigmoid network whose first three
    parameters are 1/3, 1e-300 and -0.0."""
    spec = ArchitectureSpec(2, (9, 3), "sigmoid", variance_floor=1e-5)
    params = init_parameters(spec, seed=77)
    params[:3] = [1.0 / 3.0, 1e-300, -0.0]
    return FittedPosterior("mc_dropconnect", spec, params[None], 5, 1.0 / 3.0)


@_SETTINGS
@given(posteriors())
@example(_exact_entries())
def test_save_load_round_trip_is_exact(fp):
    with tempfile.TemporaryDirectory() as tmp:
        save_posterior(fp, Path(tmp) / "p", extra={"seed": 1})
        back = load_posterior(Path(tmp) / "p")
    assert back.phi.dtype == np.float64 and back.phi.shape == fp.phi.shape
    assert back.phi.tobytes() == fp.phi.tobytes()
    assert (back.kind, back.spec) == (fp.kind, fp.spec)
    assert (back.sample_count, back.drop_rate) == (fp.sample_count, fp.drop_rate)
    X = np.random.default_rng(0).normal(size=(3, fp.spec.input_dim))
    a, b = decompose_batch(fp, X, seed=2), decompose_batch(back, X, seed=2)
    for field in ("aleatoric", "epistemic", "total", "mean"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
