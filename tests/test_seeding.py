"""Seeds and draw counts must be integers at every seeded entry point.

A float, bool or str used to be cast with ``int``, so ``seed=1.9`` ran seed 1
and ``n_draws=2.9`` took two draws; numpy integers are integers and pass.
The float fields of the records likewise take real numbers only, never a bool
or a str, which ``float`` would cast.
"""

import re

import numpy as np
import pytest

from winduq.data import make_sine_dataset
from winduq.losses import TrainingConfig
from winduq.network import ArchitectureSpec, init_parameters
from winduq.posterior import FittedPosterior, PosteriorSampler, draw_parameter_matrix
from winduq.seeding import derive_seed, spawn_rng
from winduq.uncertainty import decompose_batch

SPEC = ArchitectureSpec(2, (4,))


def _dropconnect():
    return FittedPosterior("mc_dropconnect", SPEC, init_parameters(SPEC, 3)[None], 5, 0.3)


def _ensemble(k=3):
    phi = np.stack([init_parameters(SPEC, s) for s in range(k)])
    return FittedPosterior("deep_ensemble", SPEC, phi, k, 0.0)


X = np.linspace(-1.0, 1.0, 6).reshape(3, 2)

ENTRY_POINTS = {
    "spawn_rng": lambda v: spawn_rng(v),
    "derive_seed": lambda v: derive_seed(v, 1),
    "init_parameters": lambda v: init_parameters(SPEC, v),
    "make_sine_dataset": lambda v: make_sine_dataset(seed=v, n_train=4, n_test=2),
    "TrainingConfig.seed": lambda v: TrainingConfig(seed=v),
    "decompose_batch.seed": lambda v: decompose_batch(_dropconnect(), X, seed=v),
    "decompose_batch.n_draws": lambda v: decompose_batch(_dropconnect(), X, n_draws=v),
    "draw_parameter_matrix.n_draws": lambda v: draw_parameter_matrix(
        _dropconnect(), v, np.random.default_rng(0)
    ),
}


@pytest.mark.parametrize("value", [1.7, 3.0, np.float64(2.0), True, "3"], ids=repr)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_non_integers_rejected_not_cast(entry, value):
    name = "n_draws" if entry.endswith("n_draws") else "seed"
    message = f"{name} must be int, got {type(value).__name__} {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("n_draws", [3.6, 3.0])
def test_ensemble_draw_count_must_be_an_integer(n_draws):
    # int(3.6) == 3 used to pass as a K = 3 ensemble's one valid count
    with pytest.raises(ValueError, match="n_draws must be int"):
        decompose_batch(_ensemble(3), X, n_draws=n_draws)


def _comparable(result):
    if isinstance(result, np.random.Generator):
        return result.random(4)
    if isinstance(result, TrainingConfig):
        assert type(result.seed) is int
        return result.seed
    if isinstance(result, tuple):  # the sine (train, test) pair
        return result[0].inputs
    if hasattr(result, "total"):  # a decomposition
        return np.stack([result.mean, result.total])
    return result


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("cast", [np.int64, np.uint32, np.int8])
def test_numpy_integers_pass_as_their_value(entry, cast):
    got, want = ENTRY_POINTS[entry](cast(3)), ENTRY_POINTS[entry](3)
    assert np.array_equal(_comparable(got), _comparable(want))


_LR = "an lr_schedule rate or factor"
FLOAT_FIELDS = {  # entry: (name in the message, constructor)
    "beta": ("beta", lambda v: TrainingConfig(beta=v)),
    "kl_weight": ("kl_weight", lambda v: TrainingConfig(kl_weight=v)),
    "lr-initial": (_LR, lambda v: TrainingConfig(lr_schedule=(v, 10, 0.1))),
    "lr-factor": (_LR, lambda v: TrainingConfig(lr_schedule=(1e-3, 10, v))),
    "variance_floor": ("variance_floor", lambda v: ArchitectureSpec(1, (4,), "relu", v)),
    "sampler.drop_rate": ("drop_rate", lambda v: PosteriorSampler("mc_dropconnect", 3, drop_rate=v)),
    "init_sigma": ("init_sigma", lambda v: PosteriorSampler("bayes_by_backprop", 3, init_sigma=v)),
    "fitted.drop_rate": ("drop_rate", lambda v: FittedPosterior(
        "mc_dropconnect", SPEC, init_parameters(SPEC, 3)[None], 5, v)),
}


@pytest.mark.parametrize(
    "entry, value",
    [(entry, value) for entry in FLOAT_FIELDS for value in (True, np.bool_(False), "0.5", None)
     if not (entry == "kl_weight" and value is None)],  # None is the unset kl_weight
    ids=repr,
)
def test_non_reals_rejected_not_cast(entry, value):
    # each used to construct, or raise a TypeError: float(True) is 1.0, float("0.5") 0.5
    name, build = FLOAT_FIELDS[entry]
    message = f"{name} must be int or float, got {type(value).__name__} {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(value)


def test_numpy_reals_become_floats():
    tc = TrainingConfig(beta=np.float32(0.5), kl_weight=np.int64(2),
                        lr_schedule=(np.float16(0.5), 5, np.int8(1)))
    spec = ArchitectureSpec(1, (4,), "relu", np.int64(0))
    fields = (tc.beta, tc.kl_weight, tc.lr_schedule[0], tc.lr_schedule[2], spec.variance_floor)
    assert [type(f) for f in fields] == [float] * 5
