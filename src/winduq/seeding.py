"""Deterministic RNG derivation helpers.

Every stochastic routine in this package takes an integer seed and derives
independent streams through ``numpy.random.SeedSequence`` spawn keys, so the
same (seed, key) pair always yields the same stream regardless of call order.
"""

from __future__ import annotations

import numbers
import operator

import numpy as np

_ENTROPY_MOD = 2**63


def _check_int(name: str, value) -> int:
    """A Python or numpy integer as an int; a bool, float or str raises a ValueError."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be int, got {type(value).__name__} {value!r}")
    return operator.index(value)


def _check_real(name: str, value) -> float:
    """A Python or numpy real number as a float; a bool, str or None raises a ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be int or float, got {type(value).__name__} {value!r}")
    return float(value)


def _normalize(seed: int) -> int:
    # SeedSequence requires nonnegative entropy; map negatives deterministically.
    return _check_int("seed", seed) % _ENTROPY_MOD


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Return a Generator for the stream identified by (seed, key)."""
    ss = np.random.SeedSequence(_normalize(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def derive_seed(seed: int, *key: int) -> int:
    """Derive a child integer seed from (seed, key).

    Children with distinct keys are statistically independent, and the
    derivation does not depend on how many siblings were derived before.
    """
    ss = np.random.SeedSequence(_normalize(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])
