"""Finite differences of a relu network are valid only away from the kink at 0.

A central difference of step h that straddles a unit's kink measures the
average of its two one-sided slopes, not the gradient.  Init biases are 0, so
a unit whose inputs are all switched off sits exactly on the kink.  The
gradient checks therefore draw random biases and assert this margin first.
"""

import numpy as np

from winduq.network import parameter_layout, weight_position_mask


def with_random_biases(spec, params, rng):
    """A copy of ``params`` with every bias drawn from N(0.1, 0.3^2)."""
    params = params.copy()
    biases = ~weight_position_mask(spec)
    params[biases] = rng.normal(0.1, 0.3, size=int(biases.sum()))
    return params


def hidden_preactivations(spec, params, X):
    """Each hidden layer's (n, width) pre-activations of the rows X under one parameter vector."""
    slots, h, out = parameter_layout(spec), np.asarray(X, dtype=np.float64), []
    for i in range(len(spec.hidden_widths)):
        w, b = (params[s.start : s.stop].reshape(s.block) for s in slots[2 * i : 2 * i + 2])
        out.append(h @ w + b)
        h = np.maximum(out[-1], 0.0)
    return out


def assert_clear_of_the_kink(spec, params, X, h):
    """Assert every hidden pre-activation lies more than 100 h from 0."""
    margin = min(float(np.abs(z).min()) for z in hidden_preactivations(spec, params, X))
    assert margin > 100 * h, f"a pre-activation lies {margin:g} from the relu kink, step {h:g}"
