"""Total, aleatoric, and epistemic uncertainty from a handful of draws.

A stochastic regression model answers the same input S times, each answer a
Gaussian (mean, variance) pair.  Averaging the variances gives the aleatoric
part (noise the model believes is in the data); the spread of the means gives
the epistemic part (disagreement between draws).  Their sum is exactly the
variance of the equal-weight Gaussian mixture over the draws, which this
script verifies against a large Monte Carlo sample.
"""

import numpy as np

from winduq.uncertainty import decompose_arrays


def main() -> None:
    rng = np.random.default_rng(7)

    # five (mean, variance) draws for one input, as a posterior sampler
    # would produce them
    means = np.array([1.52, 1.44, 1.61, 1.49, 1.55])
    variances = np.array([0.30, 0.28, 0.35, 0.31, 0.29])
    au, eu, tu, _ = decompose_arrays(means, variances)
    print("five disagreeing draws")
    print(f"  aleatoric {au:.6f}  (mean of the drawn variances)")
    print(f"  epistemic {eu:.6f}  (population variance of the drawn means)")
    print(f"  total     {tu:.6f}  (their sum)")

    # the total equals the variance of the uniform mixture over the draws
    component = rng.integers(0, means.size, size=2_000_000)
    sample = rng.normal(means[component], np.sqrt(variances[component]))
    print(f"  mixture variance from 2e6 samples: {sample.var():.6f}")

    # identical draws: all spread is aleatoric, epistemic is exactly zero
    au, eu, tu, _ = decompose_arrays(np.full(5, 1.52), np.full(5, 0.30))
    print("five identical draws")
    print(f"  aleatoric {au:.6f}  epistemic {eu}  total {tu:.6f}")


if __name__ == "__main__":
    main()
