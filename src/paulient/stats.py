"""The running mean and the stopping rule behind every sampled average:
sampled P_E (z = 1, one value per Pauli string), long-time averages of
spin-chain observables and sweep points (z = 1.96, one value per timestep).
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np


class RunningMean:
    """Welford mean and sample variance over scalars or equal-shape arrays.

    Scalars stay Python floats; arrays are combined entry by entry with the
    same arithmetic, so each entry matches a scalar accumulator of its own.
    """

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0

    def push(self, value) -> None:
        self.n += 1
        delta = value - self.mean
        self.mean = self.mean + delta / self.n
        self._m2 = self._m2 + delta * (value - self.mean)

    def half_width(self, z: float = 1.0):
        """z sigma / sqrt(n) with the sample standard deviation (inf below
        two values); a float for scalar input, an array for array input."""
        if self.n < 2:
            hw = np.full(np.shape(self.mean), math.inf)
        else:
            hw = z * np.sqrt(self._m2 / (self.n - 1)) / math.sqrt(self.n)
        return hw if np.ndim(hw) else float(hw)


def run_until_converged(
    values: Iterable,
    threshold: float,
    z: float,
    n_min: int,
    cap: int,
) -> tuple[RunningMean, bool]:
    """Push values until n >= n_min and every z sigma / sqrt(n) is below
    threshold (converged), or until n reaches cap or the values run out
    (not converged).  Values are drawn lazily, one at a time, so nothing
    past the stopping point is computed.  A threshold that is not positive
    (or NaN) could never be met, so it is rejected like a cap below 1, before
    any value is drawn."""
    if cap < 1:
        raise ValueError(f"the step or sample cap must be at least 1, got {cap}")
    if not threshold > 0:
        raise ValueError(f"the stopping threshold must be positive, got {threshold}")
    acc = RunningMean()
    for value in values:
        acc.push(value)
        if acc.n >= n_min and np.all(acc.half_width(z) < threshold):
            return acc, True
        if acc.n >= cap:
            break
    return acc, False
