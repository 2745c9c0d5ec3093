import math

import numpy as np
import pytest

from paulient.stats import RunningMean, run_until_converged


class TestRunningMean:
    def test_matches_two_pass_moments(self, rng):
        values = rng.normal(loc=3.0, scale=2.0, size=200)
        acc = RunningMean()
        for v in values:
            acc.push(float(v))
        assert isinstance(acc.mean, float) and isinstance(acc.half_width(), float)
        assert abs(acc.mean - np.mean(values)) < 1e-12
        sem = np.std(values, ddof=1) / np.sqrt(values.size)
        assert abs(acc.half_width() - sem) < 1e-12
        assert abs(acc.half_width(1.96) - 1.96 * sem) < 1e-12

    def test_arrays_match_scalar_accumulators_entrywise(self, rng):
        rows = rng.uniform(size=(50, 3))
        joint, singles = RunningMean(), [RunningMean() for _ in range(3)]
        for row in rows:
            joint.push(row)
            for acc, v in zip(singles, row):
                acc.push(float(v))
        assert joint.mean.tolist() == [acc.mean for acc in singles]
        assert joint.half_width(1.96).tolist() == [acc.half_width(1.96) for acc in singles]

    def test_half_width_infinite_below_two_values(self):
        acc = RunningMean()
        assert acc.half_width() == math.inf
        acc.push(np.array([1.0, 2.0]))
        assert acc.half_width().tolist() == [math.inf, math.inf]


class TestRule:
    def test_stops_at_floor_and_reads_lazily(self):
        values = iter([2.0] * 10)
        acc, converged = run_until_converged(values, 1e-3, 1.96, 4, 100)
        assert converged and acc.n == 4 and acc.mean == 2.0
        assert len(list(values)) == 6  # nothing past the stopping point was read

    def test_cap_and_exhaustion_are_not_converged(self):
        alternating = [0.0, 1.0] * 20
        acc, converged = run_until_converged(iter(alternating), 1e-3, 1.0, 2, 7)
        assert not converged and acc.n == 7
        acc, converged = run_until_converged(iter(alternating[:3]), 1e-3, 1.0, 2, 7)
        assert not converged and acc.n == 3

    def test_every_entry_must_pass(self):
        pairs = [np.array([1.0, v]) for v in (0.0, 1.0) * 10]
        # the constant entry passes at n = 2; the alternating one never does
        acc, converged = run_until_converged(iter(pairs), 0.05, 1.0, 2, 20)
        assert not converged and acc.n == 20
        assert acc.mean.tolist() == [1.0, 0.5] and acc.half_width()[0] == 0.0

    def test_cap_below_one_rejected(self):
        for cap in (0, -3):
            with pytest.raises(ValueError):
                run_until_converged(iter([1.0]), 1.0, 1.0, 2, cap)

    def test_threshold_not_positive_rejected(self):
        drawn = []

        def values():
            while True:
                drawn.append(1.0)
                yield 1.0

        for threshold in (0.0, -1e-3, math.nan):
            with pytest.raises(ValueError):
                run_until_converged(values(), threshold, 1.0, 2, 10)
        assert drawn == []
