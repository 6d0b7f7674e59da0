"""The shared percentile code reports the exact pre-factoring numbers.

Two percentile implementations were factored out of their original
homes: the benchmark runner's pure-Python :func:`quantile` (now in
``benchmarks/benchrunner.py``) and the ``np.quantile`` ring buffer
inside ``StreamMetrics`` (now ``repro.metrics.LatencyReservoir``).
These tests pin both against verbatim copies of the pre-factoring code
on fixed inputs — the factoring must not change a single reported
number — and cover the reservoir semantics the serve layer now also
relies on.
"""

import numpy as np
import pytest

from benchmarks.benchrunner import quantile
from repro.errors import ConfigurationError
from repro.metrics import LatencyReservoir, quantile_labels
from repro.stream.metrics import StreamMetrics


# ----------------------------------------------------------------------
# Verbatim pre-factoring implementations (do not "fix" these).
# ----------------------------------------------------------------------
def _legacy_benchrunner_quantile(values, q):
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("quantile of an empty sample")
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    return xs[lo] * (1.0 - frac) + xs[hi] * frac


class _LegacyStreamReservoir:
    def __init__(self, latency_capacity=4096):
        self.latency_capacity = int(latency_capacity)
        self._latencies = np.empty(self.latency_capacity, dtype=float)
        self._latency_count = 0

    def record(self, latency_seconds):
        self._latencies[self._latency_count % self.latency_capacity] = float(
            latency_seconds
        )
        self._latency_count += 1

    def latency_quantiles(self):
        n = min(self._latency_count, self.latency_capacity)
        if n == 0:
            return {"p50": float("nan"), "p95": float("nan")}
        window = self._latencies[:n]
        return {
            "p50": float(np.quantile(window, 0.50)),
            "p95": float(np.quantile(window, 0.95)),
        }


def _fixed_samples(size, seed):
    return np.random.default_rng(seed).gamma(2.0, 0.01, size)


class TestQuantileRegression:
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 20, 101])
    @pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.95, 0.99, 1.0])
    def test_identical_to_legacy_benchrunner(self, size, q):
        values = list(_fixed_samples(size, seed=size))
        assert quantile(values, q) == _legacy_benchrunner_quantile(values, q)

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)


class TestReservoirRegression:
    @pytest.mark.parametrize("capacity,count", [
        (8, 0), (8, 1), (8, 5), (8, 8), (8, 9), (8, 30), (4096, 1000),
    ])
    def test_identical_p50_p95(self, capacity, count):
        new = LatencyReservoir(capacity)
        old = _LegacyStreamReservoir(capacity)
        for value in _fixed_samples(count, seed=count + capacity):
            new.record(value)
            old.record(value)
        got = new.quantiles((0.50, 0.95))
        want = old.latency_quantiles()
        if count == 0:
            assert np.isnan(got["p50"]) and np.isnan(got["p95"])
            assert np.isnan(want["p50"]) and np.isnan(want["p95"])
        else:
            assert got == want  # bitwise: same np.quantile on same window

    def test_stream_metrics_identical_to_legacy(self):
        metrics = StreamMetrics(latency_capacity=16)
        old = _LegacyStreamReservoir(16)
        for value in _fixed_samples(40, seed=3):
            metrics.record_window(value)
            old.record(value)
        assert metrics.latency_quantiles() == old.latency_quantiles()

    def test_ring_retains_most_recent(self):
        reservoir = LatencyReservoir(4)
        for value in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]:
            reservoir.record(value)
        assert reservoir.count == 6
        assert reservoir.retained == 4
        assert sorted(reservoir.values()) == [3.0, 4.0, 5.0, 6.0]

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            LatencyReservoir(0)
        with pytest.raises(ConfigurationError):
            StreamMetrics(latency_capacity=0)

    def test_stream_metrics_capacity_property(self):
        assert StreamMetrics(latency_capacity=7).latency_capacity == 7


class TestQuantileLabels:
    def test_standard_labels(self):
        assert quantile_labels([0.5, 0.95, 0.99]) == ["p50", "p95", "p99"]

    def test_fractional_label(self):
        assert quantile_labels([0.999]) == ["p99.9"]

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            quantile_labels([1.5])

    def test_extra_quantiles_flow_through_reservoir(self):
        reservoir = LatencyReservoir(8)
        for value in range(1, 9):
            reservoir.record(float(value))
        out = reservoir.quantiles((0.5, 0.99))
        assert set(out) == {"p50", "p99"}
        assert out["p50"] == float(np.quantile(np.arange(1.0, 9.0), 0.5))
