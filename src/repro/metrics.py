"""Shared metrics primitives: quantile labels and latency reservoirs.

:class:`LatencyReservoir` is the bounded ring buffer behind every
reported latency quantile: per-window latencies in
:class:`repro.stream.metrics.StreamMetrics`, and request, stage and
queue-wait latencies in :class:`repro.serve.metrics.ServerMetrics` and
the gateway. Its quantiles are ``np.quantile`` over the retained
window, the historical ``StreamMetrics`` contract; the regression tests
in ``tests/test_metrics_shared.py`` pin it against a verbatim copy of
the pre-factoring implementation on fixed inputs.

:func:`quantile_labels` turns quantile levels into the stable snapshot
keys (``0.95 -> "p95"``).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.errors import ConfigurationError


def quantile_labels(qs: Sequence[float]) -> list:
    """``[0.5, 0.95, 0.99] -> ["p50", "p95", "p99"]`` (stable keys)."""
    labels = []
    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        scaled = q * 100.0
        labels.append(
            f"p{scaled:g}" if scaled != int(scaled) else f"p{int(scaled)}"
        )
    return labels


class LatencyReservoir:
    """Bounded ring buffer of latency samples with quantile readout.

    Retains the most recent ``capacity`` samples, so a long-running
    service reports *recent* latency, not lifetime. This is the buffer
    that previously lived inside ``StreamMetrics``; quantiles are
    computed with ``np.quantile`` over the retained window, exactly as
    before the factoring.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ConfigurationError(
                f"latency_capacity must be >= 1, got {capacity}"
            )
        self.capacity = int(capacity)
        self._values = np.empty(self.capacity, dtype=float)
        self._count = 0  # total ever recorded

    def record(self, value: float) -> None:
        self._values[self._count % self.capacity] = float(value)
        self._count += 1

    @property
    def count(self) -> int:
        """Total samples ever recorded (not just retained)."""
        return self._count

    @property
    def retained(self) -> int:
        return min(self._count, self.capacity)

    def values(self) -> np.ndarray:
        """The retained window (read-only view semantics: do not mutate)."""
        return self._values[: self.retained]

    def quantiles(self, qs: Sequence[float] = (0.50, 0.95)) -> Dict[str, float]:
        """``{"p50": ..., "p95": ...}`` over the retained window.

        Empty reservoirs report NaN for every requested quantile (the
        historical ``StreamMetrics`` behavior).
        """
        labels = quantile_labels(qs)
        if self.retained == 0:
            return {label: float("nan") for label in labels}
        window = self.values()
        return {
            label: float(np.quantile(window, q))
            for label, q in zip(labels, qs)
        }
