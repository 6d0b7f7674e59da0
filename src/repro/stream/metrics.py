"""Operational metrics for the streaming tracking service.

Every :class:`~repro.stream.session.TrackingSession` owns a
:class:`StreamMetrics`. Metrics are plain counters plus a bounded latency
reservoir, exportable as JSON for dashboards and the perf-trajectory
benchmarks.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, Optional

import numpy as np

from repro.metrics import LatencyReservoir


class StreamMetrics:
    """Counters and latency quantiles for one stream of windows.

    Parameters
    ----------
    latency_capacity:
        Maximum number of per-window step latencies retained (ring
        buffer, see :class:`repro.metrics.LatencyReservoir`). Quantiles
        are computed over the retained window, so a long-running
        session reports *recent* latency, not lifetime.
    """

    def __init__(self, latency_capacity: int = 4096):
        self.windows_processed = 0
        self.windows_skipped: Counter = Counter()
        self.windows_dropped = 0
        self._latencies = LatencyReservoir(latency_capacity)
        self._error_sum = 0.0
        self._error_count = 0

    @property
    def latency_capacity(self) -> int:
        return self._latencies.capacity

    # ------------------------------------------------------------------
    def record_window(
        self, latency_seconds: float, mean_error: Optional[float] = None
    ) -> None:
        """Account one successfully processed window."""
        self.windows_processed += 1
        self._latencies.record(latency_seconds)
        if mean_error is not None and np.isfinite(mean_error):
            self._error_sum += float(mean_error)
            self._error_count += 1

    def record_skip(self, reason: str) -> None:
        """Account one window rejected by session validation."""
        self.windows_skipped[reason] += 1

    def record_drop(self, count: int = 1) -> None:
        """Account windows shed before processing (never stepped)."""
        self.windows_dropped += int(count)

    # ------------------------------------------------------------------
    @property
    def skipped_total(self) -> int:
        return int(sum(self.windows_skipped.values()))

    def latency_quantiles(self) -> Dict[str, float]:
        """p50/p95 step latency (seconds) over the retained reservoir."""
        return self._latencies.quantiles((0.50, 0.95))

    def mean_error(self) -> float:
        """Mean per-window tracking error when ground truth was attached."""
        if self._error_count == 0:
            return float("nan")
        return self._error_sum / self._error_count

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        quantiles = self.latency_quantiles()
        return {
            "windows_processed": self.windows_processed,
            "windows_skipped": dict(self.windows_skipped),
            "windows_skipped_total": self.skipped_total,
            "windows_dropped": self.windows_dropped,
            "latency_p50_s": quantiles["p50"],
            "latency_p95_s": quantiles["p95"],
            "mean_error": self.mean_error(),
        }

    def to_json(self, indent: int = 2) -> str:
        def _nan_safe(value):
            if isinstance(value, float) and not np.isfinite(value):
                return None
            return value

        payload = {k: _nan_safe(v) for k, v in self.to_dict().items()}
        return json.dumps(payload, indent=indent, sort_keys=True)

