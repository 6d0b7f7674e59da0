"""Small statistics helpers: quantiles that carry their sample count."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

#: A percentile is reported as supported only with this many samples
#: beyond it.
MIN_BEYOND = 10


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def percentile(values: Sequence[float], q: float) -> Tuple[
        Optional[float], int, bool]:
    """``(value, sample count, supported)`` of quantile ``q``.

    ``supported`` is whether at least :data:`MIN_BEYOND` samples lie
    beyond the quantile, the rule for the highest percentile a sample
    can report. ``value`` is ``None`` for an empty sample.
    """
    n = len(values)
    if n == 0:
        return None, 0, False
    return quantile(values, q), n, n * (1.0 - q) >= MIN_BEYOND


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)
