"""The few statistics the benchmark reports: percentiles and spreads."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: tail quantiles tried from the top; the median is the floor
TAIL_LADDER = (0.95, 0.9, 0.75, 0.5)
#: a quantile is only as good as the samples beyond it
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile, interpolated linearly between order statistics
    (at 0.5 this is the median)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (position - low) * (ordered[high] - ordered[low])


def tail_quantile(samples: int) -> float:
    """The highest quantile of the ladder with at least ten samples beyond it.

    Fewer than twenty samples leave no quantile with ten beyond it, so the
    tail falls back to the median.
    """
    for q in TAIL_LADDER:
        if samples - math.ceil(q * samples) >= MIN_BEYOND:
            return q
    return TAIL_LADDER[-1]


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(quantile, value)`` of the tail percentile ``values`` supports."""
    q = tail_quantile(len(values))
    return q, percentile(values, q)


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
