"""Scaling metrics: speedup and the paper's chaining rule.

Figure 4's caption defines a specific convention we reproduce exactly:
"The speedups for all input sizes greater or equal to 400K were
calculated relative to their corresponding 8 processor run-times, and
multiplied by the average speedup obtained at p = 8 for smaller input;
this average speedup observed was 4.51."  (Large inputs don't fit below
p = 8 under the 1 GB cap, so no 1-processor baseline exists for them.)
"""

from __future__ import annotations

from typing import Sequence


def speedup(t1: float, tp: float) -> float:
    """Real speedup S(p) = T(1) / T(p)."""
    if t1 <= 0 or tp <= 0:
        raise ValueError("run-times must be positive")
    return t1 / tp


def chained_speedup(t_anchor: float, tp: float, anchor_speedup: float) -> float:
    """Speedup via the paper's anchor rule: S(p) = (T(p_a)/T(p)) * S(p_a).

    Used when no single-processor run exists: run-times are taken
    relative to the anchor processor count (p = 8 in the paper) and
    scaled by the average anchor speedup observed on smaller inputs.
    """
    if t_anchor <= 0 or tp <= 0:
        raise ValueError("run-times must be positive")
    if anchor_speedup <= 0:
        raise ValueError("anchor_speedup must be positive")
    return (t_anchor / tp) * anchor_speedup


def mean_and_std(values: Sequence[float]) -> tuple:
    """Mean and population standard deviation (paper reports 0.36 +/- 0.11)."""
    if not values:
        return 0.0, 0.0
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, var**0.5
