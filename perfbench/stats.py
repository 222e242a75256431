"""Order statistics shared by the benchmark's end-to-end and per-layer reports."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """Latency at the highest percentile with at least ``beyond`` samples above it.

    Nearest rank on the sorted samples: the value at index ``n - 1 - beyond``
    has exactly ``beyond`` samples after it, and its percentile is
    ``100 * (n - beyond) / n``.  A tail is never reported below the median:
    when fewer than ``2 * beyond`` samples exist (so the rank would fall
    below the middle, or not exist at all) the median is returned with
    percentile 50.  Returns ``(value, percentile)``.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    pct = 100.0 * (n - beyond) / n
    if pct <= 50.0:
        return statistics.median(xs), 50.0
    return xs[n - 1 - beyond], pct


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def median_sum(per_op) -> float:
    """Sum over operations of each operation's median over its repetitions."""
    return sum(statistics.median(samples) for samples in per_op if samples)
