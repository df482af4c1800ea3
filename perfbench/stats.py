"""Order statistics for the benchmark: nearest-rank percentiles with their
sample counts, and medians."""

from __future__ import annotations

import math


def percentile(values, q):
    """Nearest-rank q-th percentile (0 < q <= 100) of `values`; None if empty.

    The result is always one of the observed values: the smallest value with at
    least q% of the samples at or below it.
    """
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        return None
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def beyond(n, q):
    """How many of n samples lie strictly above the nearest-rank q-th percentile
    position (ties aside)."""
    return n - max(1, math.ceil(q / 100 * n)) if n else 0


def median(values):
    ordered = sorted(values)
    if not ordered:
        return None
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def summary(values, scale=1.0):
    """p50 and p99 of `values` times `scale`, with the sample count and how many
    samples lie beyond p99 (the p99 is trustworthy only when that is >= 10)."""
    n = len(values)
    return {
        "n": n,
        "p50": percentile(values, 50) * scale if n else 0.0,
        "p99": percentile(values, 99) * scale if n else 0.0,
        "beyond_p99": beyond(n, 99),
    }
