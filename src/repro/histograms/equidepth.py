"""Equi-depth histogram construction (equal tuple mass per bucket).

Provided alongside MaxDiff for ablation benchmarks: the framework is
agnostic to the bucketing scheme, and comparing schemes isolates how much
of the accuracy comes from the SIT machinery versus the histogram class.
"""

from __future__ import annotations

import numpy as np

from repro.histograms.base import (
    Histogram,
    grouped_histogram,
    point_histogram,
    values_and_frequencies,
)
from repro.histograms.maxdiff import DEFAULT_MAX_BUCKETS


def build_equidepth(values: np.ndarray, max_buckets: int = DEFAULT_MAX_BUCKETS) -> Histogram:
    """Build an equi-depth histogram of ``values`` (NaN treated as NULL)."""
    if max_buckets < 1:
        raise ValueError("max_buckets must be >= 1")
    counted = values_and_frequencies(values)
    distinct, counts, _ = counted
    if distinct.size <= max_buckets:
        return point_histogram(counted)

    total = counts.sum()
    target = total / max_buckets
    cumulative = np.cumsum(counts)
    starts = []
    start = 0
    consumed = 0.0
    for bucket_index in range(max_buckets):
        if start >= distinct.size:
            break
        goal = consumed + target
        if bucket_index == max_buckets - 1:
            stop = distinct.size
        else:
            stop = int(np.searchsorted(cumulative, goal, side="left")) + 1
            stop = max(stop, start + 1)
            stop = min(stop, distinct.size)
        starts.append(start)
        consumed = float(cumulative[stop - 1])
        start = stop
    return grouped_histogram(counted, np.array(starts, dtype=np.intp))
