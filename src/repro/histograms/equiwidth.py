"""Equi-width histogram construction (equal value range per bucket)."""

from __future__ import annotations

import numpy as np

from repro.histograms.base import (
    Histogram,
    grouped_histogram,
    point_histogram,
    values_and_frequencies,
)
from repro.histograms.maxdiff import DEFAULT_MAX_BUCKETS


def build_equiwidth(values: np.ndarray, max_buckets: int = DEFAULT_MAX_BUCKETS) -> Histogram:
    """Build an equi-width histogram of ``values`` (NaN treated as NULL)."""
    if max_buckets < 1:
        raise ValueError("max_buckets must be >= 1")
    counted = values_and_frequencies(values)
    distinct = counted.distinct
    if distinct.size <= max_buckets:
        return point_histogram(counted)

    low, high = float(distinct[0]), float(distinct[-1])
    edges = np.linspace(low, high, max_buckets + 1)
    # Assign each distinct value to a bucket; the last edge is inclusive.
    # The assignment never decreases along the sorted values, so each
    # non-empty bucket is one run of them.
    assignment = np.clip(
        np.searchsorted(edges, distinct, side="right") - 1, 0, max_buckets - 1
    )
    starts = np.flatnonzero(np.diff(assignment, prepend=-1))
    return grouped_histogram(counted, starts)
