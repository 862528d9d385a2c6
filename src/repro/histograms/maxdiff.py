"""MaxDiff(V,A) histogram construction (Poosala et al., SIGMOD 1996).

This is the histogram class the paper's experiments use ("each SIT is a
unidimensional maxDiff histogram with at most 200 buckets").  MaxDiff(V,A)
sorts the distinct values, computes each value's *area* (frequency times
spread to the next distinct value) and places bucket boundaries at the
``b - 1`` largest adjacent-area differences, which isolates frequency
spikes into their own buckets.
"""

from __future__ import annotations

import numpy as np

from repro.histograms.base import (
    Histogram,
    grouped_histogram,
    point_histogram,
    values_and_frequencies,
)

DEFAULT_MAX_BUCKETS = 200


def build_maxdiff(values: np.ndarray, max_buckets: int = DEFAULT_MAX_BUCKETS) -> Histogram:
    """Build a MaxDiff(V,A) histogram of ``values`` (NaN treated as NULL)."""
    if max_buckets < 1:
        raise ValueError("max_buckets must be >= 1")
    counted = values_and_frequencies(values)
    distinct, counts, _ = counted
    if distinct.size <= max_buckets:
        return point_histogram(counted)

    spreads = np.empty_like(distinct)
    spreads[:-1] = np.diff(distinct)
    spreads[-1] = spreads[:-1].mean()
    areas = counts * spreads
    # Boundary *after* position i when |area[i+1] - area[i]| is among the
    # (max_buckets - 1) largest differences.
    differences = np.abs(np.diff(areas))
    boundary_count = min(max_buckets - 1, differences.size)
    starts = np.zeros(boundary_count + 1, dtype=np.intp)
    if boundary_count:
        cut_after = np.argpartition(differences, -boundary_count)[-boundary_count:]
        starts[1:] = np.sort(cut_after) + 1
    return grouped_histogram(counted, starts)
