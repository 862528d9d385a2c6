"""The loop builders as they were before the builders emitted bucket
columns, kept verbatim as the reference the column builders are held to
bit for bit (``test_builder_oracle.py``).

Each builds one :class:`Bucket` per bucket and hands the list to
``Histogram(buckets)``; the sampling builder's gap-free histogram is its
``_continuous_histogram`` method with ``self.max_buckets`` as a
parameter, and ``exact_diff`` is the ``np.union1d`` version.  Nothing
here is imported by the library.
"""

from __future__ import annotations

import numpy as np

from repro.histograms.base import Bucket, Histogram
from repro.histograms.maxdiff import DEFAULT_MAX_BUCKETS
from repro.histograms.wavelet import (
    MAX_GRID_CELLS,
    haar_decompose,
    haar_reconstruct,
    threshold_levels,
)


def values_and_frequencies(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Distinct non-NULL values, their frequencies, and the NULL count."""
    values = np.asarray(values, dtype=np.float64)
    nulls = int(np.isnan(values).sum())
    clean = values[~np.isnan(values)]
    if clean.size == 0:
        return np.empty(0), np.empty(0, dtype=np.int64), nulls
    distinct, counts = np.unique(clean, return_counts=True)
    return distinct, counts, nulls


def build_maxdiff(values: np.ndarray, max_buckets: int = DEFAULT_MAX_BUCKETS) -> Histogram:
    """Build a MaxDiff(V,A) histogram of ``values`` (NaN treated as NULL)."""
    if max_buckets < 1:
        raise ValueError("max_buckets must be >= 1")
    distinct, counts, nulls = values_and_frequencies(values)
    if distinct.size == 0:
        return Histogram([], null_count=nulls)
    if distinct.size <= max_buckets:
        buckets = [
            Bucket(float(v), float(v), float(c), 1.0)
            for v, c in zip(distinct, counts)
        ]
        return Histogram(buckets, null_count=nulls)

    spreads = np.empty_like(distinct)
    spreads[:-1] = np.diff(distinct)
    spreads[-1] = spreads[:-1].mean() if distinct.size > 1 else 1.0
    areas = counts * spreads
    # Boundary *after* position i when |area[i+1] - area[i]| is among the
    # (max_buckets - 1) largest differences.
    differences = np.abs(np.diff(areas))
    boundary_count = min(max_buckets - 1, differences.size)
    if boundary_count == 0:
        cut_positions: list[int] = []
    else:
        cut_after = np.argpartition(differences, -boundary_count)[-boundary_count:]
        cut_positions = sorted(int(i) + 1 for i in cut_after)

    buckets: list[Bucket] = []
    start = 0
    for stop in [*cut_positions, distinct.size]:
        group_values = distinct[start:stop]
        group_counts = counts[start:stop]
        buckets.append(
            Bucket(
                float(group_values[0]),
                float(group_values[-1]),
                float(group_counts.sum()),
                float(group_values.size),
            )
        )
        start = stop
    return Histogram(buckets, null_count=nulls)


def build_equidepth(values: np.ndarray, max_buckets: int = DEFAULT_MAX_BUCKETS) -> Histogram:
    """Build an equi-depth histogram of ``values`` (NaN treated as NULL)."""
    if max_buckets < 1:
        raise ValueError("max_buckets must be >= 1")
    distinct, counts, nulls = values_and_frequencies(values)
    if distinct.size == 0:
        return Histogram([], null_count=nulls)
    if distinct.size <= max_buckets:
        buckets = [
            Bucket(float(v), float(v), float(c), 1.0)
            for v, c in zip(distinct, counts)
        ]
        return Histogram(buckets, null_count=nulls)

    total = counts.sum()
    target = total / max_buckets
    cumulative = np.cumsum(counts)
    buckets = []
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
        group_values = distinct[start:stop]
        group_counts = counts[start:stop]
        buckets.append(
            Bucket(
                float(group_values[0]),
                float(group_values[-1]),
                float(group_counts.sum()),
                float(group_values.size),
            )
        )
        consumed = float(cumulative[stop - 1])
        start = stop
    return Histogram(buckets, null_count=nulls)


def build_equiwidth(values: np.ndarray, max_buckets: int = DEFAULT_MAX_BUCKETS) -> Histogram:
    """Build an equi-width histogram of ``values`` (NaN treated as NULL)."""
    if max_buckets < 1:
        raise ValueError("max_buckets must be >= 1")
    distinct, counts, nulls = values_and_frequencies(values)
    if distinct.size == 0:
        return Histogram([], null_count=nulls)
    if distinct.size <= max_buckets:
        buckets = [
            Bucket(float(v), float(v), float(c), 1.0)
            for v, c in zip(distinct, counts)
        ]
        return Histogram(buckets, null_count=nulls)

    low, high = float(distinct[0]), float(distinct[-1])
    edges = np.linspace(low, high, max_buckets + 1)
    # Assign each distinct value to a bucket; the last edge is inclusive.
    assignment = np.clip(
        np.searchsorted(edges, distinct, side="right") - 1, 0, max_buckets - 1
    )
    buckets = []
    for b in range(max_buckets):
        mask = assignment == b
        if not mask.any():
            continue
        group_values = distinct[mask]
        group_counts = counts[mask]
        buckets.append(
            Bucket(
                float(group_values[0]),
                float(group_values[-1]),
                float(group_counts.sum()),
                float(group_values.size),
            )
        )
    return Histogram(buckets, null_count=nulls)


def build_wavelet(values: np.ndarray, max_coefficients: int = 200) -> Histogram:
    """Build a Haar-synopsis histogram of ``values`` (NaN treated as NULL)."""
    if max_coefficients < 1:
        raise ValueError("max_coefficients must be >= 1")
    distinct, counts, nulls = values_and_frequencies(values)
    if distinct.size == 0:
        return Histogram([], null_count=nulls)
    if distinct.size <= max_coefficients:
        buckets = [
            Bucket(float(v), float(v), float(c), 1.0)
            for v, c in zip(distinct, counts)
        ]
        return Histogram(buckets, null_count=nulls)

    cells = MAX_GRID_CELLS
    while cells > 2 * max_coefficients and cells > 2:
        cells //= 2
    low, high = float(distinct[0]), float(distinct[-1])
    edges = np.linspace(low, high, cells + 1)
    cell_of = np.clip(
        np.searchsorted(edges, distinct, side="right") - 1, 0, cells - 1
    )
    frequencies = np.bincount(cell_of, weights=counts, minlength=cells)
    distinct_per_cell = np.bincount(cell_of, minlength=cells)

    levels = haar_decompose(frequencies)
    kept = threshold_levels(levels, max_coefficients - 1)
    approximate = np.maximum(haar_reconstruct(kept), 0.0)
    total = counts.sum()
    mass = approximate.sum()
    if mass > 0:
        approximate *= total / mass

    total_distinct = float(distinct.size)
    buckets: list[Bucket] = []
    for index in range(cells):
        frequency = float(approximate[index])
        if frequency <= 0.0:
            continue
        share = frequency / total
        estimated_distinct = max(1.0, min(total_distinct * share, frequency))
        if distinct_per_cell[index] > 0:
            estimated_distinct = float(distinct_per_cell[index])
        buckets.append(
            Bucket(
                float(edges[index]),
                float(edges[index + 1]),
                frequency,
                estimated_distinct,
            )
        )
    return Histogram(buckets, null_count=nulls)


def chao1_distinct(values: np.ndarray) -> float:
    """Chao1 lower-bound estimate of the population's distinct count.

    ``D ≈ d + f1² / (2 f2)`` where ``f1``/``f2`` are the numbers of
    values seen exactly once/twice in the sample; the bias-corrected form
    is used when no doubletons exist.
    """
    _, counts, _ = values_and_frequencies(values)
    d = float(counts.size)
    if d == 0.0:
        return 0.0
    f1 = float((counts == 1).sum())
    f2 = float((counts == 2).sum())
    if f2 > 0:
        return d + f1 * f1 / (2.0 * f2)
    return d + f1 * (f1 - 1.0) / 2.0


def continuous_histogram(sample: np.ndarray, scale: float, max_buckets: int) -> Histogram:
    """Gap-free equi-depth buckets over the sample, scaled up.

    A sample misses most distinct values, so exact point buckets would
    drop unseen values from the domain entirely (catastrophic for key
    columns feeding histogram joins).  Contiguous range buckets model
    unseen values inside the sampled range; per-bucket frequencies
    scale by the sampling rate and distinct counts by the Chao1
    population estimate.
    """
    distinct, counts, nulls = values_and_frequencies(sample)
    if distinct.size == 0:
        return Histogram([], null_count=nulls * scale)
    population_distinct = chao1_distinct(sample)
    ratio = max(1.0, population_distinct / distinct.size)
    bucket_count = min(max_buckets, max(1, distinct.size))
    cumulative = np.cumsum(counts)
    total = float(cumulative[-1])
    buckets: list[Bucket] = []
    start = 0
    for index in range(bucket_count):
        if start >= distinct.size:
            break
        goal = total * (index + 1) / bucket_count
        stop = int(np.searchsorted(cumulative, goal, side="left")) + 1
        stop = min(max(stop, start + 1), distinct.size)
        if index == bucket_count - 1:
            stop = distinct.size
        group_values = distinct[start:stop]
        group_mass = float(counts[start:stop].sum()) * scale
        low = float(group_values[0])
        # Extend to the next group's first value so the sampled domain
        # is covered without gaps (unseen values land in a bucket).
        high = (
            float(distinct[stop]) if stop < distinct.size else float(group_values[-1])
        )
        group_distinct = min(group_mass, group_values.size * ratio)
        buckets.append(Bucket(low, high, group_mass, max(group_distinct, 1.0)))
        start = stop
    return Histogram(buckets, null_count=nulls * scale)


def exact_diff(base_values: np.ndarray, expression_values: np.ndarray) -> float:
    """Exact total-variation distance between two value multisets."""
    base_distinct, base_counts, _ = values_and_frequencies(base_values)
    expr_distinct, expr_counts, _ = values_and_frequencies(expression_values)
    if base_counts.size == 0 and expr_counts.size == 0:
        return 0.0
    if base_counts.size == 0 or expr_counts.size == 0:
        return 1.0
    domain = np.union1d(base_distinct, expr_distinct)
    p = np.zeros(domain.size)
    q = np.zeros(domain.size)
    p[np.searchsorted(domain, base_distinct)] = base_counts / base_counts.sum()
    q[np.searchsorted(domain, expr_distinct)] = expr_counts / expr_counts.sum()
    return float(np.abs(p - q).sum() / 2.0)
