"""Histogram algebra: equi-join, variation distance, compaction.

Section 3.3 of the paper relies on a *histogram join*: joining
``H1 = SIT(x|Q1)`` with ``H2 = SIT(y|Q2)`` returns both the scalar
selectivity ``Sel(x = y | ...)`` and a derived histogram over the join
attribute that can estimate the remaining predicates (Example 3).

Section 3.5 needs a discrepancy measure between two distributions of the
same attribute (the ``diff_H`` value, "similar to mu_count of Gibbons et
al."); :func:`variation_distance` implements the histogram-level
approximation of the paper's total-variation formula.

Both operations align the two histograms on *segments*: the union of all
bucket edges splits the domain into degenerate point segments (one per
edge) and open spans between consecutive edges.  Mass assignment is
conserving: a bucket with ``d`` distinct values covering ``k`` edges gives
each edge one distinct value's share ``f/d`` and spreads the remainder over
its spans proportionally to width.  This makes the common fact-to-dimension
case (point buckets on the dimension key joining wide buckets on the fact
foreign key) exact under the uniform-spread assumption.

Performance: histogram manipulation is the second half of the paper's
Figure 8 time budget, so the mass-assignment kernel is vectorized.  The
sorted edge array indexes segments implicitly (segment ``2k`` is the point
at ``edges[k]``, segment ``2k + 1`` the open span to ``edges[k + 1]``),
``np.searchsorted`` locates each bucket's covered edge range, and per-edge
/ per-span totals come from difference-array (cumsum) range additions —
no Python-level bucket × edge loop.  The original loop implementation is
kept (``join_histograms_reference`` / ``variation_distance_reference``) as
the oracle for the equivalence tests and the baseline for the
``python -m repro.bench core`` microbenchmarks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.histograms.base import Histogram


@dataclass(frozen=True)
class Segment:
    """One aligned domain segment: degenerate (low == high) or an open span."""

    low: float
    high: float

    @property
    def is_point(self) -> bool:
        return self.low == self.high


def _merged_segments(histograms: list[Histogram]) -> list[Segment]:
    edges: set[float] = set()
    for histogram in histograms:
        for bucket in histogram.buckets:
            edges.add(bucket.low)
            edges.add(bucket.high)
    ordered = sorted(edges)
    segments: list[Segment] = []
    for index, edge in enumerate(ordered):
        segments.append(Segment(edge, edge))
        if index + 1 < len(ordered):
            segments.append(Segment(edge, ordered[index + 1]))
    return segments


def _assign_mass(
    histogram: Histogram, segments: list[Segment]
) -> tuple[np.ndarray, np.ndarray]:
    """Frequency and distinct-count mass per segment (reference loop)."""
    frequencies = np.zeros(len(segments))
    distincts = np.zeros(len(segments))
    point_positions = {
        segment.low: index for index, segment in enumerate(segments) if segment.is_point
    }
    span_segments = [
        (index, segment) for index, segment in enumerate(segments) if not segment.is_point
    ]
    for bucket in histogram.buckets:
        if bucket.low == bucket.high:
            index = point_positions[bucket.low]
            frequencies[index] += bucket.frequency
            distincts[index] += bucket.distinct
            continue
        covered_edges = [
            index
            for value, index in point_positions.items()
            if bucket.low <= value <= bucket.high
        ]
        edge_count = len(covered_edges)
        distinct = max(bucket.distinct, 1.0)
        if edge_count >= distinct:
            # Degenerate: fewer distinct values than edges; split evenly.
            share = bucket.frequency / edge_count
            for index in covered_edges:
                frequencies[index] += share
                distincts[index] += distinct / edge_count
            continue
        edge_frequency = bucket.frequency / distinct
        for index in covered_edges:
            frequencies[index] += edge_frequency
            distincts[index] += 1.0
        remaining_frequency = bucket.frequency - edge_frequency * edge_count
        remaining_distinct = distinct - edge_count
        width = bucket.width
        for index, segment in span_segments:
            if segment.high <= bucket.low or segment.low >= bucket.high:
                continue
            low = max(segment.low, bucket.low)
            high = min(segment.high, bucket.high)
            fraction = (high - low) / width
            frequencies[index] += remaining_frequency * fraction
            distincts[index] += remaining_distinct * fraction
    return frequencies, distincts


# ----------------------------------------------------------------------
# Vectorized segment algebra
# ----------------------------------------------------------------------
def _merged_edges(histograms: list[Histogram]) -> np.ndarray:
    """Sorted, de-duplicated union of all bucket edges.

    The segment layout is implicit: with ``E`` edges there are ``2E - 1``
    segments, segment ``2k`` being the point at ``edges[k]`` and segment
    ``2k + 1`` the open span ``(edges[k], edges[k + 1])`` — the same order
    :func:`_merged_segments` materializes.
    """
    arrays = []
    for histogram in histograms:
        lows, highs, _, _ = histogram.bucket_arrays()
        arrays.append(lows)
        arrays.append(highs)
    return np.unique(np.concatenate(arrays))


def _assign_mass_arrays(
    histogram: Histogram, edges: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`_assign_mass` over the implicit segment layout.

    Every bucket endpoint is guaranteed to be a member of ``edges``, so a
    wide bucket covers a contiguous run of edges (and the spans strictly
    between them, each fully contained in the bucket).  Edge and span
    contributions are therefore range-additions, realized with
    difference arrays + ``cumsum``.
    """
    edge_count_total = len(edges)
    segments = 2 * edge_count_total - 1
    frequencies = np.zeros(segments)
    distincts = np.zeros(segments)
    lows, highs, freqs, dists = histogram.bucket_arrays()
    if lows.size == 0:
        return frequencies, distincts

    point = lows == highs
    if point.any():
        indices = np.searchsorted(edges, lows[point])
        np.add.at(frequencies, 2 * indices, freqs[point])
        np.add.at(distincts, 2 * indices, dists[point])

    wide = ~point
    if wide.any():
        b_low = lows[wide]
        b_high = highs[wide]
        b_freq = freqs[wide]
        b_dist = np.maximum(dists[wide], 1.0)
        first_edge = np.searchsorted(edges, b_low, side="left")
        last_edge = np.searchsorted(edges, b_high, side="right") - 1
        covered = last_edge - first_edge + 1  # >= 2: endpoints are edges
        degenerate = covered >= b_dist

        # Per covered edge: f/d (one distinct value's share) and 1 distinct
        # — or an even split when the bucket has fewer distincts than edges.
        edge_freq = np.where(degenerate, b_freq / covered, b_freq / b_dist)
        edge_dist = np.where(degenerate, b_dist / covered, 1.0)
        delta_f = np.zeros(edge_count_total + 1)
        delta_d = np.zeros(edge_count_total + 1)
        np.add.at(delta_f, first_edge, edge_freq)
        np.add.at(delta_f, last_edge + 1, -edge_freq)
        np.add.at(delta_d, first_edge, edge_dist)
        np.add.at(delta_d, last_edge + 1, -edge_dist)
        frequencies[0::2] += np.cumsum(delta_f[:-1])
        distincts[0::2] += np.cumsum(delta_d[:-1])

        # Remaining mass spreads over the spans inside the bucket
        # proportionally to width: accumulate *densities* (mass / bucket
        # width) with a range-add, then scale by each span's width.
        if edge_count_total > 1:
            width = b_high - b_low
            rem_freq = np.where(degenerate, 0.0, b_freq - edge_freq * covered)
            rem_dist = np.where(degenerate, 0.0, b_dist - covered)
            dens_f = np.zeros(edge_count_total)
            dens_d = np.zeros(edge_count_total)
            np.add.at(dens_f, first_edge, rem_freq / width)
            np.add.at(dens_f, last_edge, -(rem_freq / width))
            np.add.at(dens_d, first_edge, rem_dist / width)
            np.add.at(dens_d, last_edge, -(rem_dist / width))
            span_widths = edges[1:] - edges[:-1]
            frequencies[1::2] += np.cumsum(dens_f[:-1]) * span_widths
            distincts[1::2] += np.cumsum(dens_d[:-1]) * span_widths
    return frequencies, distincts


def _segment_bounds(indices, edges: np.ndarray):
    """``(lows, highs)`` of the implicit segments ``indices`` (an index
    or an index array) over ``edges``."""
    half = indices >> 1
    return edges[half], edges[half + (indices & 1)]


@dataclass(frozen=True)
class HistogramJoinResult:
    """Outcome of ``H1 join H2``: matched-pair count, scalar selectivity
    (relative to ``H1.total * H2.total``) and the derived histogram over
    the join attribute."""

    pair_count: float
    selectivity: float
    histogram: Histogram


def join_histograms(
    left: Histogram, right: Histogram, max_buckets: int | None = None
) -> HistogramJoinResult:
    """Estimate the equi-join of two attribute distributions.

    Aligned segments contribute ``f1 * f2 / max(d1, d2)`` matched pairs
    (the containment/uniform-spread assumption).  NULLs never match, but
    they stay in the denominator of the returned selectivity, so dangling
    foreign keys correctly depress join selectivity.
    """
    if left.is_empty() or right.is_empty():
        return HistogramJoinResult(0.0, 0.0, Histogram([]))
    edges = _merged_edges([left, right])
    left_freq, left_distinct = _assign_mass_arrays(left, edges)
    right_freq, right_distinct = _assign_mass_arrays(right, edges)

    with np.errstate(divide="ignore", invalid="ignore"):
        pairs = (
            left_freq
            * right_freq
            / np.maximum(left_distinct, right_distinct)
        )
    keep = (left_distinct > 0.0) & (right_distinct > 0.0) & (pairs > 0.0)
    total_pairs = float(pairs[keep].sum())
    min_distinct = np.minimum(left_distinct, right_distinct)

    indices = np.flatnonzero(keep)
    rows = np.column_stack(
        (*_segment_bounds(indices, edges), pairs[indices], min_distinct[indices])
    )
    joined = _derived_histogram(rows.tolist(), max_buckets)
    denominator = left.total * right.total
    selectivity = total_pairs / denominator if denominator > 0 else 0.0
    return HistogramJoinResult(total_pairs, selectivity, joined)


def join_histograms_reference(
    left: Histogram, right: Histogram, max_buckets: int | None = None
) -> HistogramJoinResult:
    """Pure-Python :func:`join_histograms` (oracle / benchmark baseline)."""
    if left.is_empty() or right.is_empty():
        return HistogramJoinResult(0.0, 0.0, Histogram([]))
    segments = _merged_segments([left, right])
    left_freq, left_distinct = _assign_mass(left, segments)
    right_freq, right_distinct = _assign_mass(right, segments)

    rows: list[list[float]] = []
    total_pairs = 0.0
    for index, segment in enumerate(segments):
        d1, d2 = left_distinct[index], right_distinct[index]
        if d1 <= 0.0 or d2 <= 0.0:
            continue
        pairs = left_freq[index] * right_freq[index] / max(d1, d2)
        if pairs <= 0.0:
            continue
        total_pairs += pairs
        rows.append([segment.low, segment.high, float(pairs), float(min(d1, d2))])

    denominator = left.total * right.total
    selectivity = total_pairs / denominator if denominator > 0 else 0.0
    joined = _derived_histogram(rows, max_buckets)
    return HistogramJoinResult(total_pairs, selectivity, joined)


def _derived_histogram(rows: list[list[float]], max_buckets: int | None) -> Histogram:
    """A join's derived histogram from its kept segments, as mutable
    ``[low, high, frequency, distinct]`` rows in domain order: touching
    buckets merged, compacted to ``max_buckets``, adopted by
    :meth:`Histogram.from_arrays` — four arrays and no :class:`Bucket`."""
    rows = _merge_touching(rows)
    if max_buckets is not None:
        rows = _compact_rows(rows, max_buckets)
    return _from_rows(rows)


def _from_rows(rows: list[list[float]], null_count: float = 0.0) -> Histogram:
    columns = np.array(rows, dtype=np.float64).reshape(-1, 4).T.copy()
    return Histogram.from_arrays(*columns, null_count=null_count)


def _merge_touching(rows: list[list[float]]) -> list[list[float]]:
    """Merge a degenerate bucket into an adjacent span sharing its edge.

    Join output alternates point and span buckets over the same dense
    region; folding points into neighbouring spans halves the bucket count
    without changing range estimates materially.
    """
    merged: list[list[float]] = []
    for row in rows:
        if merged:
            previous = merged[-1]
            if previous[1] == row[0] and (
                previous[0] == previous[1] or row[0] == row[1]
            ):
                previous[1] = row[1]
                previous[2] += row[2]
                previous[3] += row[3]
                continue
        merged.append(row)
    return merged


def compact(histogram: Histogram, max_buckets: int) -> Histogram:
    """Reduce ``histogram`` to at most ``max_buckets`` buckets by greedily
    merging the adjacent pair with the smallest combined frequency.

    Tie-break contract: among pairs of equal combined frequency the one
    at the lowest position merges first, and a merged bucket's frequency
    and distinct count are ``left + right`` in that order — the result
    is a deterministic function of the input, bit for bit.
    """
    if max_buckets < 1:
        raise ValueError("max_buckets must be >= 1")
    rows = np.column_stack(histogram.bucket_arrays()).tolist()
    return _from_rows(_compact_rows(rows, max_buckets), histogram.null_count)


def _compact_rows(rows: list[list[float]], max_buckets: int) -> list[list[float]]:
    """:func:`compact` on bucket rows (mutated), in O(n log n).

    The greedy rule rescans every adjacent pair per merge.  Here the pair
    sums sit in a heap keyed ``(sum, left position)`` — ties pop lowest
    position first — over a linked list of live buckets; a merged bucket
    keeps its left part's position, so position order stays domain order.
    A merge changes only the two pairs around it, which are pushed
    afresh; the entries they supersede are dropped when popped: an entry
    is current iff its left bucket is alive and still sums with its right
    neighbour to the recorded value (a superseded entry that passes says
    exactly what the current one says).
    """
    count = len(rows)
    if count <= max_buckets:
        return rows
    following = list(range(1, count + 1))  # ``count`` == no right neighbour
    previous = list(range(-1, count - 1))
    heap = [(rows[i][2] + rows[i + 1][2], i) for i in range(count - 1)]
    heapq.heapify(heap)
    for _ in range(count - max_buckets):
        while True:
            combined, at = heapq.heappop(heap)
            left, right_at = rows[at], following[at]
            if (
                left is not None
                and right_at != count
                and left[2] + rows[right_at][2] == combined
            ):
                break
        right = rows[right_at]
        left[1] = right[1]
        left[2] = combined
        left[3] += right[3]
        rows[right_at] = None
        after = following[at] = following[right_at]
        if after != count:
            previous[after] = at
            heapq.heappush(heap, (combined + rows[after][2], at))
        before = previous[at]
        if before >= 0:
            heapq.heappush(heap, (rows[before][2] + combined, before))
    return [row for row in rows if row is not None]


def variation_distance(first: Histogram, second: Histogram) -> float:
    """Histogram approximation of the paper's diff formula:
    ``1/2 * sum_x |f1(x)/N1 - f2(x)/N2|`` over the (non-NULL) domain.

    Returns a value in [0, 1]; 0 when the normalized distributions agree on
    every aligned segment.
    """
    if first.is_empty() and second.is_empty():
        return 0.0
    if first.is_empty() or second.is_empty():
        return 1.0
    edges = _merged_edges([first, second])
    first_freq, _ = _assign_mass_arrays(first, edges)
    second_freq, _ = _assign_mass_arrays(second, edges)
    p = first_freq / first.frequency
    q = second_freq / second.frequency
    return float(np.abs(p - q).sum() / 2.0)


def variation_distance_reference(first: Histogram, second: Histogram) -> float:
    """Pure-Python :func:`variation_distance` (oracle / benchmark baseline)."""
    if first.is_empty() and second.is_empty():
        return 0.0
    if first.is_empty() or second.is_empty():
        return 1.0
    segments = _merged_segments([first, second])
    first_freq, _ = _assign_mass(first, segments)
    second_freq, _ = _assign_mass(second, segments)
    p = first_freq / first.frequency
    q = second_freq / second.frequency
    return float(np.abs(p - q).sum() / 2.0)
