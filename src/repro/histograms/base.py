"""Histogram core: buckets, the histogram container, range estimation.

All histograms in this library are unidimensional, matching the paper's
experimental setup ("each SIT is a unidimensional maxDiff histogram with at
most 200 buckets").  A histogram summarizes the multiset of non-NULL values
of one attribute over some relation (a base table, or the result of a SIT's
generating query expression).

Buckets carry ``(low, high, frequency, distinct)``.  Ranges are estimated
with the standard continuous-uniformity assumption inside buckets; equality
predicates use the ``frequency / distinct`` uniform-spread assumption.

A histogram *is* its four bucket columns: float64 arrays, for the
vectorized algebra of :mod:`repro.histograms.operations`, and the same
columns as plain float lists (``_rows``), built the first time a scalar
estimator walks them.  :class:`Bucket` is the definition of the
per-bucket arithmetic and what builders hand :class:`Histogram`; no
histogram keeps one, and only the reference kernels read ``.buckets``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Bucket:
    """One histogram bucket over the closed value interval [low, high]."""

    low: float
    high: float
    frequency: float
    distinct: float

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError(f"bucket with low {self.low} > high {self.high}")
        if self.frequency < 0 or self.distinct < 0:
            raise ValueError("bucket frequency/distinct must be non-negative")

    @property
    def width(self) -> float:
        return self.high - self.low

    def overlap_fraction(self, low: float, high: float) -> float:
        """Fraction of this bucket's mass inside [low, high].

        Point buckets (width 0) are either fully inside or outside.  Wide
        buckets use continuous uniformity.
        """
        if high < self.low or low > self.high:
            return 0.0
        if self.width == 0.0:
            return 1.0
        lo = max(low, self.low)
        hi = min(high, self.high)
        if lo > hi:
            return 0.0
        fraction = (hi - lo) / self.width
        # Any non-empty intersection covers at least one distinct value's
        # share of the bucket; taking the max keeps range estimates
        # monotone in the query range while handling point lookups.
        floor = 1.0 / max(self.distinct, 1.0)
        return min(max(fraction, floor), 1.0)


class Histogram:
    """An immutable sequence of ordered, non-overlapping buckets.

    ``total`` is the number of tuples in the summarized relation *including*
    NULLs; ``null_count`` of them fall outside every bucket.  Selectivities
    are fractions of ``total`` (NULL never satisfies a predicate), matching
    SQL semantics.

    The state is the four bucket columns and three numbers, in slots: a
    histogram keeps no :class:`Bucket` object and no ``__dict__``.
    """

    __slots__ = (
        "null_count",
        "_lows",
        "_highs",
        "_freqs",
        "_dists",
        "_frequency",
        "total",
        "_rows",
    )

    def __init__(self, buckets: list[Bucket], null_count: float = 0.0):
        # each Bucket checked its own bounds and mass when it was built;
        # the order check is the one ``from_arrays`` makes
        columns = np.array(
            [(b.low, b.high, b.frequency, b.distinct) for b in buckets],
            dtype=np.float64,
        )
        self._adopt(*columns.reshape(-1, 4).T.copy(), null_count)

    @classmethod
    def from_arrays(
        cls,
        lows: np.ndarray,
        highs: np.ndarray,
        frequencies: np.ndarray,
        distincts: np.ndarray,
        null_count: float = 0.0,
    ) -> "Histogram":
        """Build a histogram directly over bucket arrays — zero copy.

        The arrays are adopted as-is (read-only shared-memory views
        included; :mod:`repro.cluster.shm` is the consumer), so N
        processes can serve from one snapshot's bucket memory.
        """
        histogram = object.__new__(cls)
        histogram._adopt(lows, highs, frequencies, distincts, null_count)
        return histogram

    def _adopt(self, lows, highs, frequencies, distincts, null_count) -> None:
        """Check and take the four columns: the one construction path.

        ``_frequency`` is summed element-by-element in bucket order, a
        left fold over the column's floats, so a histogram over the same
        columns — built, loaded or attached — estimates bit-identically.
        """
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        frequencies = np.asarray(frequencies, dtype=np.float64)
        distincts = np.asarray(distincts, dtype=np.float64)
        if not (lows.shape == highs.shape == frequencies.shape == distincts.shape):
            raise ValueError("bucket arrays must have identical shapes")
        if lows.size and bool(np.any(lows[1:] < highs[:-1])):
            raise ValueError("buckets must be ordered and non-overlapping")
        self.null_count = float(null_count)
        self._lows = lows
        self._highs = highs
        self._freqs = frequencies
        self._dists = distincts
        self._frequency = float(sum(frequencies.tolist()))
        self.total = self._frequency + self.null_count

    def __getattr__(self, name: str):
        # only an unset ``_rows`` slot lands here; everything else is a
        # genuine miss
        if name == "_rows":
            # (lows, highs, frequencies, distincts) as plain float lists:
            # what the scalar estimators walk, built on their first walk
            rows = (
                self._lows.tolist(),
                self._highs.tolist(),
                self._freqs.tolist(),
                self._dists.tolist(),
            )
            self._rows = rows
            return rows
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    @property
    def buckets(self) -> tuple[Bucket, ...]:
        """The buckets as :class:`Bucket` objects, built afresh on every
        read and never kept — for the reference kernels and tests; no
        estimate, encoding or kernel on a serving path reads them."""
        return tuple(map(Bucket, *self._rows))

    def bucket_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(lows, highs, frequencies, distincts)`` as float64 arrays.

        The histogram's own columns, not copies; the vectorized
        histogram algebra in :mod:`repro.histograms.operations` consumes
        these.
        """
        return self._lows, self._highs, self._freqs, self._dists

    # ------------------------------------------------------------------
    @property
    def bucket_count(self) -> int:
        return len(self._lows)

    @property
    def frequency(self) -> float:
        """Total non-NULL tuple count."""
        return self._frequency

    @property
    def distinct(self) -> float:
        return float(sum(self._dists.tolist()))

    @property
    def low(self) -> float:
        if not len(self._lows):
            raise ValueError("empty histogram has no domain")
        return float(self._lows[0])

    @property
    def high(self) -> float:
        if not len(self._highs):
            raise ValueError("empty histogram has no domain")
        return float(self._highs[-1])

    def is_empty(self) -> bool:
        return self._frequency == 0.0  # no buckets sum to 0.0 too

    # ------------------------------------------------------------------
    def estimate_range_count(self, low: float, high: float) -> float:
        """Estimated number of tuples with value in the closed [low, high]."""
        if low > high or self._frequency == 0.0:
            return 0.0
        # A bucket ending below ``low`` overlaps nothing and would add
        # exactly ``+ 0.0`` to a non-negative count, so the fold starts at
        # the first bucket with ``high >= low`` and is bit-identical to
        # the walk over every bucket.
        rows = self._rows
        return _overlap_fold(rows, rows[2], bisect_left(rows[1], low), low, high)

    def estimate_range_selectivity(self, low: float, high: float) -> float:
        """Estimated ``Sel(low <= a <= high)`` as a fraction of ``total``."""
        total = self.total
        if total == 0.0:
            return 0.0
        selectivity = self.estimate_range_count(low, high) / total
        return selectivity if selectivity < 1.0 else 1.0  # min(1.0, ·)

    def estimate_range_distinct(self, low: float, high: float) -> float:
        """Estimated number of distinct values in the closed [low, high]."""
        if low > high or self._frequency == 0.0:
            return 0.0
        rows = self._rows
        return _overlap_fold(rows, rows[3], 0, low, high)

    def estimate_equality_count(self, value: float) -> float:
        """Estimated number of tuples equal to ``value``."""
        for low, high, frequency, distinct in zip(*self._rows):
            if low <= value <= high:
                if distinct <= 0:
                    return 0.0
                return frequency / distinct
        return 0.0

    # ------------------------------------------------------------------
    def scale(self, factor: float) -> "Histogram":
        """A copy with all frequencies (and null count) multiplied."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        # the same float product per bucket as ``b.frequency * factor``
        return Histogram.from_arrays(
            self._lows,
            self._highs,
            self._freqs * factor,
            self._dists,
            null_count=self.null_count * factor,
        )

    def __repr__(self) -> str:
        return (
            f"Histogram(buckets={self.bucket_count}, total={self.total:g}, "
            f"nulls={self.null_count:g})"
        )


_INF = math.inf


def _overlap_fold(
    rows: tuple[list, list, list, list],
    weights: list,
    start: int,
    low: float,
    high: float,
) -> float:
    """The sum of each bucket's weight times the fraction of it inside
    ``[low, high]``, over the buckets from ``start`` on, stopping at the
    first bucket that begins above ``high``.

    The overlap arithmetic is :meth:`Bucket.overlap_fraction` written
    inline — the same float operations in the same order, ``max`` / ``min``
    spelled as the comparisons they make — so the sum is bit-identical
    to the fold over ``Bucket`` objects.  A bucket wholly inside the
    range adds its weight directly: its fraction is ``(hi - lo) / width
    == width / width``, exactly ``1.0``, as long as the width is finite
    (an infinite width makes it ``inf / inf``, NaN, as it always has).
    """
    lows, highs, _, distincts = rows
    total = 0.0
    for i in range(start, len(lows)):
        bucket_low = lows[i]
        if bucket_low > high:
            break
        bucket_high = highs[i]
        width = bucket_high - bucket_low
        if low <= bucket_low and bucket_high <= high and width < _INF:
            total += weights[i]
            continue
        # overlap_fraction; ``high < bucket_low`` is the break above
        if low > bucket_high:
            total += weights[i] * 0.0
            continue
        if width == 0.0:
            total += weights[i]  # · 1.0
            continue
        lo = bucket_low if bucket_low > low else low  # max(low, bucket_low)
        hi = bucket_high if bucket_high < high else high  # min(high, bucket_high)
        if lo > hi:
            total += weights[i] * 0.0
            continue
        fraction = (hi - lo) / width
        distinct = distincts[i]
        floor = 1.0 / (1.0 if 1.0 > distinct else distinct)  # max(distinct, 1.0)
        if floor > fraction:  # max(fraction, floor)
            fraction = floor
        if 1.0 < fraction:  # min(·, 1.0)
            fraction = 1.0
        total += weights[i] * fraction
    return total


def values_and_frequencies(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Distinct non-NULL values, their frequencies, and the NULL count."""
    values = np.asarray(values, dtype=np.float64)
    nulls = int(np.isnan(values).sum())
    clean = values[~np.isnan(values)]
    if clean.size == 0:
        return np.empty(0), np.empty(0, dtype=np.int64), nulls
    distinct, counts = np.unique(clean, return_counts=True)
    return distinct, counts, nulls
