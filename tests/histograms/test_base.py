"""Unit tests for histogram buckets and range estimation."""

import numpy as np
import pytest

from repro.histograms.base import Bucket, Histogram, values_and_frequencies


class TestBucket:
    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Bucket(5, 4, 1, 1)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            Bucket(0, 1, -1, 1)

    def test_point_bucket_overlap(self):
        bucket = Bucket(5, 5, 10, 1)
        assert bucket.overlap_fraction(0, 10) == 1.0
        assert bucket.overlap_fraction(6, 10) == 0.0

    def test_partial_overlap_uniform(self):
        bucket = Bucket(0, 10, 100, 10)
        assert bucket.overlap_fraction(0, 5) == pytest.approx(0.5)
        assert bucket.overlap_fraction(-5, 15) == 1.0

    def test_point_query_on_wide_bucket(self):
        bucket = Bucket(0, 10, 100, 10)
        # A single point matches about one distinct value's share.
        assert bucket.overlap_fraction(5, 5) == pytest.approx(0.1)


class TestHistogram:
    def make(self) -> Histogram:
        return Histogram(
            [Bucket(0, 9, 50, 10), Bucket(10, 10, 30, 1), Bucket(11, 20, 20, 5)],
            null_count=10,
        )

    def test_totals(self):
        histogram = self.make()
        assert histogram.frequency == 100
        assert histogram.total == 110
        assert histogram.distinct == 16
        assert histogram.bucket_count == 3

    def test_overlapping_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram([Bucket(0, 5, 1, 1), Bucket(4, 9, 1, 1)])

    def test_domain_bounds(self):
        histogram = self.make()
        assert histogram.low == 0
        assert histogram.high == 20

    def test_empty_histogram(self):
        histogram = Histogram([], null_count=3)
        assert histogram.is_empty()
        assert histogram.estimate_range_count(0, 100) == 0.0
        with pytest.raises(ValueError):
            _ = histogram.low

    def test_full_range_count(self):
        histogram = self.make()
        assert histogram.estimate_range_count(0, 20) == pytest.approx(100)

    def test_range_selectivity_includes_nulls_in_denominator(self):
        histogram = self.make()
        assert histogram.estimate_range_selectivity(0, 20) == pytest.approx(
            100 / 110
        )

    def test_partial_range(self):
        histogram = self.make()
        # Half of the first bucket.
        assert histogram.estimate_range_count(0, 4.5) == pytest.approx(25)

    def test_spike_bucket_range(self):
        histogram = self.make()
        assert histogram.estimate_range_count(10, 10) == pytest.approx(30)

    def test_equality_estimate_uses_distinct(self):
        histogram = self.make()
        assert histogram.estimate_equality_count(10) == pytest.approx(30)
        assert histogram.estimate_equality_count(15) == pytest.approx(4)
        assert histogram.estimate_equality_count(100) == 0.0

    def test_empty_range(self):
        histogram = self.make()
        assert histogram.estimate_range_count(5, 4) == 0.0

    def test_scale(self):
        histogram = self.make().scale(2.0)
        assert histogram.frequency == 200
        assert histogram.null_count == 20
        with pytest.raises(ValueError):
            histogram.scale(-1)

    def test_selectivity_capped_at_one(self):
        histogram = Histogram([Bucket(0, 0, 5, 1)])
        assert histogram.estimate_range_selectivity(-1, 1) <= 1.0


class TestAnswersFromArrays:
    """Shape questions never materialize a ``from_arrays`` histogram's
    ``Bucket`` objects (cluster shared memory, join / compact output)."""

    def lazy_and_eager(self) -> tuple[Histogram, Histogram]:
        rows = [(0.0, 9.0, 50.0, 0.1), (10.0, 10.0, 30.0, 0.2), (11.0, 20.0, 20.0, 0.3)]
        lazy = Histogram.from_arrays(*(np.array(column) for column in zip(*rows)))
        return lazy, Histogram([Bucket(*row) for row in rows])

    def test_same_answers_without_buckets(self):
        lazy, eager = self.lazy_and_eager()
        assert lazy.bucket_count == eager.bucket_count == 3
        assert lazy.is_empty() is eager.is_empty() is False
        assert (lazy.low, lazy.high) == (eager.low, eager.high) == (0.0, 20.0)
        # the same left fold as summing over Bucket objects, to the bit
        assert lazy.distinct == eager.distinct == 0.1 + 0.2 + 0.3
        assert "buckets" not in vars(lazy)
        assert lazy.buckets == eager.buckets  # still there when asked for

    def test_empty(self):
        empty = Histogram.from_arrays(*(np.empty(0) for _ in range(4)), null_count=2.0)
        assert empty.is_empty() and empty.bucket_count == 0 and empty.distinct == 0.0
        with pytest.raises(ValueError):
            _ = empty.high
        assert "buckets" not in vars(empty)


class TestValuesAndFrequencies:
    def test_counts_and_nulls(self):
        values = np.array([1.0, 2.0, 2.0, np.nan, 3.0, np.nan])
        distinct, counts, nulls = values_and_frequencies(values)
        assert distinct.tolist() == [1.0, 2.0, 3.0]
        assert counts.tolist() == [1, 2, 1]
        assert nulls == 2

    def test_all_null(self):
        distinct, counts, nulls = values_and_frequencies(
            np.array([np.nan, np.nan])
        )
        assert distinct.size == 0
        assert nulls == 2

    def test_empty(self):
        distinct, counts, nulls = values_and_frequencies(np.array([]))
        assert distinct.size == 0
        assert nulls == 0
