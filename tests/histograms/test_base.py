"""Unit tests for histogram buckets and range estimation."""

import copy
import pickle

import numpy as np
import pytest

from repro.core.errors import NIndError
from repro.core.get_selectivity import GetSelectivity
from repro.core.predicates import FilterPredicate
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
    """Shape questions answer from the columns and build no ``Bucket``
    (a loaded catalog file, join / compact output); a histogram has no
    ``__dict__`` to keep one in."""

    def lazy_and_eager(self) -> tuple[Histogram, Histogram]:
        rows = [(0.0, 9.0, 50.0, 0.1), (10.0, 10.0, 30.0, 0.2), (11.0, 20.0, 20.0, 0.3)]
        lazy = Histogram.from_arrays(*(np.array(column) for column in zip(*rows)))
        return lazy, Histogram([Bucket(*row) for row in rows])

    def test_same_answers_without_buckets(self, bucket_births):
        lazy, eager = self.lazy_and_eager()
        built = len(bucket_births)
        assert lazy.bucket_count == eager.bucket_count == 3
        assert lazy.is_empty() is eager.is_empty() is False
        assert (lazy.low, lazy.high) == (eager.low, eager.high) == (0.0, 20.0)
        # the same left fold as summing over Bucket objects, to the bit
        assert lazy.distinct == eager.distinct == 0.1 + 0.2 + 0.3
        assert len(bucket_births) == built
        assert not hasattr(lazy, "__dict__") and not hasattr(eager, "__dict__")
        assert lazy.buckets == eager.buckets  # still there when asked for
        assert lazy.buckets is not lazy.buckets  # built per read, never kept

    def test_empty(self, bucket_births):
        empty = Histogram.from_arrays(*(np.empty(0) for _ in range(4)), null_count=2.0)
        assert empty.is_empty() and empty.bucket_count == 0 and empty.distinct == 0.0
        with pytest.raises(ValueError):
            _ = empty.high
        assert not hasattr(empty, "__dict__") and not bucket_births


class TestFromArrays:
    """Four columns in, a histogram out: the path a loaded catalog file
    and the histogram kernels build through."""

    def test_matches_bucket_construction(self, two_table_pool):
        for sit in two_table_pool:
            original = sit.histogram
            rebuilt = Histogram.from_arrays(
                *original.bucket_arrays(), null_count=original.null_count
            )
            assert rebuilt.total == original.total
            assert rebuilt.frequency == original.frequency
            assert rebuilt.buckets == original.buckets

    def test_validates_shapes_and_order(self):
        with pytest.raises(ValueError, match="identical shapes"):
            Histogram.from_arrays(
                np.zeros(2), np.ones(2), np.ones(2), np.ones(3)
            )
        with pytest.raises(ValueError, match="ordered"):
            Histogram.from_arrays(
                np.array([0.0, 1.0]),
                np.array([5.0, 2.0]),
                np.ones(2),
                np.ones(2),
            )

    @pytest.mark.parametrize(
        "row, message",
        [
            ((5.0, 4.0, 1.0, 1.0), "bucket with low > high"),
            ((0.0, 1.0, -1.0, 1.0), "bucket frequency/distinct must be non-negative"),
            ((0.0, 1.0, 1.0, -1.0), "bucket frequency/distinct must be non-negative"),
        ],
    )
    def test_refuses_what_a_bucket_refuses(self, row, message):
        """The checks ``Bucket`` makes run on whole columns: a column
        built histogram refuses the bucket a ``Bucket`` refuses."""
        good = (10.0, 12.0, 3.0, 2.0)
        columns = [np.array(column) for column in zip(good, row)]
        with pytest.raises(ValueError):
            Bucket(*row)
        with pytest.raises(ValueError, match=f"^{message}$"):
            Histogram.from_arrays(*columns)

    @pytest.mark.parametrize(
        "row, message",
        [
            ((np.nan, 1.0, 1.0, 1.0), "bucket bound is NaN"),
            ((0.0, np.nan, 1.0, 1.0), "bucket bound is NaN"),
            ((0.0, 1.0, np.nan, 1.0), "bucket frequency/distinct must be finite"),
            ((0.0, 1.0, 1.0, np.nan), "bucket frequency/distinct must be finite"),
            ((0.0, 1.0, np.inf, 1.0), "bucket frequency/distinct must be finite"),
            ((0.0, 1.0, 1.0, np.inf), "bucket frequency/distinct must be finite"),
        ],
        ids=[
            "nan-low",
            "nan-high",
            "nan-frequency",
            "nan-distinct",
            "inf-frequency",
            "inf-distinct",
        ],
    )
    def test_nan_and_inf_are_refused_like_a_bucket(self, row, message):
        """Every comparison with NaN is false, so the order checks alone
        let it through; a bucket and a column built histogram both
        refuse it, and an infinite frequency or distinct count."""
        good = (10.0, 12.0, 3.0, 2.0)
        columns = [np.array(column) for column in zip(good, row)]
        with pytest.raises(ValueError, match=f"^{message}$"):
            Bucket(*row)
        with pytest.raises(ValueError, match=f"^{message}$"):
            Histogram.from_arrays(*columns)

    @pytest.mark.parametrize("null_count", [np.nan, np.inf])
    def test_a_non_finite_null_count_is_refused(self, null_count):
        with pytest.raises(ValueError, match="^null_count must be finite$"):
            Histogram.from_arrays(
                np.array([0.0]),
                np.array([1.0]),
                np.array([2.0]),
                np.array([1.0]),
                null_count=null_count,
            )

    def test_unknown_attribute_still_raises(self):
        histogram = Histogram.from_arrays(
            np.array([0.0]), np.array([1.0]), np.array([2.0]), np.array([1.0])
        )
        with pytest.raises(AttributeError):
            histogram.not_a_real_attribute

    def test_estimates_match_eagerly_built(self):
        lows = np.array([0.0, 10.0, 20.0])
        highs = np.array([10.0, 20.0, 30.0])
        freqs = np.array([5.0, 7.0, 3.0])
        dists = np.array([5.0, 7.0, 3.0])
        lazy = Histogram.from_arrays(lows, highs, freqs, dists)
        eager = Histogram(
            [Bucket(*row) for row in zip(lows, highs, freqs, dists)]
        )
        for low, high in ((0.0, 30.0), (5.0, 12.0), (25.0, 99.0)):
            assert lazy.estimate_range_selectivity(
                low, high
            ) == eager.estimate_range_selectivity(low, high)


def same_histogram(got: Histogram, expected: Histogram) -> bool:
    """Equal columns and numbers, bit for bit, in a slotted histogram."""
    return (
        type(got) is Histogram
        and not hasattr(got, "__dict__")
        and all(
            a.dtype == b.dtype and a.tobytes() == b.tobytes()
            for a, b in zip(got.bucket_arrays(), expected.bucket_arrays())
        )
        and (got.null_count, got.frequency, got.total)
        == (expected.null_count, expected.frequency, expected.total)
    )


COPIES = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


class TestCopies:
    """A slotted histogram survives ``pickle`` / ``copy`` / ``deepcopy``,
    walked or not, and so does a result whose matches carry one."""

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_histogram(self, how):
        fresh = TestHistogram().make()
        walked = TestHistogram().make()
        walked.estimate_range_count(0, 12)  # builds the row cache
        for histogram in (fresh, walked):
            copied = COPIES[how](histogram)
            assert same_histogram(copied, histogram)
            for low, high in ((0, 4.5), (10, 10), (-1, 25), (12, 3)):
                assert copied.estimate_range_selectivity(low, high) == (
                    histogram.estimate_range_selectivity(low, high)
                )
            assert copied.estimate_equality_count(15) == 4.0
            assert copied.buckets == histogram.buckets

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_result_carrying_a_histogram(
        self, how, two_table_pool, two_table_join, two_table_attrs
    ):
        predicates = frozenset(
            {two_table_join, FilterPredicate(two_table_attrs["Ra"], 0, 20)}
        )
        result = GetSelectivity(two_table_pool, NIndError())(predicates)
        copied = COPIES[how](result)
        assert (copied.selectivity, copied.error, copied.coverage) == (
            result.selectivity,
            result.error,
            result.coverage,
        )
        assert copied.decomposition == result.decomposition
        pairs = [
            (got.sit.histogram, expected.sit.histogram)
            for got_match, match in zip(copied.matches, result.matches)
            for got, expected in zip(
                got_match.attribute_matches, match.attribute_matches
            )
        ]
        assert pairs
        for got, expected in pairs:
            assert same_histogram(got, expected)


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
