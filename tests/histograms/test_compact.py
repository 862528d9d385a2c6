"""``compact``'s O(n log n) merge equals the greedy rule it replaced.

The greedy loop — rescan every adjacent pair, merge the first one with
the smallest combined frequency — left ``src/`` and lives on here as the
oracle.  The heap implementation must reproduce it bucket for bucket and
bit for bit, on inputs chosen to be full of ties (the tie-break contract:
lowest position first).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.histograms.base import Bucket, Histogram
from repro.histograms.operations import compact


def compact_greedy(histogram: Histogram, max_buckets: int) -> Histogram:
    """The original quadratic ``compact`` (verbatim): the test oracle."""
    if max_buckets < 1:
        raise ValueError("max_buckets must be >= 1")
    buckets = list(histogram.buckets)
    while len(buckets) > max_buckets:
        best = min(
            range(len(buckets) - 1),
            key=lambda i: buckets[i].frequency + buckets[i + 1].frequency,
        )
        first, second = buckets[best], buckets[best + 1]
        buckets[best : best + 2] = [
            Bucket(
                first.low,
                second.high,
                first.frequency + second.frequency,
                first.distinct + second.distinct,
            )
        ]
    return Histogram(buckets, null_count=histogram.null_count)


@st.composite
def tied_histograms(draw) -> Histogram:
    """Ordered buckets with few distinct frequencies (ties everywhere):
    integer, zero and a couple of fractional frequencies; point, touching
    and gapped buckets."""
    count = draw(st.integers(0, 40))
    frequencies = st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 0.1, 0.2, 0.3])
    buckets = []
    low = float(draw(st.integers(-5, 5)))
    for _ in range(count):
        high = low + draw(st.sampled_from([0.0, 0.0, 1.0, 2.5]))  # point or span
        frequency = draw(frequencies)
        distinct = draw(st.sampled_from([0.0, 1.0, 2.0, 0.5]))
        buckets.append(Bucket(low, high, frequency, distinct))
        low = high + draw(st.sampled_from([0.0, 0.0, 1.0, 4.0]))  # touch or gap
    return Histogram(buckets, null_count=float(draw(st.sampled_from([0, 0, 7]))))


def assert_identical(actual: Histogram, expected: Histogram) -> None:
    for mine, theirs in zip(actual.bucket_arrays(), expected.bucket_arrays()):
        assert mine.tolist() == theirs.tolist()  # exact: no tolerance
    assert actual.buckets == expected.buckets
    assert actual.total == expected.total
    assert actual.frequency == expected.frequency
    assert actual.null_count == expected.null_count


class TestCompactEqualsGreedy:
    @given(histogram=tied_histograms(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_bucket_for_bucket(self, histogram, data):
        n = histogram.bucket_count
        budgets = sorted({1, max(1, n - 1), max(1, n), n + 1, max(1, n // 2)})
        budgets.append(data.draw(st.integers(1, max(1, n))))
        for max_buckets in budgets:
            assert_identical(
                compact(histogram, max_buckets),
                compact_greedy(histogram, max_buckets),
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_float_frequencies_at_join_output_size(self, seed):
        # the production shape: ~400 merged join segments down to 200
        rng = np.random.default_rng(seed)
        edges = np.cumsum(rng.integers(0, 3, 800)).astype(float)  # sorted, repeats
        frequencies = rng.choice([0.0, 0.25, 1.0, 1e-3, 17.5], 400) * rng.integers(1, 4, 400)
        histogram = Histogram(
            [
                Bucket(low, high, float(f), float(d))
                for low, high, f, d in zip(
                    edges[0::2], edges[1::2], frequencies, rng.integers(0, 4, 400)
                )
            ],
            null_count=3.0,
        )
        for max_buckets in (1, 50, 200, 399):
            assert_identical(
                compact(histogram, max_buckets),
                compact_greedy(histogram, max_buckets),
            )

    def test_all_equal_sums_merge_left_to_right(self):
        histogram = Histogram([Bucket(float(i), float(i), 1.0, 1.0) for i in range(6)])
        # every pair sums to 2.0: the lowest position goes first, and the
        # merged bucket (now 2.0) is then heavier than its right neighbours
        assert [
            (b.low, b.high, b.frequency) for b in compact(histogram, 4).buckets
        ] == [(0.0, 1.0, 2.0), (2.0, 3.0, 2.0), (4.0, 4.0, 1.0), (5.0, 5.0, 1.0)]

    def test_result_does_not_materialize_buckets(self):
        histogram = Histogram([Bucket(float(i), float(i), 1.0, 1.0) for i in range(9)])
        assert "buckets" not in vars(compact(histogram, 3))
