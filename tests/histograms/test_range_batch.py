"""``estimate_range_count`` is held to the plain walk over every
``Bucket`` object (:func:`full_walk_count`, which calls
``Bucket.overlap_fraction``): it walks the histogram's float rows with
that arithmetic written inline, enters the fold by ``bisect`` at the
first bucket the range can touch, and adds a wholly-covered bucket's
frequency directly — none of which may move a single bit.  ``==`` (not
approx) across random histograms and adversarial ranges: inverted,
point, zero-width buckets, edge-exact, fully-outside; and, bit for bit
(NaN and signed zeros included), over hand-built edge cases: runs of
covered buckets, point buckets at either range end, ranges equal to
bucket bounds, infinite query bounds, signed zeros, infinite or
overflowing bucket widths, and read-only bucket arrays.
"""

from __future__ import annotations

import itertools
import math
import random
import struct

import numpy as np

from repro.histograms.base import Bucket, Histogram


def random_histogram(rng: random.Random) -> Histogram:
    count = rng.randint(1, 6)
    edges = sorted(rng.sample(range(0, 801), 2 * count))
    buckets = []
    for i in range(count):
        low, high = float(edges[2 * i]), float(edges[2 * i + 1])
        if rng.random() < 0.2:
            high = low  # zero-width (point) bucket
        frequency = float(rng.randint(1, 1000))
        distinct = float(
            rng.randint(1, max(1, int(min(frequency, high - low + 1))))
        )
        buckets.append(Bucket(low, high, frequency, distinct))
    return Histogram(buckets, null_count=float(rng.choice([0, 0, 0, 7])))


def random_ranges(rng: random.Random, histogram: Histogram, count: int):
    """Ranges that stress every branch of the scalar path."""
    lows, highs = [], []
    edges = [b.low for b in histogram.buckets] + [
        b.high for b in histogram.buckets
    ]
    for _ in range(count):
        kind = rng.random()
        if kind < 0.15 and edges:  # exactly on bucket edges
            low = rng.choice(edges)
            high = rng.choice(edges)
            if high < low and rng.random() < 0.5:
                low, high = high, low
        elif kind < 0.3:  # point range
            low = high = float(rng.randint(-50, 850))
        elif kind < 0.4:  # inverted: must yield exactly 0.0
            low = float(rng.randint(0, 850))
            high = low - float(rng.randint(1, 100))
        elif kind < 0.5:  # fully outside
            low, high = 900.0 + rng.random(), 1000.0
        else:  # generic overlap
            low = float(rng.randint(-50, 820))
            high = low + float(rng.randint(0, 400))
        lows.append(low)
        highs.append(high)
    return np.array(lows), np.array(highs)


def full_walk_count(histogram: Histogram, low: float, high: float) -> float:
    """``estimate_range_count`` folding over every bucket from the first
    — the reference the bisected start must equal bit for bit."""
    if low > high or histogram.is_empty():
        return 0.0
    count = 0.0
    for bucket in histogram.buckets:
        if bucket.low > high:
            break
        count += bucket.frequency * bucket.overlap_fraction(low, high)
    return count


def fractional_histogram(rng: random.Random, count: int) -> Histogram:
    """Non-integer frequencies, so a changed summation order would show."""
    edges = sorted(rng.sample(range(0, 801), 2 * count))
    buckets = []
    for i in range(count):
        low, high = float(edges[2 * i]), float(edges[2 * i + 1])
        if rng.random() < 0.2:
            high = low
        frequency = rng.uniform(0.0, 1000.0) if rng.random() < 0.9 else 0.0
        buckets.append(Bucket(low, high, frequency, rng.uniform(0.0, 50.0)))
    return Histogram(buckets, null_count=float(rng.choice([0, 0, 7])))


class TestRangeCountStartsAtTheRange:
    def test_bisected_start_equals_the_full_walk(self):
        rng = random.Random(20261003)
        cases = 0
        for round_ in range(80):
            count = 1 if round_ % 8 == 0 else rng.randint(2, 40)
            built = fractional_histogram(rng, count)
            attached = Histogram.from_arrays(
                *built.bucket_arrays(), null_count=built.null_count
            )
            lows, highs = random_ranges(rng, built, 30)
            extremes = [
                (-np.inf, np.inf),
                (-np.inf, built.low),
                (built.high, np.inf),
                (built.high + 1.0, np.inf),
            ]
            for low, high in [*zip(lows.tolist(), highs.tolist()), *extremes]:
                expected = full_walk_count(built, low, high)
                for histogram in (built, attached):
                    assert histogram.estimate_range_count(low, high) == expected
                    cases += 1
        assert cases >= 1000

    def test_edge_cases_are_the_bucket_walk_bit_for_bit(self):
        """The hand-built cases of :data:`EDGE_HISTOGRAMS`, every pair of
        bounds, on built, attached and read-only forms."""
        cases = 0
        for buckets in EDGE_HISTOGRAMS.values():
            built, forms = edge_forms(buckets)
            bounds = query_bounds(buckets)
            for low, high in itertools.product(bounds, repeat=2):
                expected = bits(full_walk_count(built, low, high))
                for histogram in forms:
                    assert bits(histogram.estimate_range_count(low, high)) == expected
                    cases += 1
        assert cases >= 5000


# ----------------------------------------------------------------------
# Edge cases, bit for bit
# ----------------------------------------------------------------------
INF = math.inf

#: bucket lists that reach every branch of ``overlap_fraction`` and the
#: covered-bucket shortcut, each as ``(low, high, frequency, distinct)``
EDGE_HISTOGRAMS = {
    # a run of touching buckets: any wide range covers most of them
    "covered run": [(float(10 * i), float(10 * i + 10), 3.1 * i + 0.7, 4.0) for i in range(8)],
    # point buckets between and at the ends of wide ones
    "point buckets": [(0.0, 0.0, 5.5, 1.0), (1.0, 9.0, 40.3, 7.0), (9.0, 9.0, 2.2, 1.0),
                      (12.0, 30.0, 17.9, 0.4), (30.0, 30.0, 8.0, 1.0)],
    # signed zeros on bucket bounds
    "signed zeros": [(-5.0, -0.0, 10.0, 3.0), (0.0, 0.0, 4.0, 1.0), (0.0, 6.0, 9.5, 2.0)],
    "negative zero point": [(-3.0, -1.0, 1.5, 2.0), (-0.0, -0.0, 7.0, 1.0), (2.0, 4.0, 3.0, 3.0)],
    # infinite widths: open-ended buckets, and a width that overflows
    "infinite ends": [(-INF, -10.0, 12.0, 5.0), (-10.0, 10.0, 30.0, 9.0), (10.0, INF, 8.0, 2.0)],
    "overflowing width": [(-1e308, 1e308, 100.0, 50.0)],
    "point at infinity": [(0.0, 1.0, 2.0, 1.0), (INF, INF, 3.0, 1.0)],
    # zero and sub-one mass
    "empty buckets": [(0.0, 5.0, 0.0, 0.0), (5.0, 10.0, 1e-300, 0.25), (10.0, 10.0, 0.0, 0.0)],
}


def bits(value: float) -> bytes:
    """A float's bit pattern: tells NaN from NaN-free and -0.0 from 0.0."""
    return struct.pack("<d", value)


def query_bounds(buckets) -> list[float]:
    """Every bucket edge and its neighbours, midpoints, both zeros and
    both infinities."""
    bounds = {-INF, INF, 0.0, -0.0, 1e308, -1e308}
    for low, high, _, _ in buckets:
        for edge in (low, high):
            bounds.add(edge)
            if math.isfinite(edge):
                bounds.update({edge - 0.5, edge + 0.5, math.nextafter(edge, INF)})
        if math.isfinite(low) and math.isfinite(high):
            bounds.add((low + high) / 2.0)
    # -0.0 and 0.0 are one set member; keep both spellings
    return sorted(bounds) + [-0.0, 0.0]


def full_walk_distinct(histogram: Histogram, low: float, high: float) -> float:
    if low > high or histogram.is_empty():
        return 0.0
    distinct = 0.0
    for bucket in histogram.buckets:
        if bucket.low > high:
            break
        distinct += bucket.distinct * bucket.overlap_fraction(low, high)
    return distinct


def bucket_equality(histogram: Histogram, value: float) -> float:
    for bucket in histogram.buckets:
        if bucket.low <= value <= bucket.high:
            if bucket.distinct <= 0:
                return 0.0
            return bucket.frequency / bucket.distinct
    return 0.0


def read_only_views(built: Histogram) -> Histogram:
    """The histogram over read-only views into one buffer, as a cluster
    shard attaches a shared-memory snapshot."""
    buffer = np.concatenate(built.bucket_arrays())
    buffer.setflags(write=False)
    views = np.split(buffer, 4)
    assert not any(view.flags.writeable for view in views)
    return Histogram.from_arrays(*views, null_count=built.null_count)


def edge_forms(buckets) -> tuple[Histogram, list[Histogram]]:
    """The Bucket-built histogram, and it with its arrays adopted
    directly and as read-only views."""
    built = Histogram([Bucket(*bucket) for bucket in buckets], null_count=1.0)
    attached = Histogram.from_arrays(*built.bucket_arrays(), null_count=1.0)
    return built, [built, attached, read_only_views(built)]


class TestRowWalkEdgeCases:
    def test_selectivity_is_the_capped_count_bit_for_bit(self):
        for buckets in EDGE_HISTOGRAMS.values():
            built, forms = edge_forms(buckets)
            for low, high in itertools.product(query_bounds(buckets), repeat=2):
                expected = min(1.0, full_walk_count(built, low, high) / built.total)
                for histogram in forms:
                    got = histogram.estimate_range_selectivity(low, high)
                    assert bits(got) == bits(expected)

    def test_distinct_and_equality_are_the_bucket_walks_bit_for_bit(self):
        for buckets in EDGE_HISTOGRAMS.values():
            built, forms = edge_forms(buckets)
            bounds = query_bounds(buckets)
            for low, high in itertools.product(bounds, repeat=2):
                expected = bits(full_walk_distinct(built, low, high))
                for histogram in forms:
                    assert bits(histogram.estimate_range_distinct(low, high)) == expected
            for value in bounds:
                expected = bits(bucket_equality(built, value))
                for histogram in forms:
                    assert bits(histogram.estimate_equality_count(value)) == expected

    def test_a_covered_run_needs_no_division(self):
        """The shortcut's premise: a wholly covered bucket of finite width
        has fraction exactly 1.0; an infinite width makes it NaN."""
        for low, high, _, _ in itertools.chain(*EDGE_HISTOGRAMS.values()):
            fraction = Bucket(low, high, 1.0, 1.0).overlap_fraction(low, high)
            if math.isfinite(high - low):
                assert fraction == 1.0
            else:
                assert math.isnan(fraction)

    def test_the_walks_build_no_bucket_objects(self, bucket_births):
        forms = edge_forms(EDGE_HISTOGRAMS["covered run"])[1]
        del bucket_births[:]
        for histogram in forms:
            histogram.estimate_range_count(5.0, 55.0)
            histogram.estimate_range_distinct(5.0, 55.0)
            histogram.estimate_equality_count(20.0)
            assert not hasattr(histogram, "__dict__")
        assert not bucket_births

    def test_rows_over_buckets_hold_the_buckets_floats(self):
        """``.buckets`` is built over the rows' own floats: one copy of
        every bound and count, whichever view is read."""
        built, _ = edge_forms(EDGE_HISTOGRAMS["point buckets"])
        built.estimate_range_count(0.0, 10.0)
        for row, field in zip(built._rows, ("low", "high", "frequency", "distinct")):
            assert all(
                value is getattr(bucket, field)
                for value, bucket in zip(row, built.buckets)
            )
