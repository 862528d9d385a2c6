"""``estimate_range_count`` is held to the plain walk over every bucket
(:func:`full_walk_count`): it enters the fold by ``bisect`` at the first
bucket the range can touch, which must not move a single bit.  ``==``
(not approx) across random histograms and adversarial ranges: inverted,
point, zero-width buckets, edge-exact, fully-outside.
"""

from __future__ import annotations

import random

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
