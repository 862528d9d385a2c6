"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics
from typing import Sequence


def rank_of(quantile: float, count: int) -> int:
    """Index of the nearest-rank ``quantile`` in ``count`` sorted samples."""
    return min(count - 1, int(quantile * count))


def percentile(values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile: always a value that was measured."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[rank_of(quantile, len(ordered))]


def samples_beyond(quantile: float, count: int) -> int:
    """How many samples lie above the reported ``quantile``."""
    return count - 1 - rank_of(quantile, count)


def typical(repeats: Sequence[Sequence[float]]) -> list[float]:
    """What each piece of work costs: ``repeats`` holds the same pieces
    timed again and again (the requests of a pass, pass after pass), and
    each counts with the median of its times.  A burst of host noise
    spoils a sample of a request, not the request."""
    return [statistics.median(times) for times in zip(*repeats, strict=True)]


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the driver's steadiness measure."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0
