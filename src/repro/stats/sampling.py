"""Sample-based SITs.

The paper notes that SITs need not be histograms: "the same ideas can be
applied to other statistical estimators, such as wavelets or samples".
This module provides the sample instantiation, in the spirit of join
synopses (Acharya et al., SIGMOD 1999): instead of scanning the full
expression result, a SIT is built from a uniform row sample of it, and
the sampled histogram is scaled back to the estimated result cardinality
so the rest of the framework (matching, histogram joins, ``diff_H``)
works unchanged.

Sampling trades accuracy for construction cost; the
``bench_sampling_sits`` benchmark quantifies the trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.histograms.base import Histogram, ValueCounts, values_and_frequencies
from repro.stats.builder import SITBuilder


def chao1_distinct(values: np.ndarray | ValueCounts) -> float:
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


@dataclass
class SamplingSITBuilder(SITBuilder):
    """Builds SITs from uniform samples of their expression results.

    Parameters (in addition to :class:`SITBuilder`'s):

    sample_fraction:
        Fraction of the expression result to sample (Bernoulli-style via
        a seeded permutation).
    min_sample_rows:
        Small results are taken whole: sampling below this row count
        would add variance without saving anything.
    sampling_seed:
        Seed for the sampling generator (independent of data seeds).
    """

    sample_fraction: float = 0.1
    min_sample_rows: int = 200
    sampling_seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")
        self._rng = np.random.default_rng(self.sampling_seed)

    # ------------------------------------------------------------------
    def _sample(self, values: np.ndarray) -> tuple[np.ndarray, float]:
        """A uniform sample of ``values`` and the inverse sampling rate."""
        size = len(values)
        target = int(round(size * self.sample_fraction))
        if size <= self.min_sample_rows or target >= size:
            return values, 1.0
        target = max(target, self.min_sample_rows)
        chosen = self._rng.choice(size, size=target, replace=False)
        return values[chosen], size / target

    def _count(self, values: np.ndarray) -> np.ndarray:
        # each use draws its own sample from the rows, so the rows are
        # what the hooks receive
        return np.asarray(values, dtype=np.float64)

    def _summarize(self, values: np.ndarray) -> Histogram:
        sample, scale = self._sample(values)
        if scale == 1.0:
            return self.histogram_builder(sample, self.max_buckets)
        return self._continuous_histogram(sample, scale)

    def _continuous_histogram(self, sample: np.ndarray, scale: float) -> Histogram:
        """Gap-free equi-depth buckets over the sample, scaled up.

        A sample misses most distinct values, so exact point buckets would
        drop unseen values from the domain entirely (catastrophic for key
        columns feeding histogram joins).  Contiguous range buckets model
        unseen values inside the sampled range; per-bucket frequencies
        scale by the sampling rate and distinct counts by the Chao1
        population estimate.
        """
        counted = values_and_frequencies(sample)
        distinct, counts, nulls = counted
        if distinct.size == 0:
            return Histogram.from_arrays(*np.empty((4, 0)), null_count=nulls * scale)
        ratio = max(1.0, chao1_distinct(counted) / distinct.size)
        bucket_count = min(self.max_buckets, distinct.size)
        cumulative = np.cumsum(counts)
        total = float(cumulative[-1])
        starts = []
        start = 0
        for index in range(bucket_count):
            if start >= distinct.size:
                break
            goal = total * (index + 1) / bucket_count
            stop = int(np.searchsorted(cumulative, goal, side="left")) + 1
            stop = min(max(stop, start + 1), distinct.size)
            if index == bucket_count - 1:
                stop = distinct.size
            starts.append(start)
            start = stop
        starts = np.array(starts, dtype=np.intp)
        stops = np.append(starts, distinct.size)[1:]
        mass = np.add.reduceat(counts, starts).astype(np.float64) * scale
        # Extend each bucket to the next one's first value so the sampled
        # domain is covered without gaps (unseen values land in a bucket).
        return Histogram.from_arrays(
            distinct[starts],
            distinct[np.minimum(stops, distinct.size - 1)],
            mass,
            np.maximum(np.minimum(mass, (stops - starts) * ratio), 1.0),
            null_count=nulls * scale,
        )

    def _compute_diff(self, attribute, values, histogram) -> float:
        # Estimate diff from the sample too: the estimator is consistent
        # and avoids touching the full result twice.
        sample, _ = self._sample(values)
        return super()._compute_diff(attribute, sample, histogram)
