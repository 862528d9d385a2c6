"""Unidimensional histograms (MaxDiff, equi-depth, equi-width) and the
histogram algebra (range estimation, equi-join, variation distance)."""

from repro.histograms.base import Bucket, Histogram, ValueCounts, values_and_frequencies
from repro.histograms.equidepth import build_equidepth
from repro.histograms.equiwidth import build_equiwidth
from repro.histograms.maxdiff import DEFAULT_MAX_BUCKETS, build_maxdiff
from repro.histograms.multidim import GridHistogram2D, build_grid2d
from repro.histograms.wavelet import build_wavelet
from repro.histograms.operations import (
    HistogramJoinResult,
    compact,
    join_histograms,
    variation_distance,
)

__all__ = [
    "Bucket",
    "DEFAULT_MAX_BUCKETS",
    "Histogram",
    "HistogramJoinResult",
    "ValueCounts",
    "GridHistogram2D",
    "build_equidepth",
    "build_equiwidth",
    "build_grid2d",
    "build_maxdiff",
    "build_wavelet",
    "compact",
    "join_histograms",
    "values_and_frequencies",
    "variation_distance",
]
