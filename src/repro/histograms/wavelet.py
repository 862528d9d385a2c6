"""Haar-wavelet synopses as drop-in histogram builders.

The paper's abstract notes SITs generalize beyond histograms to "other
statistical estimators, such as wavelets or samples".  This module
provides the wavelet instantiation: the attribute's frequency
distribution is binned onto a dyadic grid, Haar-decomposed, thresholded
to the ``B`` largest normalized coefficients (the classic L2-optimal
synopsis), and reconstructed into a :class:`Histogram` so the rest of the
framework — matching, histogram joins, ``diff_H`` — works unchanged.

``build_wavelet`` follows the ``HistogramBuilder`` signature, with the
bucket budget interpreted as the coefficient budget.
"""

from __future__ import annotations

import math

import numpy as np

from repro.histograms.base import Histogram, point_histogram, values_and_frequencies

#: grid resolution cap (cells); must be a power of two
MAX_GRID_CELLS = 1024


def haar_decompose(frequencies: np.ndarray) -> list[np.ndarray]:
    """Unnormalized Haar decomposition.

    Returns ``[averages, details_coarsest, ..., details_finest]`` where
    ``averages`` has length 1.  Input length must be a power of two.
    """
    n = len(frequencies)
    if n & (n - 1):
        raise ValueError("input length must be a power of two")
    current = np.asarray(frequencies, dtype=np.float64)
    details: list[np.ndarray] = []
    while len(current) > 1:
        pairs = current.reshape(-1, 2)
        averages = pairs.mean(axis=1)
        details.append((pairs[:, 0] - pairs[:, 1]) / 2.0)
        current = averages
    details.reverse()
    return [current, *details]


def haar_reconstruct(levels: list[np.ndarray]) -> np.ndarray:
    """Inverse of :func:`haar_decompose`."""
    current = np.asarray(levels[0], dtype=np.float64)
    for details in levels[1:]:
        expanded = np.empty(len(current) * 2)
        expanded[0::2] = current + details
        expanded[1::2] = current - details
        current = expanded
    return current


def threshold_levels(levels: list[np.ndarray], keep: int) -> list[np.ndarray]:
    """Zero all but the ``keep`` largest *normalized* detail coefficients.

    Normalization weights a detail at resolution ``2^l`` by ``sqrt`` of
    its support, which makes magnitude thresholding L2-optimal for the
    Haar basis.  The overall average is always kept (it carries the total
    mass).
    """
    if keep < 0:
        raise ValueError("keep must be non-negative")
    weighted: list[tuple[float, int, int]] = []
    for level_index, details in enumerate(levels[1:], start=1):
        support = 2 ** (len(levels) - level_index)
        weight = math.sqrt(support)
        for position, value in enumerate(details):
            weighted.append((abs(value) * weight, level_index, position))
    weighted.sort(reverse=True)
    kept = {(level, position) for _, level, position in weighted[:keep]}
    out = [levels[0].copy()]
    for level_index, details in enumerate(levels[1:], start=1):
        filtered = np.where(
            [(level_index, position) in kept for position in range(len(details))],
            details,
            0.0,
        )
        out.append(filtered)
    return out


def build_wavelet(values: np.ndarray, max_coefficients: int = 200) -> Histogram:
    """Build a Haar-synopsis histogram of ``values`` (NaN treated as NULL)."""
    if max_coefficients < 1:
        raise ValueError("max_coefficients must be >= 1")
    counted = values_and_frequencies(values)
    distinct, counts, nulls = counted
    if distinct.size <= max_coefficients:
        return point_histogram(counted)

    cells = MAX_GRID_CELLS
    while cells > 2 * max_coefficients and cells > 2:
        cells //= 2
    low, high = float(distinct[0]), float(distinct[-1])
    edges = np.linspace(low, high, cells + 1)
    cell_of = np.clip(
        np.searchsorted(edges, distinct, side="right") - 1, 0, cells - 1
    )
    frequencies = np.bincount(cell_of, weights=counts, minlength=cells)
    distinct_per_cell = np.bincount(cell_of, minlength=cells)

    levels = haar_decompose(frequencies)
    kept = threshold_levels(levels, max_coefficients - 1)
    approximate = np.maximum(haar_reconstruct(kept), 0.0)
    total = counts.sum()
    mass = approximate.sum()
    if mass > 0:
        approximate *= total / mass

    # one bucket per cell with mass: its distinct values where it has
    # any, else its share of them, at least one and at most its mass
    cell = np.flatnonzero(approximate > 0.0)
    frequency = approximate[cell]
    estimated = np.maximum(
        1.0, np.minimum(float(distinct.size) * (frequency / total), frequency)
    )
    seen = distinct_per_cell[cell]
    return Histogram.from_arrays(
        edges[cell],
        edges[cell + 1],
        frequency,
        np.where(seen > 0, seen.astype(np.float64), estimated),
        null_count=nulls,
    )
