"""Two-dimensional grid histograms.

Assumption 1 of the paper (minimality of histograms) argues that when a
selectivity factor is separable, two unidimensional histograms are at
least as accurate as — and no larger than — one multidimensional
histogram over the combined attributes.  This module provides the 2-D
histogram needed to *test* that claim empirically (see
``tests/histograms/test_multidim.py`` and the Assumption 1 ablation), and
doubles as a correlation-aware statistic for intra-table attribute pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridHistogram2D:
    """An equi-width 2-D grid over two attributes.

    ``frequencies[i, j]`` counts tuples with the first attribute in cell
    ``i`` and the second in cell ``j``.  Rows with a NULL in either
    attribute are excluded from the grid but counted in ``total``.
    """

    x_edges: np.ndarray
    y_edges: np.ndarray
    frequencies: np.ndarray
    total: float

    @property
    def frequency(self) -> float:
        return float(self.frequencies.sum())

    def estimate_box_count(
        self, x_low: float, x_high: float, y_low: float, y_high: float
    ) -> float:
        """Estimated tuples inside the closed box, with continuous
        uniformity inside cells."""
        if x_low > x_high or y_low > y_high:
            return 0.0
        x_fractions = _axis_fractions(self.x_edges, x_low, x_high)
        y_fractions = _axis_fractions(self.y_edges, y_low, y_high)
        return float(x_fractions @ self.frequencies @ y_fractions)

    def estimate_box_selectivity(
        self, x_low: float, x_high: float, y_low: float, y_high: float
    ) -> float:
        if self.total <= 0:
            return 0.0
        return min(
            1.0, self.estimate_box_count(x_low, x_high, y_low, y_high) / self.total
        )


def _axis_fractions(edges: np.ndarray, low: float, high: float) -> np.ndarray:
    """Per-cell overlap fraction of [low, high] along one axis."""
    cells = len(edges) - 1
    fractions = np.zeros(cells)
    for index in range(cells):
        cell_low, cell_high = edges[index], edges[index + 1]
        width = cell_high - cell_low
        lo = max(low, cell_low)
        hi = min(high, cell_high)
        if hi < lo:
            continue
        if width <= 0:
            fractions[index] = 1.0
        elif hi == lo:
            # Point query: one unit of the (integer-ish) domain's share.
            fractions[index] = min(1.0, 1.0 / max(width, 1.0))
        else:
            fractions[index] = min(1.0, (hi - lo) / width)
    return fractions


def build_grid2d(
    x_values: np.ndarray,
    y_values: np.ndarray,
    cells_per_axis: int = 14,
) -> GridHistogram2D:
    """Build an equi-width 2-D grid histogram of two aligned columns.

    ``cells_per_axis**2`` should be compared against twice a 1-D
    histogram's bucket budget when testing Assumption 1's space argument
    (14x14 = 196 cells ~ two 100-bucket histograms).
    """
    if cells_per_axis < 1:
        raise ValueError("cells_per_axis must be >= 1")
    x_values = np.asarray(x_values, dtype=np.float64)
    y_values = np.asarray(y_values, dtype=np.float64)
    if x_values.shape != y_values.shape:
        raise ValueError("columns must be aligned (same length)")
    total = float(len(x_values))
    valid = ~(np.isnan(x_values) | np.isnan(y_values))
    x_clean = x_values[valid]
    y_clean = y_values[valid]
    if x_clean.size == 0:
        edges = np.array([0.0, 1.0])
        return GridHistogram2D(edges, edges, np.zeros((1, 1)), total)
    x_edges = _edges(x_clean, cells_per_axis)
    y_edges = _edges(y_clean, cells_per_axis)
    frequencies, _, _ = np.histogram2d(x_clean, y_clean, bins=(x_edges, y_edges))
    return GridHistogram2D(x_edges, y_edges, frequencies, total)


def _edges(values: np.ndarray, cells: int) -> np.ndarray:
    low, high = float(values.min()), float(values.max())
    if low == high:
        high = low + 1.0
    return np.linspace(low, high, cells + 1)
