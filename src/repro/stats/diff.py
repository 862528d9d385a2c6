"""The ``diff_H`` discrepancy measure of Section 3.5.

``diff_H`` for ``H = SIT(R.a | Q)`` is half the L1 distance between the
normalized frequency distribution of ``R.a`` on the base table and on
``sigma_Q(T^x)``:

    diff_H = 1/2 * sum_x | f(R, x)/|R|  -  f(T', x)/|T'| |

The paper computes it either exactly from tuples or approximately by
manipulating the two histograms; both are provided.  NULLs are excluded
from both distributions (a NULL join key never reaches the expression
result anyway).
"""

from __future__ import annotations

import numpy as np

from repro.histograms.base import Histogram, ValueCounts, values_and_frequencies
from repro.histograms.operations import variation_distance


def exact_diff(
    base_values: np.ndarray | ValueCounts, expression_values: np.ndarray | ValueCounts
) -> float:
    """Exact total-variation distance between two value multisets, each
    given as its values or as their :class:`ValueCounts`."""
    base_distinct, base_counts, _ = values_and_frequencies(base_values)
    expr_distinct, expr_counts, _ = values_and_frequencies(expression_values)
    if base_counts.size == 0 and expr_counts.size == 0:
        return 0.0
    if base_counts.size == 0 or expr_counts.size == 0:
        return 1.0
    domain = _sorted_union(base_distinct, expr_distinct)
    p = np.zeros(domain.size)
    q = np.zeros(domain.size)
    p[np.searchsorted(domain, base_distinct)] = base_counts / base_counts.sum()
    q[np.searchsorted(domain, expr_distinct)] = expr_counts / expr_counts.sum()
    return float(np.abs(p - q).sum() / 2.0)


def _sorted_union(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``np.union1d`` of two sorted distinct arrays: ``right``'s values
    missing from ``left``, inserted in order.  (``np.union1d`` would
    deduplicate through ``np.unique``, which imports ``numpy.ma``.)"""
    at = np.searchsorted(left, right)
    present = at < left.size
    present[present] = left[at[present]] == right[present]
    return np.insert(left, at[~present], right[~present])


def approximate_diff(base_histogram: Histogram, sit_histogram: Histogram) -> float:
    """Histogram-level approximation of ``diff_H`` (no raw tuples needed)."""
    return min(1.0, variation_distance(base_histogram, sit_histogram))
