"""Construction of SITs from a database.

SIT construction executes the generating query expression and builds a
histogram of the requested attribute over the result.  A SIT *pool*
typically contains many SITs sharing the same expression (one per
attribute), so :class:`SITBuilder` groups requests by expression and
executes each expression exactly once.  Each column's values are counted
once: the histogram and ``diff_H`` share the count, and a base column's
count is memoized beside the base SITs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.core.predicates import Attribute, PredicateSet, tables_of
from repro.engine.database import Database
from repro.engine.executor import Executor
from repro.histograms.base import Histogram, ValueCounts, values_and_frequencies
from repro.histograms.maxdiff import DEFAULT_MAX_BUCKETS, build_maxdiff
from repro.stats.diff import approximate_diff, exact_diff
from repro.stats.sit import SIT

#: ``(values, max_buckets) -> Histogram``; the values arrive as their
#: :class:`~repro.histograms.base.ValueCounts`, which
#: :func:`~repro.histograms.base.values_and_frequencies` passes through
HistogramBuilder = Callable[[np.ndarray | ValueCounts, int], Histogram]


@dataclass
class SITBuilder:
    """Builds SITs (and plain base histograms) from a :class:`Database`.

    Parameters
    ----------
    database:
        Source data.
    histogram_builder:
        Bucketing scheme; defaults to MaxDiff(V,A) as in the paper.
    max_buckets:
        Paper default: 200.
    exact_diffs:
        When True (default) ``diff_H`` is computed exactly from tuples; when
        False it is approximated from the two histograms (the cheaper
        variant the paper describes for production use).
    """

    database: Database
    histogram_builder: HistogramBuilder = build_maxdiff
    max_buckets: int = DEFAULT_MAX_BUCKETS
    exact_diffs: bool = True
    _executor: Executor = field(init=False)
    _base_cache: dict[Attribute, SIT] = field(init=False, default_factory=dict)
    _base_counts: dict[Attribute, ValueCounts | np.ndarray] = field(
        init=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        self._executor = Executor(self.database)

    # ------------------------------------------------------------------
    def build_base(self, attribute: Attribute) -> SIT:
        """A base-table histogram as a SIT with an empty expression."""
        cached = self._base_cache.get(attribute)
        if cached is not None:
            return cached
        histogram = self._summarize(self._base_values(attribute))
        sit = SIT(attribute, frozenset(), histogram, diff=0.0)
        self._base_cache[attribute] = sit
        return sit

    def invalidate_table(self, table: str) -> int:
        """Evict cached state built from ``table`` (its data changed).

        Drops the memoized base SITs and base value counts on the
        table's attributes and the executor's component-count memos
        touching it, so the next build reads current data.  Returns the
        number of evicted base SITs.

        A refresh may build on another thread meanwhile, so each memo is
        scanned through a copy of its keys (``list(dict)`` copies them
        without yielding the GIL): scanning the live dict would raise
        ``dictionary changed size during iteration`` when a build
        inserts into it.
        """
        stale = [a for a in list(self._base_cache) if a.table == table]
        for attribute in stale:
            self._base_cache.pop(attribute, None)
        for attribute in list(self._base_counts):
            if attribute.table == table:
                self._base_counts.pop(attribute, None)
        counts = self._executor._count_cache
        for component in list(counts):
            if table in tables_of(component):
                counts.pop(component, None)
        return len(stale)

    def build(self, attribute: Attribute, expression: PredicateSet) -> SIT:
        """Build ``SIT(attribute | expression)``."""
        return self.build_many(expression, [attribute])[0]

    def build_many(
        self, expression: PredicateSet, attributes: Iterable[Attribute]
    ) -> list[SIT]:
        """Build several SITs over one expression with a single execution."""
        expression = frozenset(expression)
        attributes = list(attributes)
        if not expression:
            return [self.build_base(attribute) for attribute in attributes]
        result = self._executor.execute(expression)
        expression_tables = tables_of(expression)
        sits = []
        for attribute in attributes:
            if attribute.table in expression_tables:
                values = self._count(result.column(attribute))
            else:
                # Unreferenced table: its distribution over the cross
                # product equals the base distribution.
                values = self._base_values(attribute)
            histogram = self._summarize(values)
            diff = self._compute_diff(attribute, values, histogram)
            sits.append(SIT(attribute, expression, histogram, diff=diff))
        return sits

    # ------------------------------------------------------------------
    def _count(self, values: np.ndarray) -> ValueCounts | np.ndarray:
        """A column as :meth:`_summarize` and :meth:`_compute_diff` take
        it: its value count, made once and shared by both."""
        return values_and_frequencies(values)

    def _base_values(self, attribute: Attribute) -> ValueCounts | np.ndarray:
        """:meth:`_count` of the attribute's base column, memoized until
        :meth:`invalidate_table` evicts it."""
        values = self._base_counts.get(attribute)
        if values is None:
            values = self._count(self.database.column(attribute))
            self._base_counts[attribute] = values
        return values

    def _summarize(self, values: ValueCounts | np.ndarray) -> Histogram:
        """Turn the expression-result values into the SIT's statistic.

        Subclasses may summarize differently (e.g. from a sample); the
        returned histogram's ``total`` must still estimate the full result
        cardinality.
        """
        return self.histogram_builder(values, self.max_buckets)

    def _compute_diff(
        self,
        attribute: Attribute,
        values: ValueCounts | np.ndarray,
        histogram: Histogram,
    ) -> float:
        if self.exact_diffs:
            return exact_diff(self._base_values(attribute), values)
        base = self.build_base(attribute)
        return approximate_diff(base.histogram, histogram)
