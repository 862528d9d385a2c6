"""The one feedback store: what was served, and what was true.

Every served estimation can be *observed*: the predicate set, the
estimated cardinality the service answered with, and the names of the
conditioned SITs that matched during decomposition.  The observations
go into the :class:`FeedbackStore`'s bounded *window* over recent
traffic.  Beside the window the store keeps *truth*: engine-exact
cardinalities per predicate set (LEO-style, related work [25]),
recorded lazily — at most once per distinct set, by whoever needs it
(the tuning tick, a :class:`FeedbackEstimator`) — so the serving path
never pays for an engine execution.

Truth is exact at recording time but goes stale under updates; the
catalog attaches the store to its one invalidation path
(:meth:`~repro.catalog.catalog.StatisticsCatalog.attach_feedback`) and
every table update drops the truth touching that table.  Both halves
are bounded by one ``capacity``: the window drops its oldest record,
truth evicts its least-recently-*used* entry (a lookup hit refreshes
recency).  One lock guards both, because the serving threads observe,
the tuning thread reads and records truth, and a writer's thread
invalidates.

Record sequence numbers are deterministic (a monotone counter, no
clocks), which keeps the candidate/safety split and the greedy search
replayable: same window, same seed -> same tuning outcome.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.core.predicates import (
    PredicateSet,
    connected_components,
    tables_of,
)
from repro.engine.executor import Executor
from repro.engine.expressions import Query
from repro.estimators.sit import SITEstimator

#: default bound on the window and on the truth entries
DEFAULT_CAPACITY = 1024


@dataclass(frozen=True)
class FeedbackRecord:
    """One observed estimation: what was asked and what was answered."""

    #: monotone position in the window (deterministic, no timestamps)
    seq: int
    #: the served predicate set (the feedback key)
    predicates: PredicateSet
    #: the cardinality the estimator answered with
    estimated_cardinality: float
    #: names (``str(sit)``) of conditioned SITs used by the decomposition
    matched_sits: tuple[str, ...]
    #: tables the predicate set touches
    tables: frozenset[str]


class FeedbackStore:
    """Served observations (a bounded window, arrival order) plus
    engine-exact truth per predicate set (LRU-bounded), thread-safe."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._window: list[FeedbackRecord] = []
        #: most-recently-used last (dicts keep insertion order; a hit
        #: re-inserts to refresh recency)
        self._truth: dict[PredicateSet, int] = {}
        self._next_seq = 0
        self.appended = 0
        self.dropped = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- the window of served observations -----------------------------
    def observe(
        self,
        predicates: PredicateSet,
        estimated_cardinality: float,
        matched_sits: tuple[str, ...] = (),
    ) -> FeedbackRecord:
        """Record one served estimation; past ``capacity`` the oldest
        record goes and is counted in ``dropped`` — the loop tunes
        against *recent* traffic by design."""
        key = frozenset(predicates)
        with self._lock:
            record = FeedbackRecord(
                seq=self._next_seq,
                predicates=key,
                estimated_cardinality=float(estimated_cardinality),
                matched_sits=tuple(sorted(matched_sits)),
                tables=tables_of(key),
            )
            self._next_seq += 1
            self.appended += 1
            self._window.append(record)
            overflow = len(self._window) - self.capacity
            if overflow > 0:
                del self._window[:overflow]
                self.dropped += overflow
        return record

    def records(self) -> tuple[FeedbackRecord, ...]:
        """A point-in-time snapshot of the window, oldest first."""
        with self._lock:
            return tuple(self._window)

    def clear(self) -> int:
        """Empty the window (e.g. after an accepted reconfiguration made
        old estimates unrepresentative); returns the number dropped."""
        with self._lock:
            count = len(self._window)
            self._window.clear()
        return count

    def __len__(self) -> int:
        """Records in the window."""
        with self._lock:
            return len(self._window)

    # -- engine-exact truth --------------------------------------------
    def record_truth(self, predicates: PredicateSet, cardinality: int) -> None:
        """Store an observed exact cardinality for a predicate set,
        evicting the least-recently-used entry past ``capacity``."""
        if cardinality < 0:
            raise ValueError("cardinality must be non-negative")
        key = frozenset(predicates)
        with self._lock:
            self._truth.pop(key, None)
            self._truth[key] = int(cardinality)
            while len(self._truth) > self.capacity:
                del self._truth[next(iter(self._truth))]
                self.evictions += 1

    def lookup_truth(self, predicates: PredicateSet) -> int | None:
        """The recorded cardinality, or None; counts a hit or a miss,
        and a hit refreshes the entry's recency."""
        key = frozenset(predicates)
        with self._lock:
            value = self._truth.pop(key, None)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
                self._truth[key] = value
        return value

    def observe_truth(
        self, executor: Executor, predicates: PredicateSet
    ) -> int:
        """Execute once (outside the lock), record the truth, return it."""
        cardinality = executor.cardinality(frozenset(predicates))
        self.record_truth(predicates, cardinality)
        return cardinality

    def invalidate_table(self, table: str) -> int:
        """Drop all truth touching ``table`` (its data changed); returns
        how many entries were dropped."""
        with self._lock:
            stale = [p for p in self._truth if table in tables_of(p)]
            for predicates in stale:
                del self._truth[predicates]
        return len(stale)

    def counters(self) -> dict[str, float]:
        """Fill and traffic of both halves, one consistent read."""
        with self._lock:
            return {
                "feedback_records": float(len(self._window)),
                "feedback_appended": float(self.appended),
                "feedback_dropped": float(self.dropped),
                "truth_entries": float(len(self._truth)),
                "truth_hits": float(self.hits),
                "truth_misses": float(self.misses),
                "truth_evictions": float(self.evictions),
            }


@dataclass
class FeedbackEstimator:
    """A cardinality estimator that prefers observed truth.

    The paper contrasts its approach (several context-dependent
    statistics per attribute) with LEO's single adjusted histogram;
    this wrapper puts the feedback idea *on top of* SITs, so the two
    are complementary.  Resolution order for a query over predicates
    ``P``:

    1. ``P`` recorded -> the exact observed cardinality;
    2. every connected component of ``P`` recorded -> the exact product
       (separable decomposition holds with no assumptions);
    3. otherwise the wrapped SIT-based estimate, with any recorded
       components substituted for their estimated factors.
    """

    base: SITEstimator
    feedback: FeedbackStore = field(default_factory=FeedbackStore)

    @property
    def database(self):
        return self.base.database

    def cardinality(self, query: Query) -> float:
        """Feedback-first cardinality (see class docstring for the order)."""
        predicates = query.predicates
        if not predicates:
            return float(self.database.cross_product_size(query.tables))
        exact = self.feedback.lookup_truth(predicates)
        unreferenced = query.tables - tables_of(predicates)
        multiplier = float(self.database.cross_product_size(unreferenced))
        if exact is not None:
            return exact * multiplier
        cardinality = multiplier
        for component in connected_components(predicates):
            observed = self.feedback.lookup_truth(component)
            if observed is not None:
                cardinality *= observed
            else:
                cardinality *= self.base.subquery_cardinality(
                    query, component
                )
        return cardinality

    def observe(self, executor: Executor, query: Query) -> int:
        """Execute ``query`` and feed the truth back (what a LEO-style
        monitor does after plan execution)."""
        return self.feedback.observe_truth(executor, query.predicates)


__all__ = [
    "DEFAULT_CAPACITY",
    "FeedbackEstimator",
    "FeedbackRecord",
    "FeedbackStore",
]
