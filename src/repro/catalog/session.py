"""Snapshot-pinned estimation sessions: many requests, one estimator.

An :class:`EstimationSession` is the unit of *serving*: it pins one
:class:`~repro.catalog.catalog.CatalogSnapshot` and answers any number of
estimation requests off it.  The underlying
:class:`~repro.core.get_selectivity.GetSelectivity` keeps its memo for
as long as the session lives, so requests share work the way Section 4
describes: a sub-plan of an earlier query is a memo lookup.  (Its
estimate cache is keyed by the ``(P', Q)`` pairs that won a memo node,
so it answers only after the memo has been emptied — ``MEMO_LIMIT``
or ``reset()``.)  The session
keeps no accounting of its own beyond the request count: its
:class:`~repro.obs.snapshot.StatsSnapshot` is the estimator's ledger
(never reset underneath it) plus ``counters.queries`` and the
``catalog`` block with the snapshot/catalog versions it is keyed on.

Snapshot isolation: a catalog refresh or table update never touches a
running session's statistics (the catalog publishes new pool objects
instead of mutating published ones).  :attr:`is_current` reports whether
the pinned snapshot still matches the catalog, so a serving layer can
rotate sessions at its own pace.

Threading contract (the serving layer relies on this):

* **Pinned-snapshot invariant** — the session's :attr:`pool` is the
  *object* published in the pinned snapshot and is never re-resolved:
  ``session.pool is session.snapshot.pool`` for the session's whole
  life.  Because the catalog is copy-on-write, a concurrent
  ``catalog.refresh()`` / ``notify_table_update`` can only publish *new*
  pool objects; it can never mutate the membership of the one a session
  estimates against.  (:meth:`assert_pinned` checks the invariant and is
  exercised by the concurrency regression tests.)
* **Hand-off, not sharing** — a session may be *handed between threads*
  for read-only estimation (worker A finishes a batch, worker B picks
  the session up), but must never be driven by two threads at once: the
  DP memo, its counters and the shared caches are mutated per query.
  This is *enforced*: estimation entry points take a non-blocking owner
  lock and raise :class:`RuntimeError` on concurrent use instead of
  corrupting state silently.
"""

from __future__ import annotations

import threading
from typing import Mapping

from repro.core.errors import ErrorFunction
from repro.core.get_selectivity import EstimationResult
from repro.core.plancache import PlanCache
from repro.core.predicates import PredicateSet, tables_of
from repro.engine.database import Database
from repro.engine.expressions import Query
from repro.obs.metrics import MetricsRegistry
from repro.obs.snapshot import StatsSnapshot
from repro.estimators import Estimator, create_estimator, resolve_statistics
from repro.stats.pool import SITPool

from repro.catalog.catalog import CatalogSnapshot, StatisticsCatalog


def stamp_staleness(tracker, predicates, result):
    """``result`` with ``staleness_s`` provenance when a tracker is wired.

    The one step every served answer takes after it is computed: a
    session runs it on its worker, and the service runs the same step on
    an answer it replays where the request arrived."""
    if tracker is None or result is None:
        return result
    try:
        staleness = tracker.staleness_for(tables_of(predicates))
    except Exception:
        return result
    return result.with_staleness(staleness)


class EstimationSession:
    """Many queries, one snapshot, one memo and shared caches."""

    def __init__(
        self,
        statistics: "StatisticsCatalog | CatalogSnapshot | SITPool",
        error_function: ErrorFunction | None = None,
        *,
        database: Database | None = None,
        backend: str = "sit",
        sit_driven_pruning: bool = False,
        estimator: Estimator | None = None,
        name: str | None = None,
        strict: bool = False,
        plan_cache: "bool | PlanCache" = True,
    ):
        pool, snapshot = resolve_statistics(statistics)
        self.snapshot = snapshot
        if database is None and snapshot is not None:
            database = snapshot.database
        if estimator is not None:
            self.estimator = estimator
            database = estimator.database
        else:
            if database is None:
                raise ValueError(
                    "a database is required (pass one explicitly, or use a "
                    "catalog built with a database)"
                )
            if backend == "sit":
                kwargs = dict(
                    error_function=error_function,
                    sit_driven_pruning=sit_driven_pruning,
                    strict=strict,
                    plan_cache=plan_cache,
                )
            else:
                kwargs = {}
            self.estimator = create_estimator(
                backend,
                database,
                snapshot if snapshot is not None else pool,
                **kwargs,
            )
        self.database = database
        self.name = name if name is not None else self.estimator.name
        #: queries answered so far
        self.queries = 0
        #: the pool object pinned at construction (identity is the
        #: snapshot-isolation invariant; see :meth:`assert_pinned`)
        self._pinned_pool = self.estimator.pool
        # single-owner guard: estimation is hand-off safe across threads
        # but never concurrency-safe (see the module docstring)
        self._owner_lock = threading.Lock()
        #: optional :class:`repro.obs.StalenessTracker` — when set, every
        #: answer is stamped with the worst-case serving-snapshot
        #: staleness over the tables it touched (``staleness_s``
        #: provenance; see :mod:`repro.ingest`).  The stamp is a
        #: ``compare=False`` field set by
        #: :meth:`EstimationResult.with_staleness`, so parity comparisons
        #: are unaffected and a replayed answer's provenance stays unbuilt.
        self.staleness_tracker = None

    # ------------------------------------------------------------------
    @property
    def pool(self) -> SITPool:
        return self.estimator.pool

    @property
    def plan_cache(self) -> PlanCache | None:
        """The estimator's compiled-plan cache, or ``None``: private
        unless the session was handed one (a service hands one cache to
        every worker session over its pool)."""
        return self.estimator.plan_cache

    @property
    def snapshot_version(self) -> int:
        """The catalog version this session is keyed on (0 for bare pools)."""
        return self.snapshot.version if self.snapshot is not None else 0

    @property
    def is_current(self) -> bool:
        """True while the pinned snapshot matches the owning catalog (a
        bare-pool session is trivially current)."""
        return self.snapshot is None or self.snapshot.is_current

    # ------------------------------------------------------------------
    def assert_pinned(self) -> None:
        """Check the pinned-snapshot invariant (cheap; raises on breach).

        The pool a session estimates against must be the *same object*
        for the session's whole life — a concurrent catalog refresh may
        publish new pools but must never swap or mutate this one.
        """
        if self.estimator.pool is not self._pinned_pool:
            raise RuntimeError(
                "pinned-snapshot invariant violated: the session's pool "
                "object changed underneath it"
            )
        if self.snapshot is not None and self.snapshot.pool is not self._pinned_pool:
            raise RuntimeError(
                "pinned-snapshot invariant violated: the snapshot's pool "
                "was replaced after pinning"
            )

    def _acquire_owner(self):
        if not self._owner_lock.acquire(blocking=False):
            raise RuntimeError(
                "EstimationSession is single-owner: it may be handed "
                "between threads but not driven concurrently; give each "
                "worker its own session (see repro.service)"
            )
        return self._owner_lock

    # ------------------------------------------------------------------
    def estimate(self, query: Query | PredicateSet) -> EstimationResult:
        """Answer one workload query (its trace, when on, starts empty:
        stage times are read, and summed, per request)."""
        lock = self._acquire_owner()
        try:
            self.queries += 1
            predicates = (
                query.predicates if isinstance(query, Query) else frozenset(query)
            )
            estimator = self.estimator
            trace = estimator.trace
            if trace is not None:
                trace.clear()
            return stamp_staleness(
                self.staleness_tracker,
                predicates,
                estimator.estimate_predicates(predicates),
            )
        finally:
            lock.release()

    def estimate_predicates(self, predicates: PredicateSet) -> EstimationResult:
        """A sub-query of the current query (not counted as a request)."""
        lock = self._acquire_owner()
        try:
            return self.estimator.estimate_predicates(frozenset(predicates))
        finally:
            lock.release()

    def estimate_batch(self, predicate_sets) -> list[EstimationResult]:
        """Answer a group of queries under one owner-lock hold: exactly
        like N :meth:`estimate` calls, so a template hit is one
        :meth:`~repro.core.plancache.PlanCache.estimate` and a miss
        compiles, after which later same-shape members of the batch hit.
        Results are positional."""
        lock = self._acquire_owner()
        try:
            sets = [frozenset(ps) for ps in predicate_sets]
            self.queries += len(sets)
            estimator = self.estimator
            trace = estimator.trace
            if trace is not None:
                trace.clear()
            answer = estimator.estimate_predicates
            tracker = self.staleness_tracker
            return [stamp_staleness(tracker, ps, answer(ps)) for ps in sets]
        finally:
            lock.release()

    def selectivity(self, query: Query | PredicateSet) -> float:
        return self.estimate(query).selectivity

    def cardinality(self, query: Query | PredicateSet) -> float:
        result = self.estimate(query)
        tables = (
            query.tables
            if isinstance(query, Query)
            else tables_of(frozenset(query))
        )
        return result.selectivity * self.database.cross_product_size(tables)

    def explain(self, query: Query | str):
        """``EXPLAIN ESTIMATE`` through the session's estimator."""
        return self.estimator.explain(query)

    # ------------------------------------------------------------------
    @property
    def match_cache_hit_rate(self) -> float:
        """Always 0.0: the DP keeps no factor-match cache (its hit rate
        was 0.0 on every benchmark workload when it went).  The property
        and the ``catalog.match_cache_hit_rate`` gauge stay only because
        the repository benchmark's ``session.match_cache_hit_rate``
        metric reads them; ROADMAP item 1 retires all three."""
        return 0.0

    # ------------------------------------------------------------------
    def metrics_registry(self) -> MetricsRegistry:
        """The estimator's own ledger, plus ``counters.queries`` and
        whether the pinned snapshot is current (``catalog.current``)."""
        ledger = self.estimator.stats_snapshot()
        registry = MetricsRegistry()
        ledger.accumulate_into(registry)
        gauge = registry.gauge
        counter = registry.counter
        counter("counters.queries").inc(self.queries)
        gauge("catalog.current").set(1.0 if self.is_current else 0.0)
        # kept, reading 0.0, for the repository benchmark (see
        # ``match_cache_hit_rate``)
        gauge("catalog.match_cache_hit_rate").set(self.match_cache_hit_rate)
        for key, value in ledger.resilience.items():
            counter(f"resilience.{key}").inc(value)
        for key, value in ledger.plan_cache.items():
            gauge(f"plan_cache.{key}").set(float(value))
        return registry

    def stats_snapshot(self) -> StatsSnapshot:
        """The session's ``StatsSnapshot``: the estimator's ledger; the
        pinned snapshot version is in ``meta``."""
        meta: Mapping[str, object] = {
            "session": self.name,
            "engine": self.estimator.engine,
            "backend": self.estimator.backend,
            "queries": self.queries,
            "snapshot_version": self.snapshot_version,
            "current": self.is_current,
        }
        return StatsSnapshot.from_registry(self.metrics_registry(), meta=meta)


__all__ = ["EstimationSession", "stamp_staleness"]
