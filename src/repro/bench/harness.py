"""Experiment harness: runs estimation techniques over workloads and
collects the paper's metrics.

Metric (Section 5, "Metrics"): for each workload query, estimate the
cardinality of each of its sub-queries with every technique, evaluate each
sub-query exactly, average the absolute error over the sub-queries, then
average over the workload's queries.  Efficiency metrics — view-matching
calls (Figure 6) and decomposition-analysis versus histogram-manipulation
time (Figure 8) — come from the shared :class:`ViewMatcher` counter and
the ``GetSelectivity`` timing hooks.

``getSelectivity``-based techniques answer every sub-query of a query from
one memoized run (Section 4's reuse); GVM re-runs per sub-plan, exactly as
the paper observes.

Workloads run through :class:`repro.catalog.EstimationSession`: each
technique's estimator is wrapped in a session pinned to the statistics
source (a bare :class:`~repro.stats.pool.SITPool`, a
:class:`~repro.catalog.StatisticsCatalog` or a
:class:`~repro.catalog.CatalogSnapshot`).  The paper's figures are per
query, so this harness — the one caller that wants accounting windows —
opens them itself: ``estimator.reset()`` before each workload query is
the cold start (empty memo, zero counters; the pool-pure factor-match
and estimate caches stay shared across the workload).  Workload totals
are the :meth:`TechniqueReport.aggregate_snapshot` roll-up of the
per-query snapshots; :attr:`WorkloadEvaluation.session_snapshots` carry
the session identity (``catalog`` block, ``queries``) and the last
query's window.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.catalog.session import EstimationSession
from repro.estimators import SITEstimator, resolve_statistics
from repro.core.gvm import GreedyViewMatching
from repro.core.predicates import PredicateSet, tables_of
from repro.engine.database import Database
from repro.engine.executor import Executor
from repro.engine.expressions import Query
from repro.obs.metrics import MetricsRegistry
from repro.obs.snapshot import StatsSnapshot
from repro.stats.pool import SITPool
from repro.workload.queries import connected_subqueries

#: builds an estimator for (database, statistics)
EstimatorFactory = Callable[[Database, SITPool], SITEstimator]


@dataclass
class QueryMetrics:
    """Per-query outcome of one technique."""

    query: Query
    mean_absolute_error: float
    full_query_error: float
    vm_calls: int
    analysis_seconds: float
    estimation_seconds: float
    estimates: dict[PredicateSet, float] = field(default_factory=dict)
    #: unified observability snapshot (``None`` for GVM)
    snapshot: StatsSnapshot | None = None


@dataclass
class TechniqueReport:
    """A technique's metrics over a whole workload."""

    name: str
    per_query: list[QueryMetrics] = field(default_factory=list)

    @property
    def mean_absolute_error(self) -> float:
        if not self.per_query:
            return 0.0
        return sum(q.mean_absolute_error for q in self.per_query) / len(
            self.per_query
        )

    @property
    def mean_vm_calls(self) -> float:
        if not self.per_query:
            return 0.0
        return sum(q.vm_calls for q in self.per_query) / len(self.per_query)

    @property
    def mean_analysis_ms(self) -> float:
        if not self.per_query:
            return 0.0
        return (
            sum(q.analysis_seconds for q in self.per_query)
            / len(self.per_query)
            * 1000.0
        )

    @property
    def mean_estimation_ms(self) -> float:
        if not self.per_query:
            return 0.0
        return (
            sum(q.estimation_seconds for q in self.per_query)
            / len(self.per_query)
            * 1000.0
        )

    def aggregate_metrics(self) -> MetricsRegistry:
        """Workload-level roll-up of the per-query snapshots.

        Counters and cache hit/miss counts sum across queries; timings sum
        (they are per-query accumulators); cache sizes keep the last
        query's value.  This is the registry figure runs and BENCH output
        report from.
        """
        registry = MetricsRegistry()
        for metrics in self.per_query:
            if metrics.snapshot is not None:
                metrics.snapshot.accumulate_into(registry)
        return registry

    def aggregate_snapshot(self) -> StatsSnapshot:
        """The roll-up of :meth:`aggregate_metrics` as a ``StatsSnapshot``."""
        return StatsSnapshot.from_registry(
            self.aggregate_metrics(),
            meta={"technique": self.name, "queries": len(self.per_query)},
        )


@dataclass
class WorkloadEvaluation:
    """All techniques' reports plus the ground truth used."""

    reports: dict[str, TechniqueReport]
    true_cardinalities: dict[PredicateSet, int]
    #: per-technique session snapshots (pinned snapshot/catalog versions,
    #: query count, the last query's window); absent for GVM, which runs
    #: sessionless.
    session_snapshots: dict[str, StatsSnapshot] = field(default_factory=dict)

    def report(self, name: str) -> TechniqueReport:
        """The report of one technique by name."""
        return self.reports[name]


class Harness:
    """Evaluates techniques against exact ground truth over workloads."""

    def __init__(self, database: Database, executor: Executor | None = None):
        self.database = database
        self.executor = executor if executor is not None else Executor(database)
        self._truth: dict[PredicateSet, int] = {}

    # ------------------------------------------------------------------
    def true_cardinality(self, predicates: PredicateSet) -> int:
        """Exact cardinality via the executor, memoized across queries."""
        cached = self._truth.get(predicates)
        if cached is None:
            cached = self.executor.cardinality(predicates)
            self._truth[predicates] = cached
        return cached

    def subqueries(
        self, query: Query, max_count: int | None, seed: int = 0
    ) -> list[PredicateSet]:
        """The sub-query universe of ``query`` (sampled when capped)."""
        return connected_subqueries(query, max_count=max_count, seed=seed)

    # ------------------------------------------------------------------
    def evaluate(
        self,
        queries: Sequence[Query],
        statistics,
        estimator_factories: dict[str, EstimatorFactory],
        include_gvm: bool = True,
        max_subqueries: int | None = None,
        tracing: bool = False,
    ) -> WorkloadEvaluation:
        """Run every technique over every query of the workload.

        ``statistics`` is a :class:`~repro.stats.pool.SITPool`, a
        :class:`~repro.catalog.StatisticsCatalog` (pinned once for the
        whole evaluation, so a concurrent refresh cannot skew a figure
        run mid-workload) or a :class:`~repro.catalog.CatalogSnapshot`.

        With ``tracing=True`` every ``getSelectivity`` estimator runs with
        the per-stage :class:`repro.obs.trace.Trace` enabled, so the
        per-query ``snapshot`` carries ``dp_enumeration`` /
        ``factor_matching`` / ``histogram_join`` / ``error_scoring``
        timings and the candidate-funnel counters (at a small measured
        overhead; leave it off for timing-sensitive figure runs).
        """
        pool, snapshot = resolve_statistics(statistics)
        pinned = snapshot if snapshot is not None else pool
        reports: dict[str, TechniqueReport] = {}
        sessions = {
            name: EstimationSession(
                pinned,
                database=self.database,
                estimator=factory(self.database, pinned),
                name=name,
            )
            for name, factory in estimator_factories.items()
        }
        if tracing:
            for session in sessions.values():
                session.estimator.enable_tracing()
        for name in sessions:
            reports[name] = TechniqueReport(name)
        if include_gvm:
            reports["GVM"] = TechniqueReport("GVM")

        for index, query in enumerate(queries):
            subqueries = self.subqueries(query, max_subqueries, seed=index)
            truth = {s: self.true_cardinality(s) for s in subqueries}
            for name, session in sessions.items():
                reports[name].per_query.append(
                    self._run_gs(session, query, subqueries, truth)
                )
            if include_gvm:
                reports["GVM"].per_query.append(
                    self._run_gvm(pool, query, subqueries, truth)
                )
        session_snapshots = {
            name: session.stats_snapshot()
            for name, session in sessions.items()
        }
        return WorkloadEvaluation(
            reports, dict(self._truth), session_snapshots
        )

    # ------------------------------------------------------------------
    def _cardinality_of(self, predicates: PredicateSet, selectivity: float) -> float:
        return selectivity * self.database.cross_product_size(tables_of(predicates))

    def _run_gs(
        self,
        session: EstimationSession,
        query: Query,
        subqueries: list[PredicateSet],
        truth: dict[PredicateSet, int],
    ) -> QueryMetrics:
        # Per-query accounting window, as in the paper; the estimator's
        # pool-pure factor-match/estimate caches survive across queries.
        estimator = session.estimator
        estimator.reset()
        session.queries += 1
        estimates: dict[PredicateSet, float] = {}
        for predicates in subqueries:
            result = session.estimate_predicates(predicates)
            estimates[predicates] = self._cardinality_of(
                predicates, result.selectivity
            )
        errors = [abs(estimates[s] - truth[s]) for s in subqueries]
        snapshot = estimator.stats_snapshot()
        return QueryMetrics(
            query=query,
            mean_absolute_error=sum(errors) / len(errors),
            full_query_error=abs(
                estimates[query.predicates] - truth[query.predicates]
            )
            if query.predicates in estimates
            else 0.0,
            vm_calls=estimator.view_matching_calls,
            analysis_seconds=estimator.analysis_seconds,
            estimation_seconds=estimator.estimation_seconds,
            estimates=estimates,
            snapshot=snapshot,
        )

    def _run_gvm(
        self,
        pool: SITPool,
        query: Query,
        subqueries: list[PredicateSet],
        truth: dict[PredicateSet, int],
    ) -> QueryMetrics:
        gvm = GreedyViewMatching(pool)
        estimates: dict[PredicateSet, float] = {}
        started = time.perf_counter()
        for predicates in subqueries:  # one greedy run per sub-plan
            selectivity = gvm.estimate_selectivity(predicates)
            estimates[predicates] = self._cardinality_of(predicates, selectivity)
        elapsed = time.perf_counter() - started
        errors = [abs(estimates[s] - truth[s]) for s in subqueries]
        return QueryMetrics(
            query=query,
            mean_absolute_error=sum(errors) / len(errors),
            full_query_error=abs(
                estimates[query.predicates] - truth[query.predicates]
            )
            if query.predicates in estimates
            else 0.0,
            vm_calls=gvm.matcher.calls,
            analysis_seconds=elapsed,
            estimation_seconds=0.0,
            estimates=estimates,
        )
