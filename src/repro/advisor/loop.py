"""The self-tuning loop: observe -> split -> search -> gate -> apply.

:class:`SelfTuningAdvisor` closes the loop static selection (the
catalog's budgeted refresh, :func:`repro.stats.pool.rank_sits`) leaves
open.  It watches served estimates and resolves engine-exact truth in
one :class:`~repro.advisor.feedback.FeedbackStore` (attached to the
catalog, so table updates invalidate stale truth), and on every *tick*:

1. deterministically splits the feedback into candidate/safety sets
   (:mod:`repro.advisor.split`);
2. greedy-searches conditioned-SIT configurations on the candidate set,
   scored by measured q-error (:mod:`repro.advisor.search`);
3. verifies the three hard constraints on the held-out safety set
   (:mod:`repro.advisor.safety`) — any violation keeps the current
   configuration and reports ``no-solution-found``;
4. applies an accepted configuration through the catalog's existing
   refresh path (``RefreshPolicy(keep_keys=...)`` +
   :func:`~repro.catalog.refresh.execute_refresh`), never by mutating a
   pool in place, so serving sessions keep their snapshot isolation.

A tick that cannot evaluate safety (engine executor unavailable or
failing) is *skipped*, counted under ``advisor.skipped_ticks``, and
changes nothing — tuning degrades to a no-op rather than blocking or
corrupting the serving path.

SITs dropped by an accepted configuration stay in the advisor's
*universe* (with their provenance), so a later tick can re-propose them
when the workload shifts back.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.advisor.config import AdvisorConfig
from repro.advisor.feedback import FeedbackStore
from repro.advisor.safety import (
    NO_SOLUTION_FOUND,
    SafetyDecision,
    SafetyGate,
)
from repro.advisor.search import (
    ConfigurationSearch,
    MeasuredRecord,
    q_error,
    replay_q_errors,
)
from repro.advisor.split import split_records
from repro.catalog.catalog import (
    SITMetadata,
    StatisticsCatalog,
    sit_key,
)
from repro.catalog.refresh import RefreshPolicy, execute_refresh
from repro.core.predicates import PredicateSet, tables_of
from repro.engine.executor import Executor
from repro.obs.metrics import MetricsRegistry
from repro.obs.snapshot import StatsSnapshot
from repro.stats.sit import SIT

#: bound on retained tuning-tick reports
HISTORY_LIMIT = 50

#: tick outcomes
ACCEPTED = "accepted"
DEFERRED = "deferred"  # not enough feedback yet
SKIPPED = "skipped"  # safety evaluation unavailable


@dataclass(frozen=True)
class TuningReport:
    """What one :meth:`SelfTuningAdvisor.tick` did."""

    #: ``"accepted"`` | ``"no-solution-found"`` | ``"deferred"`` |
    #: ``"skipped"``
    status: str
    #: human-readable cause (gate reason, or why the tick stopped early)
    reason: str = ""
    #: the proposed conditioned-SIT names (sorted; empty when none)
    chosen: tuple[str, ...] = ()
    #: whether the catalog was actually reconfigured
    applied: bool = False
    candidate_records: int = 0
    safety_records: int = 0
    #: candidate-split median q-error of the proposal (inf when unset)
    candidate_median_q_error: float = float("inf")
    #: the gate's verdict (None when the tick stopped before the gate)
    decision: SafetyDecision | None = None
    #: configuration evaluations the search spent
    evaluations: int = 0
    catalog_version_before: int = 0
    catalog_version_after: int = 0

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "reason": self.reason,
            "chosen": list(self.chosen),
            "applied": self.applied,
            "candidate_records": self.candidate_records,
            "safety_records": self.safety_records,
            "candidate_median_q_error": self.candidate_median_q_error,
            "decision": (
                self.decision.to_dict() if self.decision is not None else None
            ),
            "evaluations": self.evaluations,
            "catalog_version_before": self.catalog_version_before,
            "catalog_version_after": self.catalog_version_after,
        }


@dataclass
class SelfTuningAdvisor:
    """Feedback-driven, safety-gated SIT configuration tuning."""

    catalog: StatisticsCatalog
    executor: Executor | None = None
    config: AdvisorConfig = field(default_factory=AdvisorConfig)
    name: str = "repro.advisor"

    def __post_init__(self) -> None:
        if self.executor is None and self.catalog.database is not None:
            self.executor = Executor(self.catalog.database)
        #: served observations + engine-exact truth; the truth is
        #: table-invalidated through the catalog's one event path
        self.feedback = self.catalog.attach_feedback(
            FeedbackStore(self.config.log_capacity)
        )
        self.metrics = MetricsRegistry()
        self.history: list[TuningReport] = []
        self._tick_lock = threading.Lock()
        #: every conditioned SIT (+ provenance) ever seen in a snapshot,
        #: keyed by name — the search's candidate universe
        self._universe: dict[str, tuple[SIT, SITMetadata]] = {}
        self._last_tick: float | None = None
        #: rolling-median estimated cardinality captured at the last
        #: tick — the baseline the drift trigger compares against
        self._drift_baseline: float | None = None

    # ------------------------------------------------------------------
    # Observation (the serving-path side; must stay cheap and safe)
    # ------------------------------------------------------------------
    def observe(
        self,
        predicates: PredicateSet,
        estimated_cardinality: float,
        matched_sits: tuple[str, ...] = (),
    ) -> None:
        """Record one served estimation."""
        self.feedback.observe(predicates, estimated_cardinality, matched_sits)

    def record_result(self, predicates: PredicateSet, result) -> None:
        """Feedback-sink adapter for estimation sessions: derives the
        estimated cardinality and the matched conditioned-SIT names from
        an :class:`~repro.core.get_selectivity.EstimationResult`."""
        predicates = frozenset(predicates)
        if not predicates:
            return
        database = self.catalog.database
        if database is None:
            return
        estimated = result.selectivity * database.cross_product_size(
            tables_of(predicates)
        )
        self.observe(predicates, estimated, result.matched_sits)

    # ------------------------------------------------------------------
    # Tick scheduling
    # ------------------------------------------------------------------
    def ready(self, now: float | None = None) -> bool:
        """Whether a tick is worth attempting (enough feedback, interval
        elapsed — or the feedback distribution drifted).  Pure check —
        does not mutate state.

        With ``config.drift_threshold`` set, a shift of the rolling
        median estimated cardinality by at least that factor relative to
        the baseline captured at the last tick makes the advisor ready
        immediately, without waiting out ``min_interval_s`` — a write
        storm that moves the workload's cardinality profile re-tunes as
        soon as the shift is visible in feedback.
        """
        if len(self.feedback) < self.config.min_feedback:
            return False
        if self._last_tick is None:
            return True
        threshold = self.config.drift_threshold
        if threshold is not None and self.drift_ratio() >= threshold:
            return True
        now = time.monotonic() if now is None else now
        return now - self._last_tick >= self.config.min_interval_s

    def drift_ratio(self) -> float:
        """Shift factor (>= 1) of the rolling feedback median versus the
        baseline captured at the last tick; 1.0 before any baseline."""
        baseline = self._drift_baseline
        if baseline is None:
            return 1.0
        current = self._rolling_median()
        if current is None:
            return 1.0
        return q_error(current, baseline)

    def _rolling_median(self) -> float | None:
        """Median estimated cardinality over the most recent
        ``min_feedback`` records (the drift trigger's rolling window)."""
        records = self.feedback.records()
        if not records:
            return None
        window = records[-self.config.min_feedback :]
        values = sorted(record.estimated_cardinality for record in window)
        return values[len(values) // 2]

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------
    def tick(self) -> TuningReport:
        """Run one tuning round; never raises, never blocks observers."""
        with self._tick_lock:
            self._last_tick = time.monotonic()
            self.metrics.counter("advisor.ticks").inc()
            threshold = self.config.drift_threshold
            if threshold is not None and self.drift_ratio() >= threshold:
                self.metrics.counter("advisor.drift_ticks").inc()
            # re-baseline: the next drift comparison starts from the
            # distribution this tick tuned against
            self._drift_baseline = self._rolling_median()
            report = self._tick_locked()
        self.history.append(report)
        del self.history[:-HISTORY_LIMIT]
        return report

    def _tick_locked(self) -> TuningReport:
        version_before = self.catalog.version
        records = self.feedback.records()
        if len(records) < self.config.min_feedback:
            self.metrics.counter("advisor.deferred_ticks").inc()
            return TuningReport(
                status=DEFERRED,
                reason=(
                    f"{len(records)} feedback records "
                    f"< min_feedback={self.config.min_feedback}"
                ),
                catalog_version_before=version_before,
                catalog_version_after=self.catalog.version,
            )

        snapshot = self.catalog.snapshot()
        for sit in snapshot.pool:
            if not sit.is_base:
                self._universe[str(sit)] = (sit, snapshot.metadata_for(sit))

        # Resolve engine-exact truth, once per distinct predicate set.
        # Failure here (no executor, engine down) is the wire-degradation
        # path: skip the tick, count it, change nothing.
        try:
            if self.executor is None:
                raise RuntimeError("no executor attached")
            if self.catalog.database is None:
                raise RuntimeError("catalog has no database attached")
            truth = {
                predicates: self._resolve_truth(predicates)
                for predicates in {record.predicates for record in records}
            }
        except Exception as error:
            self.metrics.counter("advisor.skipped_ticks").inc()
            return TuningReport(
                status=SKIPPED,
                reason=f"safety evaluation unavailable: {error}",
                catalog_version_before=version_before,
                catalog_version_after=self.catalog.version,
            )

        candidate_raw, safety_raw = split_records(
            records, self.config.split_seed, self.config.safety_fraction
        )
        candidate = [
            MeasuredRecord(record, truth[record.predicates])
            for record in candidate_raw
        ]
        safety = [
            MeasuredRecord(record, truth[record.predicates])
            for record in safety_raw
        ]
        if not candidate:
            self.metrics.counter("advisor.deferred_ticks").inc()
            return TuningReport(
                status=DEFERRED,
                reason="no candidate-split records",
                candidate_records=0,
                safety_records=len(safety),
                catalog_version_before=version_before,
                catalog_version_after=self.catalog.version,
            )

        base_sits = [sit for sit in snapshot.pool if sit.is_base]
        candidates = [
            sit for _, (sit, _) in sorted(self._universe.items())
        ]

        search = ConfigurationSearch(
            database=self.catalog.database,
            base_sits=base_sits,
            candidates=candidates,
            records=candidate,
            space_budget_bytes=self.config.space_budget_bytes,
            max_moves=self.config.max_moves,
        )
        chosen, candidate_median = search.greedy()
        self.metrics.counter("advisor.proposals").inc()

        # Safety evaluation on the held-out split the search never saw.
        safety_errors = replay_q_errors(
            self.catalog.database,
            base_sits,
            [sit for sit in candidates if str(sit) in chosen],
            safety,
        )
        evaluations = search.evaluations + (1 if safety else 0)
        worst = max(safety_errors, default=float("inf"))
        by_name = dict(self._universe)
        space = sum(by_name[name][0].space_bytes for name in chosen)
        refresh_cost = sum(
            by_name[name][1].build_seconds for name in chosen
        )
        decision = SafetyGate(self.config).check(
            worst_q_error=worst,
            space_bytes=space,
            refresh_seconds=refresh_cost,
            safety_records=len(safety),
        )

        applied = False
        if decision.accepted:
            self.metrics.counter("advisor.accepts").inc()
            current = {str(sit) for sit in snapshot.pool if not sit.is_base}
            if chosen != current:
                self._apply(chosen, by_name)
                applied = True
        else:
            self.metrics.counter("advisor.no_solution").inc()
            for violation in decision.violations:
                self.metrics.counter(f"advisor.rejects_{violation}").inc()
        return TuningReport(
            status=ACCEPTED if decision.accepted else NO_SOLUTION_FOUND,
            reason=decision.reason,
            chosen=tuple(sorted(chosen)),
            applied=applied,
            candidate_records=len(candidate),
            safety_records=len(safety),
            candidate_median_q_error=candidate_median,
            decision=decision,
            evaluations=evaluations,
            catalog_version_before=version_before,
            catalog_version_after=self.catalog.version,
        )

    def _resolve_truth(self, predicates: PredicateSet) -> int:
        """Exact cardinality for a predicate set, executed at most once
        while :attr:`feedback` holds it."""
        cached = self.feedback.lookup_truth(predicates)
        if cached is not None:
            return cached
        assert self.executor is not None
        return self.feedback.observe_truth(self.executor, predicates)

    def _apply(
        self,
        chosen: frozenset[str],
        by_name: dict[str, tuple[SIT, SITMetadata]],
    ) -> None:
        """Install an accepted configuration through the refresh path.

        Missing SITs are re-registered with their *preserved* provenance
        (so genuinely stale ones rebuild in the refresh below), then a
        ``keep_keys`` refresh drops every conditioned SIT outside the
        accepted set.  Base histograms are untouched throughout.
        """
        registered = {
            str(sit) for sit in self.catalog.pool if not sit.is_base
        }
        for name in sorted(chosen - registered):
            sit, metadata = by_name[name]
            self.catalog.add(sit, metadata)
        keep = frozenset(sit_key(by_name[name][0]) for name in chosen)
        execute_refresh(self.catalog, RefreshPolicy(keep_keys=keep))

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def metrics_registry(self) -> MetricsRegistry:
        """Tuning counters + feedback fill under ``advisor.*``."""
        registry = MetricsRegistry()
        registry.merge(self.metrics)
        for key, value in self.feedback.counters().items():
            registry.gauge(f"advisor.{key}").set(value)
        registry.gauge("advisor.universe_size").set(float(len(self._universe)))
        registry.gauge("advisor.drift_ratio").set(self.drift_ratio())
        return registry

    def stats_snapshot(self) -> StatsSnapshot:
        return StatsSnapshot.from_registry(
            self.metrics_registry(),
            meta={"subsystem": "advisor", "name": self.name},
        )

    def status(self) -> dict:
        """A JSON-ready summary (the CLI's ``advisor status`` output)."""
        last = self.history[-1] if self.history else None
        return {
            "config": self.config.to_dict(),
            "feedback": self.feedback.counters(),
            "universe_size": len(self._universe),
            "current_conditioned_sits": sorted(
                str(sit) for sit in self.catalog.pool if not sit.is_base
            ),
            "catalog_version": self.catalog.version,
            "drift_ratio": self.drift_ratio(),
            "ticks": len(self.history),
            "last_report": last.to_dict() if last is not None else None,
        }


__all__ = [
    "ACCEPTED",
    "DEFERRED",
    "HISTORY_LIMIT",
    "SKIPPED",
    "SelfTuningAdvisor",
    "TuningReport",
]
