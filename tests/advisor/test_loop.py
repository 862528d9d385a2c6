"""SelfTuningAdvisor end-to-end: accept, no-solution-found, skip, defer.

The two hard promises under test:

* an impossible constraint **always** yields ``no-solution-found`` and
  never mutates the catalog;
* the whole tick is deterministic — same seed + same feedback log ->
  the identical accepted configuration.
"""

from __future__ import annotations

import pytest

from repro.advisor import (
    AdvisorConfig,
    NO_SOLUTION_FOUND,
    SelfTuningAdvisor,
)
from repro.advisor.loop import ACCEPTED, DEFERRED, HISTORY_LIMIT, SKIPPED

from .conftest import drive_feedback


def catalog_fingerprint(catalog):
    return (
        catalog.version,
        tuple(sorted(str(sit) for sit in catalog.pool)),
    )


LENIENT = AdvisorConfig(min_feedback=4, min_interval_s=0.0)


class TestAcceptPath:
    def test_tick_accepts_and_reconfigures(
        self, advisor_catalog, feedback_queries
    ):
        advisor = SelfTuningAdvisor(advisor_catalog, config=LENIENT)
        drive_feedback(advisor, advisor_catalog, feedback_queries)
        report = advisor.tick()
        assert report.status == ACCEPTED
        assert report.decision is not None and report.decision.accepted
        assert report.candidate_records > 0
        assert report.safety_records > 0
        assert report.candidate_median_q_error < float("inf")
        # the catalog's conditioned set now IS the accepted configuration
        conditioned = {
            str(sit) for sit in advisor_catalog.pool if not sit.is_base
        }
        assert conditioned == set(report.chosen)
        # base histograms are never touched by the advisor
        assert any(sit.is_base for sit in advisor_catalog.pool)

    def test_accepted_space_constraint_holds_on_the_catalog(
        self, advisor_catalog, feedback_queries
    ):
        budget = 1.0 + min(
            sit.space_bytes
            for sit in advisor_catalog.pool
            if not sit.is_base
        )
        config = AdvisorConfig(
            min_feedback=4, min_interval_s=0.0, space_budget_bytes=budget
        )
        advisor = SelfTuningAdvisor(advisor_catalog, config=config)
        drive_feedback(advisor, advisor_catalog, feedback_queries)
        report = advisor.tick()
        assert report.status == ACCEPTED
        installed = sum(
            sit.space_bytes
            for sit in advisor_catalog.pool
            if not sit.is_base
        )
        assert installed <= budget
        assert report.decision.space_bytes <= budget

    def test_second_tick_is_stable(self, advisor_catalog, feedback_queries):
        """Re-tuning on the same traffic proposes the same configuration
        and does not churn the catalog."""
        advisor = SelfTuningAdvisor(advisor_catalog, config=LENIENT)
        drive_feedback(advisor, advisor_catalog, feedback_queries)
        first = advisor.tick()
        assert first.status == ACCEPTED
        fingerprint = catalog_fingerprint(advisor_catalog)
        second = advisor.tick()
        assert second.status == ACCEPTED
        assert second.chosen == first.chosen
        assert not second.applied
        assert catalog_fingerprint(advisor_catalog) == fingerprint


class TestDeterminism:
    def test_same_seed_same_log_same_configuration(
        self, two_table_db, two_table_pool, feedback_queries
    ):
        from repro.catalog import StatisticsCatalog
        from repro.stats.builder import SITBuilder

        reports = []
        for _ in range(2):
            catalog = StatisticsCatalog.from_pool(
                two_table_pool,
                database=two_table_db,
                builder=SITBuilder(two_table_db),
            )
            advisor = SelfTuningAdvisor(catalog, config=LENIENT)
            drive_feedback(advisor, catalog, feedback_queries)
            reports.append(advisor.tick())
        first, second = reports
        assert first.status == second.status == ACCEPTED
        assert first.chosen == second.chosen
        assert first.candidate_median_q_error == pytest.approx(
            second.candidate_median_q_error
        )
        assert first.decision.worst_q_error == pytest.approx(
            second.decision.worst_q_error
        )

    def test_split_seed_feeds_the_tick(
        self, advisor_catalog, feedback_queries
    ):
        advisor = SelfTuningAdvisor(
            advisor_catalog,
            config=AdvisorConfig(
                min_feedback=4, min_interval_s=0.0, split_seed=123
            ),
        )
        drive_feedback(advisor, advisor_catalog, feedback_queries)
        report = advisor.tick()
        # a different seed partitions differently but the tick still
        # completes with a verdict, never an exception
        assert report.status in (ACCEPTED, NO_SOLUTION_FOUND)


class TestNoSolutionFound:
    def test_impossible_q_error_never_mutates_the_catalog(
        self, advisor_catalog, feedback_queries
    ):
        """q-error >= 1 by construction, so ``max_q_error=0`` can never
        be satisfied: every tick must report no-solution-found and the
        catalog must stay bit-identical."""
        config = AdvisorConfig(
            min_feedback=4, min_interval_s=0.0, max_q_error=0.0
        )
        advisor = SelfTuningAdvisor(advisor_catalog, config=config)
        drive_feedback(advisor, advisor_catalog, feedback_queries)
        fingerprint = catalog_fingerprint(advisor_catalog)
        for _ in range(3):
            report = advisor.tick()
            assert report.status == NO_SOLUTION_FOUND
            assert report.reason == "q_error"
            assert not report.applied
            assert report.catalog_version_after == report.catalog_version_before
            assert catalog_fingerprint(advisor_catalog) == fingerprint
        registry = advisor.metrics_registry().snapshot()["advisor"]
        assert registry["no_solution"] == 3.0
        assert registry["rejects_q_error"] == 3.0
        assert registry.get("accepts", 0.0) == 0.0

    def test_rejection_reports_every_violated_constraint(
        self, advisor_catalog, feedback_queries
    ):
        config = AdvisorConfig(
            min_feedback=4,
            min_interval_s=0.0,
            max_q_error=0.0,
            refresh_budget_s=0.0,
        )
        advisor = SelfTuningAdvisor(advisor_catalog, config=config)
        drive_feedback(advisor, advisor_catalog, feedback_queries)
        report = advisor.tick()
        assert report.status == NO_SOLUTION_FOUND
        assert "q_error" in report.decision.violations


class TestWireDegradation:
    def test_missing_executor_skips_and_counts(
        self, advisor_catalog, feedback_queries
    ):
        advisor = SelfTuningAdvisor(advisor_catalog, config=LENIENT)
        advisor.executor = None  # engine becomes unavailable
        drive_feedback(advisor, advisor_catalog, feedback_queries)
        fingerprint = catalog_fingerprint(advisor_catalog)
        report = advisor.tick()
        assert report.status == SKIPPED
        assert "safety evaluation unavailable" in report.reason
        assert not report.applied
        assert catalog_fingerprint(advisor_catalog) == fingerprint
        registry = advisor.metrics_registry().snapshot()["advisor"]
        assert registry["skipped_ticks"] == 1.0

    def test_raising_executor_skips_and_counts(
        self, advisor_catalog, feedback_queries
    ):
        class BrokenExecutor:
            def cardinality(self, predicates):
                raise RuntimeError("engine down")

        advisor = SelfTuningAdvisor(
            advisor_catalog, executor=BrokenExecutor(), config=LENIENT
        )
        drive_feedback(advisor, advisor_catalog, feedback_queries)
        fingerprint = catalog_fingerprint(advisor_catalog)
        report = advisor.tick()
        assert report.status == SKIPPED
        assert catalog_fingerprint(advisor_catalog) == fingerprint


class TestScheduling:
    def test_deferred_below_min_feedback(
        self, advisor_catalog, feedback_queries
    ):
        advisor = SelfTuningAdvisor(
            advisor_catalog,
            config=AdvisorConfig(min_feedback=10_000, min_interval_s=0.0),
        )
        drive_feedback(advisor, advisor_catalog, feedback_queries)
        report = advisor.tick()
        assert report.status == DEFERRED
        assert "min_feedback" in report.reason
        assert advisor.metrics.counter("advisor.deferred_ticks").value == 1

    def test_ready_gates_on_feedback_then_interval(
        self, advisor_catalog, feedback_queries
    ):
        advisor = SelfTuningAdvisor(
            advisor_catalog,
            config=AdvisorConfig(min_feedback=4, min_interval_s=60.0),
        )
        assert not advisor.ready()  # no feedback yet
        drive_feedback(advisor, advisor_catalog, feedback_queries)
        assert advisor.ready()  # enough feedback, never ticked
        advisor.tick()
        assert not advisor.ready(now=advisor._last_tick + 1.0)
        assert advisor.ready(now=advisor._last_tick + 61.0)

    def test_drift_triggers_before_the_interval(
        self, advisor_catalog, feedback_queries
    ):
        """A feedback-distribution shift (rolling median moved by the
        configured factor) makes the advisor ready without waiting out
        ``min_interval_s``; a stable distribution still waits."""
        advisor = SelfTuningAdvisor(
            advisor_catalog,
            config=AdvisorConfig(
                min_feedback=4, min_interval_s=60.0, drift_threshold=3.0
            ),
        )
        drive_feedback(advisor, advisor_catalog, feedback_queries)
        advisor.tick()
        soon = advisor._last_tick + 1.0
        assert not advisor.ready(now=soon)
        assert advisor.drift_ratio() == pytest.approx(1.0)

        # the workload's cardinality profile jumps an order of magnitude
        baseline = advisor._drift_baseline
        for index in range(advisor.config.min_feedback):
            advisor.observe(
                frozenset(feedback_queries[0].predicates),
                baseline * 10.0 + index,
            )
        assert advisor.drift_ratio() >= 3.0
        assert advisor.ready(now=soon)
        advisor.tick()
        assert advisor.metrics.counter("advisor.drift_ticks").value == 1
        # re-baselined: the same distribution no longer reads as drift
        assert advisor.drift_ratio() == pytest.approx(1.0)
        assert not advisor.ready(now=advisor._last_tick + 1.0)

    def test_drift_disabled_by_default(
        self, advisor_catalog, feedback_queries
    ):
        advisor = SelfTuningAdvisor(
            advisor_catalog,
            config=AdvisorConfig(min_feedback=4, min_interval_s=60.0),
        )
        drive_feedback(advisor, advisor_catalog, feedback_queries)
        advisor.tick()
        baseline = advisor._drift_baseline
        for _ in range(advisor.config.min_feedback):
            advisor.observe(
                frozenset(feedback_queries[0].predicates), baseline * 100.0
            )
        assert not advisor.ready(now=advisor._last_tick + 1.0)

    def test_history_is_bounded(self, advisor_catalog, feedback_queries):
        advisor = SelfTuningAdvisor(
            advisor_catalog,
            config=AdvisorConfig(min_feedback=10_000, min_interval_s=0.0),
        )
        for _ in range(HISTORY_LIMIT + 7):
            advisor.tick()  # cheap deferred ticks
        assert len(advisor.history) == HISTORY_LIMIT


class TestObservability:
    def test_stats_snapshot_populates_the_advisor_namespace(
        self, advisor_catalog, feedback_queries
    ):
        advisor = SelfTuningAdvisor(advisor_catalog, config=LENIENT)
        drive_feedback(advisor, advisor_catalog, feedback_queries)
        advisor.tick()
        snapshot = advisor.stats_snapshot()
        assert snapshot.advisor["ticks"] == 1.0
        assert snapshot.advisor["proposals"] == 1.0
        assert snapshot.advisor["feedback_appended"] == float(
            len(feedback_queries)
        )
        assert snapshot.advisor["universe_size"] >= 1.0
        assert snapshot.meta["subsystem"] == "advisor"

    def test_status_is_json_ready(self, advisor_catalog, feedback_queries):
        import json

        advisor = SelfTuningAdvisor(advisor_catalog, config=LENIENT)
        drive_feedback(advisor, advisor_catalog, feedback_queries)
        advisor.tick()
        status = advisor.status()
        json.dumps(status)  # no exotic types anywhere
        assert status["ticks"] == 1
        assert status["last_report"]["status"] in (
            ACCEPTED,
            NO_SOLUTION_FOUND,
        )
        assert status["current_conditioned_sits"] == sorted(
            str(sit) for sit in advisor_catalog.pool if not sit.is_base
        )
