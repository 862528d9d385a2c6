"""Service-side advisor wiring: config nesting, feedback collection,
synchronous tuning, and the no-advisor default."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.advisor import AdvisorConfig, SelfTuningAdvisor
from repro.advisor.loop import ACCEPTED, SKIPPED
from repro.core.predicates import FilterPredicate
from repro.engine.expressions import Query
from repro.service import EstimationService, ServiceConfig

TUNED = ServiceConfig(
    workers=1,
    queue_depth=64,
    advisor=AdvisorConfig(min_feedback=4, min_interval_s=3600.0),
)


class TestServiceConfigNesting:
    def test_round_trip_with_advisor_block(self):
        config = ServiceConfig(
            workers=2,
            advisor=AdvisorConfig(max_q_error=9.0, space_budget_bytes=512.0),
        )
        payload = config.to_dict()
        assert payload["advisor"]["max_q_error"] == 9.0
        restored = ServiceConfig.from_dict(payload)
        assert restored.advisor == config.advisor

    def test_round_trip_without_advisor_block(self):
        config = ServiceConfig(workers=2)
        payload = config.to_dict()
        assert payload["advisor"] is None
        assert ServiceConfig.from_dict(payload).advisor is None

    def test_advisor_must_be_config_or_none(self):
        with pytest.raises(TypeError, match="advisor"):
            ServiceConfig(advisor={"max_q_error": 9.0})

    def test_unknown_advisor_keys_rejected(self):
        payload = ServiceConfig().to_dict()
        payload["advisor"] = {"nope": 1}
        with pytest.raises(ValueError):
            ServiceConfig.from_dict(payload)


class TestServiceIntegration:
    def test_no_advisor_by_default(self, service_catalog):
        with EstimationService(service_catalog) as service:
            assert service.advisor is None
            assert service.tune() is None

    def test_feedback_flows_from_served_estimates(
        self, service_catalog, factor_sharing_queries
    ):
        with EstimationService(service_catalog, config=TUNED) as service:
            assert isinstance(service.advisor, SelfTuningAdvisor)
            for query in factor_sharing_queries:
                service.estimate(query)
            counters = service.advisor.feedback.counters()
            assert counters["feedback_appended"] >= len(
                factor_sharing_queries
            )

    def test_synchronous_tune_runs_a_tick(
        self, service_catalog, factor_sharing_queries
    ):
        with EstimationService(service_catalog, config=TUNED) as service:
            for query in factor_sharing_queries:
                service.estimate(query)
            report = service.tune()
            assert report is not None
            assert report.status in (ACCEPTED, "no-solution-found")
            # tuning must not break serving
            served = service.estimate(factor_sharing_queries[0])
            assert served.selectivity >= 0.0

    def test_advisor_metrics_surface_in_service_registry(
        self, service_catalog, factor_sharing_queries
    ):
        with EstimationService(service_catalog, config=TUNED) as service:
            for query in factor_sharing_queries:
                service.estimate(query)
            service.tune()
            snapshot = service.metrics_registry().snapshot()
            assert "advisor" in snapshot
            assert snapshot["advisor"]["ticks"] >= 1.0

    def test_failing_background_tick_is_counted_not_raised(
        self, service_catalog, join_query, monkeypatch
    ):
        """A broken advisor degrades to a no-op: serving continues and
        the failure shows up as ``advisor.failed_ticks``."""
        with EstimationService(service_catalog, config=TUNED) as service:
            advisor = service.advisor
            monkeypatch.setattr(advisor, "ready", lambda: True)

            def broken_tick():
                raise RuntimeError("advisor bug")

            monkeypatch.setattr(advisor, "tick", broken_tick)
            service.estimate(join_query)  # a served batch kicks a tick
            # the answer does not wait for the tick (nor for the worker
            # to publish its thread): wait on what the tick leaves
            def failed_ticks() -> float:
                snapshot = service.metrics_registry().snapshot()
                return snapshot.get("advisor", {}).get("failed_ticks", 0.0)

            deadline = time.monotonic() + 5.0
            while failed_ticks() < 1.0 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert service.estimate(join_query).selectivity >= 0.0
            assert failed_ticks() >= 1.0

    def test_close_right_after_an_answer_joins_the_tick(
        self, service_catalog, join_query, monkeypatch
    ):
        """``close`` returns only once a tick kicked by the last batch
        has finished — also when it is called the instant the answer
        arrives, while the worker is still starting the tick thread."""
        for _ in range(10):
            service = EstimationService(service_catalog, config=TUNED)
            started, finished = threading.Event(), threading.Event()

            def slow_tick():
                started.set()
                time.sleep(0.02)
                finished.set()

            monkeypatch.setattr(service.advisor, "ready", lambda: True)
            monkeypatch.setattr(service.advisor, "tick", slow_tick)
            service.estimate(join_query)
            assert service.close() is True
            assert finished.is_set() or not started.is_set()
            tick_thread = service._tuning_thread
            assert tick_thread is None or not tick_thread.is_alive()

    def test_table_update_storm_during_tune(
        self, service_catalog, two_table_attrs, two_table_join
    ):
        """A writer's ``notify_table_update`` drops truth from the
        feedback store on its own thread while the tuning tick looks
        truth up and records it: no notify raises and no tick is
        skipped or fails, because the store's one lock covers both."""
        # truth over R alone outlives the storm on S and keeps every
        # invalidation scanning; truth over the join is dropped and
        # recorded again while it scans
        r_filters = [
            FilterPredicate(two_table_attrs["Ra"], float(low), low + 25.0)
            for low in range(150)
        ]
        queries = [Query.of(predicate) for predicate in r_filters] + [
            Query.of(two_table_join, predicate) for predicate in r_filters
        ]
        with EstimationService(service_catalog, config=TUNED) as service:
            for query in queries:
                service.estimate(query)
            start = threading.Barrier(2)
            tuned = threading.Event()
            errors: list[Exception] = []

            def storm() -> None:
                try:
                    start.wait(timeout=30.0)
                    while not tuned.is_set():
                        service_catalog.notify_table_update("S")
                except Exception as error:  # reported by the assert below
                    errors.append(error)

            writer = threading.Thread(target=storm, daemon=True)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                writer.start()
                try:
                    start.wait(timeout=30.0)
                    reports = [service.tune() for _ in range(3)]
                finally:
                    tuned.set()
                writer.join(timeout=60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not writer.is_alive()
            assert errors == []
            assert SKIPPED not in {report.status for report in reports}
            advisor = service.metrics_registry().snapshot()["advisor"]
            assert advisor.get("skipped_ticks", 0.0) == 0.0
            assert advisor.get("failed_ticks", 0.0) == 0.0

    def test_clean_close_with_advisor(self, service_catalog, join_query):
        service = EstimationService(service_catalog, config=TUNED)
        service.estimate(join_query)
        assert service.close() is True
