"""Service self-healing: worker resurrection, requeue bounds, the
per-snapshot circuit breaker with rollback, and fault-path leak audits."""

from __future__ import annotations

import gc
import time
import weakref

import pytest

from repro.resilience.faults import FaultPlan, FaultRule, armed
from repro.service import EstimationService, HealingConfig, ServiceConfig, ServiceError
from repro.service.protocol import ServedEstimate

SQL = "SELECT * FROM R, S WHERE R.x = S.y AND R.a BETWEEN 10 AND 40"


def crash_plan(**kwargs) -> FaultPlan:
    return FaultPlan(
        [FaultRule(point="worker_batch", fault="worker_crash", **kwargs)],
        seed=0,
    )


def wait_until(predicate, timeout=5.0, interval=0.01) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture()
def config() -> ServiceConfig:
    return ServiceConfig(
        workers=1,
        queue_depth=64,
        healing=HealingConfig(
            breaker_threshold=2,
            breaker_window_s=30.0,
            requeue_limit=3,
            max_worker_restarts=6,
        ),
    )


class TestWorkerResurrection:
    def test_crashed_worker_is_replaced_and_request_served(
        self, catalog, config
    ):
        with armed(crash_plan(max_fires=1)):
            with EstimationService(catalog, config=config) as service:
                answer = service.estimate(SQL, timeout=None)
                assert isinstance(answer, ServedEstimate)
                snapshot = service.stats_snapshot()
        resilience = snapshot.namespace("resilience")
        assert resilience["worker_crashes"] == 1.0
        assert resilience["worker_restarts"] == 1.0
        assert resilience["requeues"] == 1.0
        assert snapshot.namespace("service")["served"] >= 1.0

    def test_requeue_budget_bounds_a_crash_loop(self, catalog):
        config = ServiceConfig(
            workers=1,
            healing=HealingConfig(
                requeue_limit=1,
                breaker_threshold=100,  # keep the breaker out of this test
                max_worker_restarts=8,
            ),
        )
        with armed(crash_plan(max_fires=None, probability=1.0)):
            with EstimationService(catalog, config=config) as service:
                future = service.submit(SQL)
                with pytest.raises(ServiceError, match="worker crashed"):
                    future.result(timeout=10.0)

    def test_restart_budget_bounds_resurrections(self, catalog):
        config = ServiceConfig(
            workers=1,
            healing=HealingConfig(
                requeue_limit=0,
                breaker_threshold=100,
                max_worker_restarts=2,
            ),
        )
        with armed(crash_plan(max_fires=None, probability=1.0)):
            service = EstimationService(catalog, config=config)
            try:
                for _ in range(3):
                    future = service.submit(SQL)
                    with pytest.raises(ServiceError):
                        future.result(timeout=10.0)
                snapshot = service.stats_snapshot()
                assert (
                    snapshot.namespace("resilience")["worker_restarts"]
                    <= 2.0
                )
            finally:
                service.close()


class TestCircuitBreaker:
    def test_repeated_faults_trip_and_roll_back(self, catalog, config):
        """Crash every batch on the *new* snapshot version: the breaker
        trips and fresh sessions roll back to the last good one."""
        with EstimationService(catalog, config=config) as service:
            good = service.estimate(SQL, timeout=None)
            good_version = good.snapshot_version
            catalog.notify_table_update("R")
            bad_version = catalog.version
            assert bad_version > good_version
            plan = FaultPlan(
                [
                    FaultRule(
                        point="worker_batch",
                        fault="worker_crash",
                        probability=1.0,
                        max_fires=None,
                        match=f"version={bad_version}",
                    )
                ],
                seed=0,
            )
            with armed(plan):
                answer = service.estimate(SQL, timeout=None)
            # served, and served off the rolled-back snapshot
            assert answer.snapshot_version == good_version
            snapshot = service.stats_snapshot()
        resilience = snapshot.namespace("resilience")
        assert resilience["breaker_trips"] >= 1.0
        assert resilience["snapshot_rollbacks"] >= 1.0
        assert resilience["worker_crashes"] >= config.healing.breaker_threshold

    def test_tripped_version_is_not_repinned(self, catalog, config):
        with EstimationService(catalog, config=config) as service:
            first = service.estimate(SQL, timeout=None)
            catalog.notify_table_update("R")
            bad_version = catalog.version
            plan = FaultPlan(
                [
                    FaultRule(
                        point="worker_batch",
                        fault="worker_crash",
                        probability=1.0,
                        max_fires=None,
                        match=f"version={bad_version}",
                    )
                ],
                seed=0,
            )
            with armed(plan):
                service.estimate(SQL, timeout=None)
                # once rolled back, later requests keep the good snapshot
                # (no thrash back onto the bad version)
                for _ in range(3):
                    answer = service.estimate(SQL, timeout=None)
                    assert answer.snapshot_version == first.snapshot_version


class TestFaultPathLeaks:
    def test_hot_swap_releases_retired_sessions(self, catalog):
        """The hot-swap leak regression: a retired session (and through
        it the pinned pool) must be garbage, not accumulate forever."""
        config = ServiceConfig(workers=1)
        service = EstimationService(catalog, config=config)
        try:
            service.estimate(SQL, timeout=None)
            wait_until(lambda: len(service._sessions) == 1)
            retired_ref = weakref.ref(service._sessions[0])
            catalog.notify_table_update("R")
            service.estimate(SQL, timeout=None)  # forces the swap
            wait_until(lambda: retired_ref() is None or gc.collect() is None)
            gc.collect()
            assert retired_ref() is None, "retired session still referenced"
            # telemetry of the retired session survives retirement
            counters = service.stats_snapshot().namespace("counters")
            assert counters["queries"] >= 2.0
            assert len(service._sessions) == 1
        finally:
            service.close()

    def test_crash_releases_the_session(self, catalog, config):
        with armed(crash_plan(max_fires=1)):
            service = EstimationService(catalog, config=config)
            try:
                wait_until(lambda: len(service._sessions) == 1)
                doomed_ref = weakref.ref(service._sessions[0])
                service.estimate(SQL, timeout=None)
                # the respawned worker can answer before the crashed
                # thread has unwound the frame that still names its session
                wait_until(lambda: doomed_ref() is None or gc.collect() is None)
                gc.collect()
                assert doomed_ref() is None, "crashed session leaked"
            finally:
                service.close()

    def test_queue_depth_returns_to_zero_after_shed_storm(self, catalog):
        from repro.service import Overloaded

        config = ServiceConfig(workers=1, queue_depth=2)
        service = EstimationService(catalog, config=config)
        try:
            shed = 0
            futures = []
            for _ in range(40):
                try:
                    futures.append(service.submit(SQL))
                except Overloaded:
                    shed += 1
            assert shed > 0  # the storm actually overflowed the queue
            for future in futures:
                future.result(timeout=10.0)
            assert wait_until(lambda: service.queue_depth == 0)
            gauge = service.stats_snapshot().namespace("service")
            assert gauge["queue_depth"] == 0.0
            assert gauge["shed_overload"] == float(shed)
        finally:
            service.close()

    def test_close_drain_flushes_everything_after_faults(self, catalog):
        config = ServiceConfig(
            workers=2,
            healing=HealingConfig(requeue_limit=1, max_worker_restarts=4),
        )
        with armed(crash_plan(max_fires=2, probability=1.0)):
            service = EstimationService(catalog, config=config)
            futures = [service.submit(SQL) for _ in range(10)]
            assert service.close(drain=True) is True
            for future in futures:
                assert future.done()
                exc = future.exception()
                assert exc is None or isinstance(exc, ServiceError)
            # all sessions retired on shutdown — nothing pinned
            assert service._sessions == []


class TestDegradationOverTheService:
    def test_degraded_estimates_flow_through_the_protocol(self, catalog):
        plan = FaultPlan(
            [
                FaultRule(
                    point="sit_match",
                    match="SIT(R.a | ",
                    max_fires=None,
                    probability=1.0,
                )
            ],
            seed=0,
        )
        config = ServiceConfig(workers=1)
        with armed(plan):
            with EstimationService(catalog, config=config) as service:
                answer = service.estimate(SQL, timeout=None)
                snapshot = service.stats_snapshot()
        assert answer.degradation_level >= 1
        assert answer.degraded
        assert any(
            name.startswith("SIT(R.a | ") for name in answer.excluded_sits
        )
        # and the round trip through the wire codec keeps the fields
        wire = answer.to_wire(request_id="1")
        assert wire["degradation_level"] == answer.degradation_level
        restored = ServedEstimate.from_wire(wire)
        assert restored.degradation_level == answer.degradation_level
        assert restored.excluded_sits == answer.excluded_sits
        assert snapshot.namespace("service")["degraded"] >= 1.0
