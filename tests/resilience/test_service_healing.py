"""The service under faults: the hot swap releases what it retires, a
shed storm and a faulted drain leave nothing behind, and degraded
answers keep their level over the protocol."""

from __future__ import annotations

import gc
import time
import weakref

from repro.resilience.faults import FaultPlan, FaultRule, armed
from repro.service import EstimationService, ServiceConfig, ServiceError
from repro.service.protocol import ServedEstimate

SQL = "SELECT * FROM R, S WHERE R.x = S.y AND R.a BETWEEN 10 AND 40"


def wait_until(predicate, timeout=5.0, interval=0.01) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


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
        config = ServiceConfig(workers=2)
        plan = FaultPlan(
            [
                FaultRule(point="histogram_join", probability=1.0, max_fires=2)
            ],
            seed=0,
        )
        with armed(plan):
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
                    point="histogram_join",
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
