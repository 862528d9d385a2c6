"""The service under real failures: the hot swap releases what it
retires, a shed storm and a drain with degraded members leave nothing
behind, and degraded answers keep their level over the protocol."""

from __future__ import annotations

import gc
import time
import weakref

import pytest

from repro.catalog import StatisticsCatalog
from repro.service import EstimationService, ServiceConfig, ServiceError
from repro.service.protocol import ServedEstimate
from repro.stats.pool import SITPool

SQL = "SELECT * FROM R, S WHERE R.x = S.y AND R.a BETWEEN 10 AND 40"
#: a filter on ``S.b``, which the ``uncovered`` catalog has no statistic for
UNCOVERED_SQL = "SELECT * FROM R, S WHERE R.x = S.y AND S.b BETWEEN 20 AND 70"
#: a column the schema does not have: refused before it reaches a worker
UNKNOWN_SQL = "SELECT * FROM R, S WHERE R.x = S.y AND S.zz BETWEEN 20 AND 70"


@pytest.fixture()
def uncovered(two_table_db, two_table_pool, two_table_attrs) -> StatisticsCatalog:
    """A catalog whose pool has no statistic on ``S.b``."""
    sb = two_table_attrs["Sb"]
    return StatisticsCatalog.from_pool(
        SITPool([sit for sit in two_table_pool if sit.attribute != sb]),
        database=two_table_db,
    )


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

    def test_close_drain_flushes_everything_after_faults(self, uncovered):
        """Covered and uncovered members queued together, and one with an
        unknown column refused typed at admission: the drain resolves
        every queued future, answered or degraded, and retires every
        session."""
        config = ServiceConfig(workers=2)
        service = EstimationService(uncovered, config=config)
        futures = [service.submit(sql) for sql in (SQL, UNCOVERED_SQL) * 4]
        with pytest.raises(ServiceError):
            service.submit(UNKNOWN_SQL)
        assert service.close(drain=True) is True
        for future in futures:
            assert future.done()
            assert future.exception() is None
        levels = sorted({f.result().degradation_level for f in futures})
        assert levels == [0, 3]
        # all sessions retired on shutdown — nothing pinned
        assert service._sessions == []


class TestDegradationOverTheService:
    def test_degraded_estimates_flow_through_the_protocol(self, uncovered):
        config = ServiceConfig(workers=1)
        with EstimationService(uncovered, config=config) as service:
            answer = service.estimate(UNCOVERED_SQL, timeout=None)
            snapshot = service.stats_snapshot()
        assert answer.degradation_level == 3
        assert answer.degraded
        # and the round trip through the wire codec keeps the fields
        wire = answer.to_wire(request_id="1")
        assert wire["degradation_level"] == answer.degradation_level
        assert "excluded_sits" not in wire
        restored = ServedEstimate.from_wire(wire)
        assert restored == answer
        assert snapshot.namespace("service")["degraded"] >= 1.0
