"""EstimationService: parity with the direct estimator (including across
a mid-load snapshot swap), admission control, deadlines and lifecycle."""

from __future__ import annotations

import threading
import time

import pytest

from repro.estimators import SITEstimator
from repro.engine.expressions import Query
from repro.service import (
    EstimationService,
    Overloaded,
    ServiceConfig,
)
from repro.service.protocol import (
    DeadlineExceeded,
    InvalidRequest,
    ServiceClosed,
)

FAST = ServiceConfig(workers=1, queue_depth=64)


def direct_answer(database, snapshot, query: Query):
    """The single-threaded ground truth on one pinned snapshot."""
    estimator = SITEstimator(database, snapshot)
    result = estimator.estimate(query)
    cross = database.cross_product_size(query.tables)
    return (
        result.selectivity,
        result.selectivity * cross,
        result.error,
    )


class TestParity:
    def test_served_estimate_is_bit_identical_to_direct(
        self, two_table_db, service_catalog, factor_sharing_queries
    ):
        snapshot = service_catalog.snapshot()
        with EstimationService(service_catalog, config=FAST) as service:
            for query in factor_sharing_queries:
                served = service.estimate(query)
                selectivity, cardinality, error = direct_answer(
                    two_table_db, snapshot, query
                )
                assert served.snapshot_version == snapshot.version
                assert served.selectivity == selectivity
                assert served.cardinality == cardinality
                assert served.error == error

    def test_parity_holds_across_mid_load_refresh(
        self, two_table_db, service_catalog, join_query, session_gate
    ):
        """The acceptance gate: answers stay bit-identical to a direct
        estimator *on the snapshot they report*, even when the catalog
        is invalidated and refreshed while requests are in flight."""
        catalog = service_catalog
        first = catalog.version
        snapshots = {first: catalog.snapshot()}
        answers = []
        with EstimationService(catalog, config=FAST) as service:
            # the worker holds the first request inside its session, so
            # no plan is published yet and the other eight stay queued
            futures = [service.submit(join_query)]
            session_gate.wait_entered()
            futures += [service.submit(join_query) for _ in range(8)]

            # move the catalog under the requests in flight
            assert not any(future.done() for future in futures)
            catalog.notify_table_update("R")
            snapshots[catalog.version] = catalog.snapshot()
            report = catalog.refresh()
            assert report.rebuilt  # the update really dirtied SITs
            snapshots[catalog.version] = catalog.snapshot()
            assert not any(future.done() for future in futures)
            session_gate.open()
            answers.extend(future.result(timeout=30.0) for future in futures)
            # the held batch answers on the snapshot it was pinned to, the
            # queued one on the snapshot its worker rolled to
            assert [served.snapshot_version for served in answers] == [
                first
            ] + [catalog.version] * 8

            # keep serving until a worker has rolled to the new snapshot
            deadline = time.monotonic() + 30.0
            while True:
                served = service.estimate(join_query)
                answers.append(served)
                if served.snapshot_version == catalog.version:
                    break
                assert time.monotonic() < deadline, "never rolled snapshots"
            assert service.stats_snapshot().service["snapshot_swaps"] >= 1.0

        seen_versions = {served.snapshot_version for served in answers}
        assert len(seen_versions) >= 2  # old and new snapshots both served
        for served in answers:
            assert served.snapshot_version in snapshots
            selectivity, cardinality, error = direct_answer(
                two_table_db, snapshots[served.snapshot_version], join_query
            )
            assert served.selectivity == selectivity
            assert served.cardinality == cardinality
            assert served.error == error

    def test_answers_on_arrival_racing_refreshes_stay_bit_identical(
        self, two_table_db, service_catalog, join_query
    ):
        """A reader thread asks a compiled shape — answered on arrival —
        while the main thread notifies and refreshes.  Every answer
        equals a direct estimator's on the snapshot it reports, and none
        reports a version older than the catalog's when it was asked."""
        catalog = service_catalog
        snapshots = {catalog.version: catalog.snapshot()}
        asked: list[tuple[int, object]] = []
        stop = threading.Event()

        def read() -> None:
            while not stop.is_set():
                version = catalog.version
                asked.append((version, service.estimate(join_query)))

        def wait_for(count: int) -> None:
            deadline = time.monotonic() + 30.0
            while len(asked) < count:
                assert time.monotonic() < deadline, "the reader stalled"
                time.sleep(0.001)

        with EstimationService(catalog, config=FAST) as service:
            service.estimate(join_query)  # compiled, and published
            reader = threading.Thread(target=read, daemon=True)
            reader.start()
            try:
                wait_for(20)
                for table in ("R", "S", "R"):
                    catalog.notify_table_update(table)
                    snapshots[catalog.version] = catalog.snapshot()
                    catalog.refresh()
                    snapshots[catalog.version] = catalog.snapshot()
                wait_for(len(asked) + 20)
            finally:
                stop.set()
                reader.join(timeout=30.0)
            assert not reader.is_alive()
            stats = service.stats_snapshot().service

        # at the least, every ask before the first notify
        assert stats["answered_on_arrival"] >= 20.0
        assert asked[0][1].snapshot_version < catalog.version
        assert asked[-1][1].snapshot_version == catalog.version
        expected = {
            version: direct_answer(two_table_db, snapshot, join_query)
            for version, snapshot in snapshots.items()
        }
        for version, served in asked:
            assert served.snapshot_version >= version
            assert (
                served.selectivity,
                served.cardinality,
                served.error,
            ) == expected[served.snapshot_version]


class TestAdmissionControl:
    def test_overload_sheds_with_typed_response(
        self, service_catalog, join_query, session_gate
    ):
        """A full queue answers Overloaded immediately — no blocking, no
        hang — and everything admitted is still served."""
        config = ServiceConfig(workers=1, queue_depth=1, max_batch=1)
        service = EstimationService(service_catalog, config=config)
        try:
            stalled = service.submit(join_query)
            session_gate.wait_entered()  # the worker picked the request up
            queued = service.submit(join_query)  # fills the depth-1 queue
            with pytest.raises(Overloaded):
                service.submit(join_query)
            stats = service.stats_snapshot().service
            assert stats["shed_overload"] == 1.0
            session_gate.open()
            assert stalled.result(timeout=30.0).selectivity > 0.0
            assert queued.result(timeout=30.0).selectivity > 0.0
        finally:
            session_gate.open()
            service.close()

    def test_expired_deadline_is_shed_at_dequeue(
        self, service_catalog, join_query
    ):
        with EstimationService(service_catalog, config=FAST) as service:
            future = service.submit(join_query, timeout=0.0)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=30.0)
            stats = service.stats_snapshot().service
            assert stats["shed_deadline"] == 1.0

    def test_invalid_requests_are_typed(self, service_catalog):
        with EstimationService(service_catalog, config=FAST) as service:
            with pytest.raises(InvalidRequest):
                service.submit("SELECT * FROM nowhere WHERE")
            with pytest.raises(InvalidRequest):
                service.submit(frozenset())
            with pytest.raises(InvalidRequest):
                service.submit(12345)


class TestLifecycle:
    def test_graceful_drain_serves_everything_admitted(
        self, service_catalog, factor_sharing_queries
    ):
        service = EstimationService(service_catalog, config=FAST)
        futures = [
            service.submit(query)
            for query in factor_sharing_queries * 3
        ]
        assert service.close(drain=True) is True
        for future in futures:
            assert future.result(timeout=1.0).selectivity >= 0.0
        assert service.closed

    def test_submit_after_close_raises_closed(
        self, service_catalog, join_query
    ):
        service = EstimationService(service_catalog, config=FAST)
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(join_query)
        assert service.close() is True  # idempotent

    def test_hard_close_flushes_backlog_typed(
        self, service_catalog, join_query, session_gate
    ):
        config = ServiceConfig(workers=1, queue_depth=8, max_batch=1)
        service = EstimationService(service_catalog, config=config)
        stalled = service.submit(join_query)
        session_gate.wait_entered()
        backlogged = service.submit(join_query)
        service.close(drain=False, timeout=0.2)
        with pytest.raises(ServiceClosed):
            backlogged.result(timeout=5.0)
        session_gate.open()
        stalled.result(timeout=30.0)  # in-flight work still completes

    def test_drain_timeout_bounds_a_graceful_close(
        self, service_catalog, join_query, session_gate
    ):
        """A graceful close waits ``drain_timeout_s`` for the backlog: at
        0 it gives up at once and fails what is still queued, typed."""
        config = ServiceConfig(
            workers=1, queue_depth=8, max_batch=1, drain_timeout_s=0.0
        )
        service = EstimationService(service_catalog, config=config)
        stalled = service.submit(join_query)
        session_gate.wait_entered()
        backlogged = service.submit(join_query)
        assert service.close() is False
        with pytest.raises(ServiceClosed):
            backlogged.result(timeout=5.0)
        session_gate.open()
        stalled.result(timeout=30.0)

    def test_default_timeout_is_the_deadline_of_a_request_naming_none(
        self, service_catalog, join_query, session_gate
    ):
        config = ServiceConfig(
            workers=1, queue_depth=8, max_batch=1, default_timeout_s=1e-9
        )
        with EstimationService(service_catalog, config=config) as service:
            stalled = service.submit(join_query, timeout=60.0)
            session_gate.wait_entered()
            defaulted = service.submit(join_query)
            explicit = service.submit(join_query, timeout=60.0)
            session_gate.open()
            assert stalled.result(timeout=30.0).selectivity > 0.0
            with pytest.raises(DeadlineExceeded):
                defaulted.result(timeout=30.0)
            assert explicit.result(timeout=30.0).selectivity > 0.0
            assert service.stats_snapshot().service["shed_deadline"] == 1.0


class TestObservability:
    def test_service_namespace_in_stats_snapshot(
        self, service_catalog, factor_sharing_queries
    ):
        """One shape, six requests: the first compiles on the worker and
        the other five are answered on arrival — counted as submitted,
        served, timed and plan-cache hits, but in no batch and not in
        the session's ``queries``."""
        count = len(factor_sharing_queries)
        with EstimationService(service_catalog, config=FAST) as service:
            for query in factor_sharing_queries:
                service.estimate(query)
            snapshot = service.stats_snapshot()
        stats = snapshot.service
        assert stats["submitted"] == float(count)
        assert stats["served"] == float(count)
        assert stats["answered_on_arrival"] == float(count - 1)
        assert stats["batches"] == 1.0
        assert stats["batched_requests"] == 1.0
        assert stats["queue_depth"] == 0.0
        assert stats["workers"] == 1.0
        latency = stats["latency_ms"]
        assert latency["count"] == float(count)
        assert set(latency) >= {"p50", "p95", "p99"}
        # the worker sessions' telemetry rides along in the usual places
        assert snapshot.counters["queries"] == 1.0
        assert snapshot.plan_cache["hits"] == float(count - 1)
        assert snapshot.plan_cache["misses"] == 1.0
        assert snapshot.plan_cache["hit_rate"] == (count - 1) / count
        assert snapshot.to_dict()["service"] == stats

    def test_queue_depth_gauge_tracks_backlog(
        self, service_catalog, join_query, session_gate
    ):
        config = ServiceConfig(workers=1, queue_depth=8, max_batch=1)
        service = EstimationService(service_catalog, config=config)
        try:
            first = service.submit(join_query)
            session_gate.wait_entered()
            backlog = [service.submit(join_query) for _ in range(3)]
            stats = service.stats_snapshot().service
            assert stats["queue_depth"] == 3.0
            session_gate.open()
            for future in [first, *backlog]:
                future.result(timeout=30.0)
        finally:
            session_gate.open()
            service.close()
