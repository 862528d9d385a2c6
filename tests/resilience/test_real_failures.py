"""The failures the stack really has, served through the ladder or the
worker's one safety net rather than escaping as a hung or failed batch.

* An attribute no statistic covers: level 0 raises
  ``NoApplicableStatisticsError``, and the estimator answers at level 3
  — in process and over TCP.  ``strict=True`` still raises.
* An exception while a worker pins a fresh session: the batch fails
  typed, the worker keeps serving, and the next batch pins again.
"""

from __future__ import annotations

import time

import pytest

from repro.catalog import EstimationSession, StatisticsCatalog
from repro.core.get_selectivity import NoApplicableStatisticsError
from repro.core.predicates import FilterPredicate
from repro.engine.expressions import Query
from repro.estimators import GuaranteedSampleEstimator, SITEstimator
from repro.resilience import (
    LEVEL_MAGIC,
    LEVEL_NORMAL,
    MAGIC_FILTER_SELECTIVITY,
    MAGIC_JOIN_SELECTIVITY,
)
from repro.service import EstimationService, ServiceConfig, ServiceError, connect
from repro.service.protocol import ServedEstimate
from repro.service.server import start_in_thread
from repro.stats.pool import SITPool

SQL = "SELECT * FROM R, S WHERE R.x = S.y AND R.a BETWEEN 10 AND 40"
UNCOVERED_SQL = "SELECT * FROM R, S WHERE R.x = S.y AND S.b BETWEEN 20 AND 70"


def wait_until(predicate, timeout=5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


@pytest.fixture()
def uncovered_pool(two_table_pool, two_table_attrs) -> SITPool:
    """The two-table pool without any statistic on ``S.b``."""
    sb = two_table_attrs["Sb"]
    return SITPool([sit for sit in two_table_pool if sit.attribute != sb])


@pytest.fixture()
def uncovered_query(two_table_attrs, two_table_join) -> Query:
    return Query.of(
        two_table_join, FilterPredicate(two_table_attrs["Sb"], 20.0, 70.0)
    )


class TestUncoveredAttribute:
    def test_estimator_answers_with_magic_constants(
        self, two_table_db, uncovered_pool, uncovered_query
    ):
        estimator = SITEstimator(two_table_db, uncovered_pool)
        result = estimator.estimate(uncovered_query)
        assert result.degradation_level == LEVEL_MAGIC
        assert result.selectivity == (
            MAGIC_FILTER_SELECTIVITY * MAGIC_JOIN_SELECTIVITY
        )
        resilience = estimator.stats_snapshot().namespace("resilience")
        assert resilience["faults_no_statistics"] == 1.0
        assert resilience["degraded_level3"] == 1.0
        assert "degraded_level2" not in resilience

    def test_estimator_answers_from_the_fallback_estimator(
        self, two_table_db, uncovered_pool, uncovered_query
    ):
        fallback = GuaranteedSampleEstimator(two_table_db)
        estimator = SITEstimator(
            two_table_db, uncovered_pool, fallback_estimator=fallback
        )
        result = estimator.estimate(uncovered_query)
        assert result.degradation_level == LEVEL_MAGIC
        assert result.backend == "sample"
        assert result.selectivity == fallback.estimate(uncovered_query).selectivity

    def test_session_answers_at_level_three(
        self, two_table_db, uncovered_pool, uncovered_query
    ):
        session = EstimationSession(uncovered_pool, database=two_table_db)
        result = session.estimate(uncovered_query)
        assert result.degradation_level == LEVEL_MAGIC
        assert 0.0 <= result.selectivity <= 1.0
        snapshot = session.stats_snapshot()
        assert snapshot.namespace("resilience")["faults_no_statistics"] == 1.0

    def test_a_strict_session_still_raises(
        self, two_table_db, uncovered_pool, uncovered_query
    ):
        session = EstimationSession(
            uncovered_pool, database=two_table_db, strict=True
        )
        with pytest.raises(NoApplicableStatisticsError):
            session.estimate(uncovered_query)

    def test_service_answers_at_level_three(self, two_table_db, uncovered_pool):
        service = EstimationService(
            uncovered_pool,
            database=two_table_db,
            config=ServiceConfig(workers=1),
        )
        with service:
            answer = service.estimate(UNCOVERED_SQL, timeout=None)
            stats = service.stats_snapshot()
        assert isinstance(answer, ServedEstimate)
        assert answer.degradation_level == LEVEL_MAGIC
        assert 0.0 <= answer.selectivity <= 1.0
        assert stats.namespace("resilience")["faults_no_statistics"] == 1.0
        assert stats.namespace("service")["degraded"] == 1.0

    def test_tcp_answers_at_level_three(self, two_table_db, uncovered_pool):
        """Over the wire the answer keeps its level, a covered query on
        the same connection stays at level 0, and the stats carry the
        fault count."""
        service = EstimationService(
            uncovered_pool,
            database=two_table_db,
            config=ServiceConfig(workers=1),
        )
        with start_in_thread(service, port=0) as handle:
            with connect(handle.address, timeout_s=30.0) as client:
                answer = client.estimate(UNCOVERED_SQL)
                covered = client.estimate(SQL)
                stats = client.stats()
            assert handle.close() is True
        assert answer.degradation_level == LEVEL_MAGIC
        assert 0.0 <= answer.selectivity <= 1.0
        assert covered.degradation_level == LEVEL_NORMAL
        assert stats["resilience"]["faults_no_statistics"] == 1.0
        assert stats["resilience"]["degraded_level3"] == 1.0

    def test_a_mixed_batch_answers_both_members(
        self, two_table_db, uncovered_pool, join_filter_query
    ):
        """One group, one batch: the uncovered member degrades on its
        own, and the covered one (``SQL``) is answered at level 0 as if
        alone."""
        alone = EstimationSession(
            uncovered_pool, database=two_table_db, plan_cache=False
        ).estimate(join_filter_query)
        service = EstimationService(
            uncovered_pool,
            database=two_table_db,
            config=ServiceConfig(workers=1),
        )
        with service:
            futures = service.submit_many(
                [(SQL, None), (UNCOVERED_SQL, None)]
            )
            covered, uncovered = (future.result(timeout=10.0) for future in futures)
        assert covered.batch_size == uncovered.batch_size == 2
        assert covered.degradation_level == LEVEL_NORMAL
        assert (covered.selectivity, covered.error) == (
            alone.selectivity,
            alone.error,
        )
        assert uncovered.degradation_level == LEVEL_MAGIC


class TestPinFailure:
    def test_a_failed_pin_fails_its_batch_and_the_worker_serves_on(
        self, catalog: StatisticsCatalog, monkeypatch
    ):
        service = EstimationService(catalog, config=ServiceConfig(workers=1))
        try:
            assert wait_until(lambda: len(service._sessions) == 1)
            pinned = service._sessions[0].snapshot_version
            make_session = service._make_session

            def failing():
                raise MemoryError("no room for a session")

            monkeypatch.setattr(service, "_make_session", failing)
            catalog.notify_table_update("R")
            future = service.submit(SQL)
            with pytest.raises(ServiceError, match="no room for a session"):
                future.result(timeout=5.0)
            # the old session stays in rotation until a pin succeeds
            assert [s.snapshot_version for s in service._sessions] == [pinned]
            monkeypatch.setattr(service, "_make_session", make_session)
            answer = service.estimate(SQL, timeout=5.0)
            assert answer.snapshot_version == catalog.version
            assert service.stats_snapshot().service["workers"] == 1.0
        finally:
            assert service.close(timeout=5.0) is True

    def test_a_failed_first_pin_is_retried_at_the_first_batch(
        self, catalog: StatisticsCatalog, monkeypatch
    ):
        make_session = EstimationService._make_session
        calls = []

        def fails_once(self):
            calls.append(None)
            if len(calls) == 1:
                raise MemoryError("no room for a session")
            return make_session(self)

        monkeypatch.setattr(EstimationService, "_make_session", fails_once)
        with EstimationService(catalog, config=ServiceConfig(workers=1)) as service:
            assert wait_until(lambda: len(calls) == 1)
            answer = service.estimate(SQL, timeout=5.0)
        assert answer.snapshot_version == catalog.version
        assert len(calls) == 2
