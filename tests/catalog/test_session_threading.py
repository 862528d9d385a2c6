"""Thread-handoff safety of :class:`EstimationSession`.

The serving layer (:mod:`repro.service`) hands sessions between worker
threads and refreshes the catalog while sessions are estimating.  These
regressions pin the contract that makes that safe:

* a concurrent ``catalog.refresh()`` / ``notify_table_update`` never
  mutates (or swaps) a session's in-use pool — the pinned-snapshot
  invariant;
* sequential hand-off between threads is allowed;
* *concurrent* driving of one session is rejected loudly instead of
  corrupting the DP state silently.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.catalog import EstimationSession, StatisticsCatalog
from repro.core.predicates import FilterPredicate
from repro.engine.expressions import Query


@pytest.fixture()
def catalog(two_table_db, two_table_pool):
    return StatisticsCatalog.from_pool(two_table_pool, database=two_table_db)


@pytest.fixture()
def query(two_table_join, two_table_attrs):
    return Query.of(
        two_table_join, FilterPredicate(two_table_attrs["Ra"], 0, 20)
    )


class TestRefreshIsolation:
    def test_concurrent_refresh_never_mutates_in_use_pool(
        self, catalog, query
    ):
        """Estimate in a worker thread while the main thread hammers the
        invalidation + refresh path; the session's pool object, SIT
        membership and answers must not move."""
        session = EstimationSession(catalog)
        pinned_pool = session.pool
        pinned_sits = set(session.pool)
        baseline = session.selectivity(query)

        results: list[float] = []
        errors: list[BaseException] = []
        stop = threading.Event()

        def estimate_loop() -> None:
            try:
                while not stop.is_set():
                    session.assert_pinned()
                    results.append(session.selectivity(query))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        worker = threading.Thread(target=estimate_loop)
        worker.start()
        try:
            deadline = time.monotonic() + 1.0
            cycles = 0
            while cycles < 3 or (
                time.monotonic() < deadline and len(results) < 50
            ):
                catalog.notify_table_update("R")
                catalog.notify_table_update("S")
                catalog.refresh()
                cycles += 1
        finally:
            stop.set()
            worker.join(timeout=10.0)

        assert not worker.is_alive()
        assert not errors
        assert results, "worker never completed an estimate"
        # the catalog really did move on ...
        assert catalog.version > session.snapshot_version
        assert not session.is_current
        # ... yet the session's statistics never did
        assert session.pool is pinned_pool
        assert set(session.pool) == pinned_sits
        assert all(value == baseline for value in results)

    def test_assert_pinned_passes_after_refresh(self, catalog, query):
        session = EstimationSession(catalog)
        session.selectivity(query)
        catalog.notify_table_update("S")
        catalog.refresh()
        session.assert_pinned()  # must not raise


class TestHandOff:
    def test_sequential_hand_off_between_threads(self, catalog, query):
        """Thread A estimates, hands the session to thread B; both get
        identical answers off the shared caches."""
        session = EstimationSession(catalog)
        answers: dict[str, float] = {}

        def run(label: str) -> None:
            answers[label] = session.selectivity(query)

        for label in ("a", "b"):
            thread = threading.Thread(target=run, args=(label,))
            thread.start()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert answers["a"] == answers["b"]
        assert session.queries == 2

    def test_concurrent_use_is_rejected(self, catalog, query):
        """Two threads driving one session: exactly one side proceeds,
        the other gets a RuntimeError (never silent corruption)."""
        session = EstimationSession(catalog)
        entered = threading.Event()
        release = threading.Event()

        original = session.estimator.estimate_predicates

        def slow_estimate(predicates, **kwargs):
            entered.set()
            release.wait(timeout=10.0)
            return original(predicates, **kwargs)

        session.estimator.estimate_predicates = slow_estimate  # type: ignore[method-assign]
        holder_error: list[BaseException] = []

        def holder() -> None:
            try:
                session.estimate(query)
            except BaseException as exc:  # pragma: no cover - failure path
                holder_error.append(exc)

        thread = threading.Thread(target=holder)
        thread.start()
        try:
            assert entered.wait(timeout=10.0)
            with pytest.raises(RuntimeError, match="single-owner"):
                session.estimate(query)
        finally:
            release.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert not holder_error
