"""The one feedback store (:mod:`repro.advisor.feedback`): the bounded
window of served observations, engine-exact truth per predicate set,
the lock both halves share, and the LEO-style estimator on top."""

import sys
import threading

import pytest

from repro.advisor.feedback import (
    DEFAULT_CAPACITY,
    FeedbackEstimator,
    FeedbackStore,
)
from repro.estimators import make_gs_diff
from repro.core.predicates import FilterPredicate
from repro.engine.executor import Executor
from repro.engine.expressions import Query


@pytest.fixture()
def query(two_table_join, two_table_attrs):
    return Query.of(
        two_table_join, FilterPredicate(two_table_attrs["Ra"], 0, 20)
    )


def predicate_set(two_table_attrs, low: float, attribute: str = "Ra"):
    return frozenset(
        {FilterPredicate(two_table_attrs[attribute], low, low + 1.0)}
    )


class TestWindow:
    def test_append_returns_record_with_derived_fields(self, two_table_attrs):
        store = FeedbackStore()
        predicates = predicate_set(two_table_attrs, 3.0)
        record = store.observe(predicates, 42.0, matched_sits=("b", "a"))
        assert record.seq == 0
        assert record.predicates == predicates
        assert record.estimated_cardinality == 42.0
        assert record.matched_sits == ("a", "b")  # sorted
        assert record.tables == frozenset({"R"})

    def test_capacity_bound_drops_oldest(self, two_table_attrs):
        store = FeedbackStore(capacity=3)
        for low in range(5):
            store.observe(predicate_set(two_table_attrs, float(low)), 1.0)
        records = store.records()
        assert len(records) == 3
        assert len(store) == 3
        # oldest two were evicted; sequence numbers keep counting
        assert [r.seq for r in records] == [2, 3, 4]
        counters = store.counters()
        assert counters["feedback_records"] == 3.0
        assert counters["feedback_appended"] == 5.0
        assert counters["feedback_dropped"] == 2.0

    def test_records_is_a_snapshot(self, two_table_attrs):
        store = FeedbackStore(capacity=4)
        store.observe(predicate_set(two_table_attrs, 0.0), 1.0)
        snapshot = store.records()
        store.observe(predicate_set(two_table_attrs, 1.0), 2.0)
        assert len(snapshot) == 1
        assert isinstance(snapshot, tuple)

    def test_clear_reports_count(self, two_table_attrs):
        store = FeedbackStore(capacity=8)
        for low in range(3):
            store.observe(predicate_set(two_table_attrs, float(low)), 1.0)
        assert store.clear() == 3
        assert len(store) == 0
        # appended/dropped history survives a clear
        assert store.counters()["feedback_appended"] == 3.0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            FeedbackStore(capacity=0)

    def test_default_capacity(self):
        assert FeedbackStore().capacity == DEFAULT_CAPACITY


class TestRepository:
    def test_record_and_lookup(self, query):
        store = FeedbackStore()
        store.record_truth(query.predicates, 123)
        assert store.lookup_truth(query.predicates) == 123
        assert store.hits == 1

    def test_miss_counted(self, query):
        store = FeedbackStore()
        assert store.lookup_truth(query.predicates) is None
        assert store.misses == 1

    def test_negative_cardinality_rejected(self, query):
        with pytest.raises(ValueError):
            FeedbackStore().record_truth(query.predicates, -1)

    def test_record_from_execution(self, two_table_db, query):
        store = FeedbackStore()
        executor = Executor(two_table_db)
        value = store.observe_truth(executor, query.predicates)
        assert value == executor.cardinality(query.predicates)
        assert store.counters()["truth_entries"] == 1.0

    def test_invalidate_table(self, query, two_table_attrs):
        store = FeedbackStore()
        store.record_truth(query.predicates, 5)
        other = predicate_set(two_table_attrs, 0.0, "Sb")
        store.record_truth(other, 7)
        store.observe(query.predicates, 1.0)
        assert store.invalidate_table("R") == 1
        assert store.counters()["truth_entries"] == 1.0
        assert store.lookup_truth(other) == 7
        # truth went stale, what was served did not
        assert len(store) == 1

    def test_truth_is_lru_by_use(self, two_table_attrs):
        store = FeedbackStore(capacity=2)
        first, second, third = (
            predicate_set(two_table_attrs, low) for low in (0.0, 1.0, 2.0)
        )
        store.record_truth(first, 1)
        store.record_truth(second, 2)
        assert store.lookup_truth(first) == 1  # a hit refreshes recency
        store.record_truth(third, 3)
        assert store.lookup_truth(second) is None  # least recently used
        assert store.lookup_truth(first) == 1
        assert store.lookup_truth(third) == 3

    def test_counters_cover_both_halves(self, two_table_attrs):
        store = FeedbackStore(capacity=2)
        for low in range(3):
            predicates = predicate_set(two_table_attrs, float(low))
            store.observe(predicates, 1.0)
            store.record_truth(predicates, low)
        store.lookup_truth(predicate_set(two_table_attrs, 2.0))
        store.lookup_truth(predicate_set(two_table_attrs, 0.0))
        assert store.counters() == {
            "feedback_records": 2.0,
            "feedback_appended": 3.0,
            "feedback_dropped": 1.0,
            "truth_entries": 2.0,
            "truth_hits": 1.0,
            "truth_misses": 1.0,
            "truth_evictions": 1.0,
        }


class CountingLock:
    """A lock that counts how often it is taken."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.acquired = 0

    def __enter__(self) -> None:
        self._lock.acquire()
        self.acquired += 1

    def __exit__(self, *exc) -> None:
        self._lock.release()


class FixedExecutor:
    def cardinality(self, predicates) -> int:
        return 1


class TestOneLock:
    @pytest.mark.parametrize(
        "call",
        [
            lambda store, p: store.observe(p, 1.0),
            lambda store, p: store.records(),
            lambda store, p: store.clear(),
            lambda store, p: len(store),
            lambda store, p: store.record_truth(p, 1),
            lambda store, p: store.lookup_truth(p),
            lambda store, p: store.observe_truth(FixedExecutor(), p),
            lambda store, p: store.invalidate_table("R"),
            lambda store, p: store.counters(),
        ],
        ids=[
            "observe",
            "records",
            "clear",
            "len",
            "record_truth",
            "lookup_truth",
            "observe_truth",
            "invalidate_table",
            "counters",
        ],
    )
    def test_every_method_touching_the_records_takes_the_lock(
        self, call, two_table_attrs
    ):
        store = FeedbackStore()
        store._lock = spy = CountingLock()
        call(store, predicate_set(two_table_attrs, 0.0))
        assert spy.acquired >= 1

    def test_invalidation_races_observe_and_truth(self, two_table_attrs):
        """Serving and tuning on one thread, a writer's
        ``invalidate_table`` on the other for as long as the first runs:
        nothing raises, and nothing is lost that the invalidation did
        not own.  (With the lock swapped for ``contextlib.nullcontext()``
        this ends in ``dictionary changed size during iteration``.)"""
        store = FeedbackStore(capacity=64)
        r_sets = [predicate_set(two_table_attrs, float(i)) for i in range(48)]
        s_set = predicate_set(two_table_attrs, 0.0, "Sb")
        store.record_truth(s_set, 7)
        rounds = 1000
        errors: list[Exception] = []
        start = threading.Barrier(2)
        served = threading.Event()

        def serve_and_tune() -> None:
            try:
                start.wait(timeout=30.0)
                for _ in range(rounds):
                    for index, predicates in enumerate(r_sets):
                        store.observe(predicates, 1.0)
                        if store.lookup_truth(predicates) is None:
                            store.record_truth(predicates, index)
            except Exception as error:  # reported by the assert below
                errors.append(error)
            finally:
                served.set()

        def invalidate() -> None:
            try:
                start.wait(timeout=30.0)
                while not served.is_set():
                    store.invalidate_table("R")
            except Exception as error:  # reported by the assert below
                errors.append(error)

        threads = [
            threading.Thread(target=body, daemon=True)
            for body in (serve_and_tune, invalidate)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        counters = store.counters()
        assert counters["feedback_appended"] == rounds * len(r_sets)
        assert counters["truth_hits"] + counters["truth_misses"] == (
            rounds * len(r_sets)
        )
        assert store.lookup_truth(s_set) == 7  # another table's truth stays


class TestFeedbackEstimator:
    def test_observed_query_is_exact(self, two_table_db, two_table_pool, query):
        executor = Executor(two_table_db)
        estimator = FeedbackEstimator(make_gs_diff(two_table_db, two_table_pool))
        estimator.observe(executor, query)
        assert estimator.cardinality(query) == executor.cardinality(
            query.predicates
        )

    def test_unobserved_falls_back_to_sits(
        self, two_table_db, two_table_pool, query
    ):
        base = make_gs_diff(two_table_db, two_table_pool)
        estimator = FeedbackEstimator(base)
        assert estimator.cardinality(query) == pytest.approx(
            base.cardinality(query)
        )

    def test_component_feedback_composes_exactly(
        self, two_table_db, two_table_pool, two_table_attrs
    ):
        # Two table-disjoint filters: observing each component separately
        # gives the exact product (Property 2).
        executor = Executor(two_table_db)
        f_r = FilterPredicate(two_table_attrs["Ra"], 0, 20)
        f_s = FilterPredicate(two_table_attrs["Sb"], 0, 50)
        query = Query.of(f_r, f_s)
        estimator = FeedbackEstimator(make_gs_diff(two_table_db, two_table_pool))
        estimator.observe(executor, Query.of(f_r))
        estimator.observe(executor, Query.of(f_s))
        assert estimator.cardinality(query) == executor.cardinality(
            query.predicates
        )

    def test_recorded_component_replaces_its_estimated_factor(
        self, two_table_db, two_table_pool, two_table_attrs
    ):
        # Step 3 of the resolution order: one component observed, the
        # other estimated from SITs.
        executor = Executor(two_table_db)
        f_r = FilterPredicate(two_table_attrs["Ra"], 0, 20)
        f_s = FilterPredicate(two_table_attrs["Sb"], 0, 50)
        query = Query.of(f_r, f_s)
        base = make_gs_diff(two_table_db, two_table_pool)
        estimator = FeedbackEstimator(base)
        estimator.observe(executor, Query.of(f_r))
        assert estimator.cardinality(query) == pytest.approx(
            executor.cardinality(frozenset({f_r}))
            * base.subquery_cardinality(query, frozenset({f_s}))
        )

    def test_empty_query(self, two_table_db, two_table_pool):
        estimator = FeedbackEstimator(make_gs_diff(two_table_db, two_table_pool))
        query = Query(frozenset(), tables=frozenset(("R",)))
        assert estimator.cardinality(query) == 2000

    def test_invalidation_restores_estimate(
        self, two_table_db, two_table_pool, query
    ):
        executor = Executor(two_table_db)
        base = make_gs_diff(two_table_db, two_table_pool)
        estimator = FeedbackEstimator(base)
        estimator.observe(executor, query)
        estimator.feedback.invalidate_table("R")
        assert estimator.cardinality(query) == pytest.approx(
            base.cardinality(query)
        )
