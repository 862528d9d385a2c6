"""The derived-histogram memo: every operand pair is joined once per pool.

A cold estimate joins the same SIT histograms for every factor sharing a
join, the plan compiler joins each head factor again, and every session
over one pool — every service worker, every recompile after a notify —
asks for the same joins.  The entries live on the pool
(``SITPool.derived_joins``); each DP reads them through its own
``JoinMemo`` view.  These tests count calls into the join kernel on the
snowflake fixture and read the ``caches.join_memo_*`` metrics
``GetSelectivity.metrics_registry()`` exports.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import pytest

import repro.core.matching as matching
from repro.catalog import EstimationSession
from repro.core import get_selectivity
from repro.core.errors import NIndError
from repro.core.get_selectivity import GetSelectivity
from repro.core.plancache import PlanCache
from repro.core.predicates import FilterPredicate
from repro.stats.pool import SITPool
from repro.workload.fixture import snowflake_fixture
from tests.conftest import with_reference_engine


@pytest.fixture()
def fixture():
    fixture = snowflake_fixture(0.05, 11, 6, max_joins=2)
    fixture.catalog.add_missing_base_histograms()
    return fixture


@pytest.fixture()
def kernel_calls(monkeypatch) -> list:
    """Every ``(left, right, max_buckets)`` the join kernel is asked for
    (operands kept, so their ids stay valid)."""
    calls: list = []
    kernel = matching.join_histograms

    def counting(left, right, max_buckets=None):
        calls.append((left, right, max_buckets))
        return kernel(left, right, max_buckets=max_buckets)

    monkeypatch.setattr(matching, "join_histograms", counting)
    return calls


def distinct_pairs(calls: list) -> int:
    return len({(id(left), id(right), buckets) for left, right, buckets in calls})


def memo_metrics(session: EstimationSession) -> dict[str, float]:
    caches = session.estimator.algorithm.stats_snapshot().caches
    return {
        "entries": caches["join_memo_entries"],
        "hits": caches["join_memo_hits"],
        "misses": caches["join_memo_misses"],
    }


def with_one_more_filter(query, pool):
    """Another template over the same join core: one more filtered column."""
    used = {a for p in query.predicates for a in p.attributes}
    attribute = min(
        sit.attribute
        for sit in pool
        if sit.attribute.table in query.tables and sit.attribute not in used
    )
    histogram = pool.find_base(attribute).histogram
    return query.predicates | {
        FilterPredicate(attribute, histogram.low, histogram.high)
    }


class TestEveryPairJoinedOnce:
    def test_cold_estimate_and_its_compile_join_each_pair_once(
        self, fixture, kernel_calls
    ):
        session = EstimationSession(fixture.catalog)
        session.estimate(fixture.queries[0])
        assert session.plan_cache.status()["compiles"] == 1
        assert len(kernel_calls) == distinct_pairs(kernel_calls) > 0
        metrics = memo_metrics(session)
        assert metrics["misses"] == metrics["entries"] == len(kernel_calls)
        # the compile alone re-reads the head factors' joins: all hits
        assert metrics["hits"] > 0

    def test_a_template_sharing_the_join_core_hits_the_memo(
        self, fixture, kernel_calls
    ):
        session = EstimationSession(fixture.catalog)
        session.estimate(fixture.queries[0])
        before, joined = memo_metrics(session), len(kernel_calls)
        result = session.estimate(
            with_one_more_filter(fixture.queries[0], session.pool)
        )
        assert not result.plan_cache_hit
        assert session.plan_cache.status()["compiles"] == 2
        after = memo_metrics(session)
        assert after["hits"] > before["hits"]
        assert len(kernel_calls) == distinct_pairs(kernel_calls)
        assert len(kernel_calls) - joined == after["misses"] - before["misses"]

    def test_whole_workload_never_repeats_a_join(self, fixture, kernel_calls):
        session = EstimationSession(fixture.catalog)
        results = [session.estimate(query) for query in fixture.queries]
        joined = len(kernel_calls)
        assert joined == distinct_pairs(kernel_calls)
        assert joined == memo_metrics(session)["misses"]
        # the legacy oracle, cold per query, joins directly — per factor,
        # every time — and shares nothing with the memo, yet answers the same
        twin = EstimationSession(fixture.catalog, plan_cache=False)
        with_reference_engine(twin.estimator)
        answers = []
        for query in fixture.queries:
            twin.estimator.reset()
            answers.append(twin.estimate(query))
        assert answers == results
        # the twin reads the same pool's entry count, but never looked one up
        assert memo_metrics(twin) == {"entries": joined, "hits": 0, "misses": 0}
        assert len(kernel_calls) - joined > joined

    def test_traced_histogram_join_counts_only_real_joins(
        self, fixture, kernel_calls
    ):
        session = EstimationSession(fixture.catalog)
        trace = session.estimator.enable_tracing()
        session.estimate(fixture.queries[0])
        metrics = memo_metrics(session)
        assert trace.calls["histogram_join"] == len(kernel_calls) == metrics["misses"]
        assert trace.counters["join_memo_hits"] == metrics["hits"]


def fresh_answers(fixture, pool: SITPool) -> list:
    """The answers of a fresh session over a fresh pool of the same SITs."""
    session = EstimationSession(SITPool(list(pool)), database=fixture.database)
    return [session.estimate(query) for query in fixture.queries]


class TestVersionGate:
    def test_notify_keeps_every_entry(self, fixture, kernel_calls):
        session = EstimationSession(fixture.catalog)
        for query in fixture.queries:
            session.estimate(query)
        store = session.pool.derived_joins
        filled = dict(store)
        assert filled and len(filled) == len(kernel_calls)
        for table in ["sales", "customer"] * 10:
            fixture.catalog.notify_table_update(table)
            answers = []
            for query in fixture.queries:
                answer = session.estimate(query)
                assert not answer.plan_cache_hit
                answers.append(answer)
            # a version move changes no histogram: the very same entries,
            # and every recompile joined nothing
            assert store.keys() == filled.keys()
            assert all(store[key] is entry for key, entry in filled.items())
            assert len(kernel_calls) == len(filled)
        assert answers == fresh_answers(fixture, session.pool)

    def test_refresh_replacing_sits_leaves_nothing_behind(self, fixture):
        sizes = set()
        retired = []
        gc.collect()
        gc.disable()  # a retired pool's store must go without the collector
        try:
            for _ in range(20):
                fixture.catalog.notify_table_update("sales")
                assert fixture.catalog.refresh().rebuilt  # new SITs, new pool
                session = EstimationSession(fixture.catalog)
                assert not session.pool.derived_joins  # a new pool starts empty
                for query in fixture.queries:
                    session.estimate(query)
                memo = session.estimator.algorithm._join_memo
                assert memo._entries is session.pool.derived_joins
                # every operand is a histogram of *this* pool or derived
                # from them: nothing of an older pool is kept alive
                known = {id(sit.histogram) for sit in session.pool}
                known |= {id(entry[0].histogram) for entry in memo._entries.values()}
                assert all(
                    left in known and right in known for left, right, _ in memo._entries
                )
                sizes.add(len(memo))
                retired.append(weakref.ref(memo))
                retired.append(weakref.ref(session.pool))
                del session, memo
            assert len(sizes) == 1  # same workload, same number of entries
            fixture.catalog.notify_table_update("sales")
            assert fixture.catalog.refresh().rebuilt  # retire the last pool too
            assert not any(ref() is not None for ref in retired)
        finally:
            gc.enable()


class TestSharedAcrossSessions:
    def test_second_session_joins_nothing_and_counts_its_own(
        self, fixture, kernel_calls
    ):
        first = EstimationSession(fixture.catalog)
        results = [first.estimate(query) for query in fixture.queries]
        joined = len(kernel_calls)
        before = memo_metrics(first)
        assert before["misses"] == before["entries"] == joined > 0
        second = EstimationSession(fixture.catalog)
        assert second.pool is first.pool
        assert [second.estimate(query) for query in fixture.queries] == results
        assert len(kernel_calls) == joined
        after = memo_metrics(second)
        assert after["misses"] == 0 and after["hits"] > 0
        assert after["entries"] == joined
        # the first DP's counters saw none of the second's lookups
        assert memo_metrics(first) == before

    def test_threads_over_one_pool_answer_as_one(self, fixture):
        pool = SITPool(list(fixture.catalog.pool))
        expected = fresh_answers(fixture, pool)
        workers = 4  # more than the cores CI gives a job
        barrier = threading.Barrier(workers, timeout=60)
        answers: list = [None] * workers

        def run(slot: int) -> None:
            session = EstimationSession(pool, database=fixture.database)
            barrier.wait()
            answers[slot] = [session.estimate(query) for query in fixture.queries]

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [expected] * workers
        # the first result of a raced pair is the one kept: every operand
        # is a pool histogram or a stored result, so no later join is
        # keyed by a derived histogram the store has since replaced
        store = pool.derived_joins
        known = {id(sit.histogram) for sit in pool}
        known |= {id(entry[0].histogram) for entry in store.values()}
        assert store
        for key, (_, left, right) in store.items():
            assert key[:2] == (id(left), id(right))
            assert key[0] in known and key[1] in known

    def test_racing_workers_keep_the_first_result(self, fixture, monkeypatch):
        """Workers that all miss on one pair join it concurrently; every
        one of them gets the stored result back, so the join each then
        chains onto it is keyed by one object."""
        first, second, third = (sit.histogram for sit in fixture.catalog.pool.sits[:3])
        store: dict = {}
        workers = 4
        inside = threading.Barrier(workers, timeout=60)
        kernel = matching.join_histograms

        def racing(left, right, max_buckets=None):
            if left is first:
                inside.wait()  # every worker has missed before any stores
            return kernel(left, right, max_buckets=max_buckets)

        monkeypatch.setattr(matching, "join_histograms", racing)
        results: list = [None] * workers

        def run(slot: int) -> None:
            memo = matching.JoinMemo(store)
            joined = memo.join(first, second, 200)
            results[slot] = (joined, memo.join(joined.histogram, third, 200))

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert len({id(joined) for joined, _ in results}) == 1
        assert len({id(chained) for _, chained in results}) == 1
        assert len(store) == 2

    def test_bound_empties_the_store_whole(self, fixture, monkeypatch):
        expected = fresh_answers(fixture, fixture.catalog.pool)
        limit = 4
        monkeypatch.setattr(get_selectivity, "JOIN_LIMIT", limit)
        session = EstimationSession(fixture.catalog)
        store, memo = session.pool.derived_joins, session.estimator.algorithm._join_memo
        store.clear()
        emptied = 0
        answers = []
        for query in fixture.queries:
            held, misses = len(store), memo.misses
            answers.append(session.estimate(query))
            if held > limit:
                emptied += 1
                # emptied whole before the request: only its own joins are left
                assert len(store) == memo.misses - misses
            else:
                assert len(store) == held + memo.misses - misses
        assert emptied > 0
        assert answers == expected


class TestCompileLeavesNoCycle:
    def test_compile_with_the_collector_disabled(self, fixture):
        pool = fixture.catalog.snapshot().pool
        algorithm = GetSelectivity.create(pool, NIndError())
        predicates = fixture.queries[0].predicates
        result = algorithm(predicates)
        cache = PlanCache(pool)
        gc.collect()
        gc.disable()
        try:
            assert cache.compile(predicates, algorithm, result) is not None
            assert gc.collect() == 0
        finally:
            gc.enable()
