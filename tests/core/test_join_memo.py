"""The derived-histogram memo: every operand pair is joined once.

A cold estimate joins the same SIT histograms for every factor sharing a
join, and the plan compiler used to join each head factor again.  These
tests count calls into the join kernel on the snowflake fixture and read
the ``caches.join_memo_*`` metrics ``GetSelectivity.metrics_registry()``
exports.
"""

from __future__ import annotations

import gc
import weakref

import pytest

import repro.core.matching as matching
from repro.catalog import EstimationSession
from repro.core.errors import NIndError
from repro.core.get_selectivity import GetSelectivity
from repro.core.plancache import PlanCache
from repro.core.predicates import FilterPredicate
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
        assert memo_metrics(twin) == {"entries": 0, "hits": 0, "misses": 0}
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


class TestVersionGate:
    def test_notify_drops_every_older_entry(self, fixture, kernel_calls):
        session = EstimationSession(fixture.catalog)
        for query in fixture.queries:
            session.estimate(query)
        algorithm = session.estimator.algorithm
        memo = algorithm._join_memo
        filled = len(memo)
        for table in ["sales", "customer"] * 10:
            fixture.catalog.notify_table_update(table)
            joined = len(kernel_calls)
            for query in fixture.queries:
                assert not session.estimate(query).plan_cache_hit
            # refilled from empty under the new version: what is held is
            # exactly what was joined since, and never more than before
            assert algorithm._version == session.pool.version
            assert len(memo) == len(kernel_calls) - joined <= filled

    def test_refresh_replacing_sits_leaves_nothing_behind(self, fixture):
        sizes = set()
        retired = []
        gc.collect()
        gc.disable()  # a retired estimator must go without the collector
        try:
            for _ in range(20):
                fixture.catalog.notify_table_update("sales")
                assert fixture.catalog.refresh().rebuilt  # new SITs, new pool
                session = EstimationSession(fixture.catalog)
                for query in fixture.queries:
                    session.estimate(query)
                memo = session.estimator.algorithm._join_memo
                assert session.estimator.algorithm._version == session.pool.version
                # every operand is a histogram of *this* pool or derived
                # from them: nothing of an older pool is kept alive
                known = {id(sit.histogram) for sit in session.pool}
                known |= {id(entry[0].histogram) for entry in memo._entries.values()}
                assert all(
                    left in known and right in known for left, right, _ in memo._entries
                )
                sizes.add(len(memo))
                retired.append(weakref.ref(memo))
                del session, memo
            assert len(sizes) == 1  # same workload, same number of entries
            assert not any(ref() is not None for ref in retired)
        finally:
            gc.enable()


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
