"""EstimationSession: snapshot pinning, the memo and caches requests
share, and the one ledger (the estimator's) the session reports."""

import pytest

from repro.catalog import EstimationSession, StatisticsCatalog
from repro.core.errors import DiffError
from repro.estimators import SITEstimator
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


class TestConstruction:
    def test_from_catalog(self, catalog):
        session = EstimationSession(catalog)
        assert session.snapshot is not None
        assert session.snapshot_version == catalog.version
        assert session.is_current

    def test_from_snapshot(self, catalog):
        snapshot = catalog.snapshot()
        session = EstimationSession(snapshot)
        assert session.snapshot is snapshot
        assert session.database is catalog.database

    def test_from_bare_pool_requires_database(self, two_table_pool):
        with pytest.raises(ValueError, match="database"):
            EstimationSession(two_table_pool)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            EstimationSession(object())


class TestEstimates:
    def test_matches_bare_estimator(self, catalog, two_table_db, query):
        session = EstimationSession(catalog)
        bare = SITEstimator(two_table_db, catalog.pool)
        assert session.cardinality(query) == pytest.approx(
            bare.cardinality(query)
        )

    def test_error_function_forwarded(self, catalog, query):
        error = DiffError(catalog.pool)
        session = EstimationSession(catalog, error)
        assert session.estimator.error_function is error
        assert 0.0 <= session.selectivity(query) <= 1.0

    def test_query_counter(self, catalog, query):
        session = EstimationSession(catalog)
        session.selectivity(query)
        session.selectivity(query)
        assert session.queries == 2


class TestCrossQueryCaching:
    # plan_cache=False: these tests exercise the DP's memo and the shared
    # factor-match cache, which a compiled-plan replay never touches
    def test_second_query_hits_shared_match_cache(self, catalog, query):
        """The memo outlives the request: asking again is a lookup, not
        one more matcher call — and after an explicit cold start the
        factor-match cache still spares the matching passes."""
        session = EstimationSession(catalog, plan_cache=False)
        first = session.estimate(query)
        cold = session.stats_snapshot()
        assert session.estimate(query) == first
        again = session.stats_snapshot()
        assert again.counters["matcher_calls"] == cold.counters["matcher_calls"]
        assert again.caches["memo_entries"] == cold.caches["memo_entries"]
        session.estimator.reset()
        assert session.estimate(query) == first
        caches = session.stats_snapshot().caches
        assert caches["match_cache_misses"] == 0
        assert caches["match_cache_hits"] > 0
        assert session.match_cache_hit_rate == 1.0

    def test_distinct_queries_share_factor_work(
        self, catalog, two_table_join, two_table_attrs
    ):
        small = Query.of(
            two_table_join, FilterPredicate(two_table_attrs["Ra"], 0, 20)
        )
        large = Query.of(
            *small.predicates, FilterPredicate(two_table_attrs["Sb"], 0, 50)
        )
        session = EstimationSession(catalog, plan_cache=False)
        session.selectivity(small)
        session.selectivity(large)
        shared = session.stats_snapshot().counters["matcher_calls"]
        alone = EstimationSession(catalog, plan_cache=False)
        alone.selectivity(large)
        # every sub-plan of the small query was a memo lookup for the
        # large one: together they cost what the large one costs alone
        assert shared == alone.stats_snapshot().counters["matcher_calls"]


class TestSnapshotPinning:
    def test_session_survives_catalog_invalidation(self, catalog, query):
        session = EstimationSession(catalog)
        before = session.selectivity(query)
        catalog.notify_table_update("S")
        assert not session.is_current
        assert session.selectivity(query) == pytest.approx(before)

    def test_new_session_pins_new_version(self, catalog):
        old = EstimationSession(catalog)
        catalog.notify_table_update("S")
        new = EstimationSession(catalog)
        assert new.snapshot_version > old.snapshot_version
        assert new.is_current and not old.is_current


class TestObservability:
    def test_stats_snapshot_shape(self, catalog, query):
        session = EstimationSession(
            catalog, name="serving", plan_cache=False
        )
        session.selectivity(query)
        session.selectivity(query)
        snapshot = session.stats_snapshot()
        assert snapshot.meta["session"] == "serving"
        assert snapshot.meta["queries"] == 2
        assert snapshot.meta["snapshot_version"] == catalog.version
        assert snapshot.counters["queries"] == 2.0
        assert 0.0 <= snapshot.catalog["match_cache_hit_rate"] <= 1.0
        assert snapshot.catalog["current"] == 1.0

    def test_ledger_is_the_estimators_and_monotone(
        self, catalog, query, two_table_join, two_table_attrs
    ):
        """No window is opened per request: every event count only
        grows, and the session reports what its estimator reports."""
        session = EstimationSession(catalog, plan_cache=False)
        requests = [
            query,
            Query.of(two_table_join),
            Query.of(
                *query.predicates,
                FilterPredicate(two_table_attrs["Sb"], 0, 50),
            ),
            query,
        ]
        events = ("matcher_calls", "explored_decompositions", "queries")
        last = dict.fromkeys(events, 0.0)
        for count, request in enumerate(requests, start=1):
            session.estimate(request)
            snapshot = session.stats_snapshot()
            assert snapshot.counters["queries"] == count
            for name in events:
                assert snapshot.counters[name] >= last[name]
                last[name] = snapshot.counters[name]
            own = session.estimator.stats_snapshot()
            assert dict(snapshot.caches) == dict(own.caches)
            assert {
                k: v for k, v in snapshot.counters.items() if k != "queries"
            } == dict(own.counters)
            assert set(snapshot.timings) == set(own.timings)

    def test_plan_cache_namespace(self, catalog, query):
        session = EstimationSession(catalog, name="serving")
        session.selectivity(query)
        session.selectivity(query)
        snapshot = session.stats_snapshot()
        assert snapshot.plan_cache["hits"] >= 1.0
        assert snapshot.plan_cache["compiles"] >= 1.0
        assert snapshot.plan_cache["hit_rate"] > 0.0

    def test_current_gauge_drops_after_invalidation(self, catalog, query):
        session = EstimationSession(catalog)
        session.selectivity(query)
        catalog.notify_table_update("R")
        assert session.stats_snapshot().catalog["current"] == 0.0
