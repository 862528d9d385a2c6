"""Unit tests of :mod:`repro.core.plancache` internals: shape
fingerprints, the compile safety gates, bounded eviction, and the DP
memo that outlives requests so sub-plans and shape misses start from it.

End-to-end bit-identity lives in ``test_plan_cache_parity.py``;
catalog-driven invalidation in ``tests/catalog/
test_plan_cache_coherence.py``.
"""

from __future__ import annotations

import pytest

from repro.catalog import EstimationSession, StatisticsCatalog
from repro.core.errors import NIndError
from repro.estimators import SITEstimator
from repro.core import get_selectivity
from repro.core.get_selectivity import GetSelectivity
from repro.core.plancache import PlanCache, shape_fingerprint
from repro.core.predicates import Attribute, FilterPredicate
from repro.engine.expressions import Query
from repro.stats.builder import SITBuilder
from repro.stats.pool import SITPool
from repro.stats.sit import SIT
from repro.workload.fixture import snowflake_fixture
from repro.workload.queries import connected_subqueries
from tests.conftest import with_reference_engine


@pytest.fixture()
def shapes(two_table_attrs, two_table_join):
    """Five distinct predicate-set shapes over the two-table fixtures."""
    ra, sb = two_table_attrs["Ra"], two_table_attrs["Sb"]
    join = two_table_join
    return [
        frozenset({join}),
        frozenset({join, FilterPredicate(ra, 0.0, 20.0)}),
        frozenset({join, FilterPredicate(sb, 10.0, 40.0)}),
        frozenset(
            {join, FilterPredicate(ra, 0.0, 20.0), FilterPredicate(sb, 10.0, 40.0)}
        ),
        frozenset({FilterPredicate(ra, 5.0, 30.0)}),
    ]


class TestShapeFingerprint:
    def test_constants_are_abstracted(self, two_table_attrs, two_table_join):
        ra = two_table_attrs["Ra"]
        left = frozenset({two_table_join, FilterPredicate(ra, 0.0, 20.0)})
        right = frozenset({two_table_join, FilterPredicate(ra, 1.0, 25.0)})
        assert shape_fingerprint(left)[0] == shape_fingerprint(right)[0]

    def test_ordered_is_the_str_sort(self, two_table_attrs, two_table_join):
        ra = two_table_attrs["Ra"]
        predicates = frozenset(
            {two_table_join, FilterPredicate(ra, 0.0, 20.0)}
        )
        _, ordered = shape_fingerprint(predicates)
        assert list(ordered) == sorted(predicates, key=str)

    def test_attribute_changes_the_shape(self, two_table_attrs, two_table_join):
        ra, sb = two_table_attrs["Ra"], two_table_attrs["Sb"]
        left = frozenset({two_table_join, FilterPredicate(ra, 0.0, 20.0)})
        right = frozenset({two_table_join, FilterPredicate(sb, 0.0, 20.0)})
        assert shape_fingerprint(left)[0] != shape_fingerprint(right)[0]

    def test_join_and_filter_tokens_differ(self, shapes):
        fingerprints = {shape_fingerprint(s)[0] for s in shapes}
        assert len(fingerprints) == len(shapes)


class TestCompileGates:
    def test_plan_unstable_error_function_disables_the_cache(
        self, two_table_db, two_table_pool
    ):
        class Unstable(NIndError):
            plan_stable = False

        estimator = SITEstimator(
            two_table_db, two_table_pool, Unstable(), plan_cache=True
        )
        assert estimator.plan_cache is None

    def test_legacy_engine_disables_the_cache(
        self, two_table_db, two_table_pool, shapes
    ):
        estimator = with_reference_engine(
            SITEstimator(
                two_table_db, two_table_pool, NIndError(), plan_cache=True
            )
        )
        for _ in range(2):
            assert not estimator.estimate_predicates(shapes[1]).plan_cache_hit
        status = estimator.plan_cache.status()
        assert status["compiles"] == 0
        assert status["hits"] == 0

    def test_plan_unstable_compile_refused_at_the_cache_too(
        self, two_table_pool, shapes
    ):
        class Unstable(NIndError):
            plan_stable = False

        algorithm = GetSelectivity(two_table_pool, Unstable())
        cache = PlanCache(two_table_pool)
        result = algorithm(shapes[1])
        assert cache.compile(shapes[1], algorithm, result) is None
        assert cache.status()["compiles"] == 0

    def test_filter_bearing_sit_expression_blocks_compilation(
        self, two_table_db, two_table_pool, two_table_attrs, shapes
    ):
        ra = two_table_attrs["Ra"]
        base = next(s for s in two_table_pool if s.is_base and s.attribute == ra)
        unsafe = SITPool(
            [
                *two_table_pool,
                SIT(
                    ra,
                    frozenset({FilterPredicate(ra, 0.0, 50.0)}),
                    base.histogram,
                    diff=0.1,
                ),
            ]
        )
        estimator = SITEstimator(
            two_table_db, unsafe, NIndError(), plan_cache=True
        )
        assert estimator.plan_cache is not None
        estimator.estimate_predicates(shapes[1])
        estimator.estimate_predicates(shapes[1])
        status = estimator.plan_cache.status()
        assert status["compiles"] == 0
        assert status["hits"] == 0
        assert status["misses"] == 2


class TestEviction:
    def test_oldest_plans_evicted_at_capacity(
        self, two_table_pool, shapes
    ):
        algorithm = GetSelectivity(two_table_pool, NIndError())
        cache = PlanCache(two_table_pool, max_plans=4)
        for shape in shapes:  # the 5th compile overflows max_plans=4
            result = algorithm(shape)
            assert cache.compile(shape, algorithm, result) is not None
        status = cache.status()
        assert status["compiles"] == len(shapes)
        assert status["evictions"] == 1
        assert len(cache) == 4
        # the oldest shape was the victim; the newest still replays
        assert cache.plan_for(shapes[0])[0] is None
        assert cache.plan_for(shapes[-1])[0] is not None

    def test_bytes_accounting_shrinks_with_eviction(
        self, two_table_pool, shapes
    ):
        algorithm = GetSelectivity(two_table_pool, NIndError())
        cache = PlanCache(two_table_pool, max_plans=4)
        sizes = []
        for shape in shapes:
            cache.compile(shape, algorithm, algorithm(shape))
            sizes.append(cache.bytes)
        assert all(size > 0 for size in sizes)
        assert sizes[-1] < sum(sizes[:4])  # not accumulating unboundedly


class TestOneProbe:
    """The cache maps a fingerprint straight to its plan: a probe, hit
    or miss, hashes the fingerprint once, and a compile at capacity
    evicts the oldest plan."""

    def test_a_hit_hashes_its_fingerprint_once(
        self, two_table_pool, shapes, monkeypatch
    ):
        algorithm = GetSelectivity(two_table_pool, NIndError())
        cache = PlanCache(two_table_pool, max_plans=1)
        shape, uncompiled = shapes[3], shapes[4]
        for predicates in (shape, uncompiled):
            cache.plan_for(predicates)
        cache.compile(shape, algorithm, algorithm(shape))
        calls = []
        real = Attribute.__hash__

        def counting(attribute):
            calls.append(attribute)
            return real(attribute)

        monkeypatch.setattr(Attribute, "__hash__", counting)
        for predicates, hit in ((shape, True), (uncompiled, False)):
            del calls[:]
            plan, _ = cache.plan_for(predicates)
            assert (plan is not None) is hit
            # a fingerprint hash is one call per attribute of its tokens
            tokens = shape_fingerprint(predicates)[0]
            assert len(calls) == sum(len(token) - 1 for token in tokens)
        monkeypatch.undo()
        status = cache.status()
        assert (status["hits"], status["misses"]) == (1, 3)
        # the next compile evicts the only plan (max_plans=1)
        cache.compile(uncompiled, algorithm, algorithm(uncompiled))
        assert cache.plan_for(uncompiled)[0] is not None
        assert cache.plan_for(shape)[0] is None
        assert cache.status()["evictions"] == 1


class TestPersistentMemo:
    def test_memo_survives_requests(self, two_table_pool, shapes):
        algorithm = GetSelectivity(two_table_pool, NIndError())
        trace = algorithm.enable_tracing()
        algorithm(shapes[1])  # join + R.a filter
        held = set(algorithm._memo)
        trace.clear()
        # a different shape sharing the join core finds it in the memo
        algorithm(shapes[2])  # join + S.b filter
        assert trace.counters["memo_hits"] > 0
        assert held < set(algorithm._memo)
        caches = algorithm.stats_snapshot().caches
        assert caches["memo_entries"] == len(algorithm._memo)

    def test_surviving_memo_equals_a_fresh_instance(
        self, two_table_pool, shapes
    ):
        kept = GetSelectivity(two_table_pool, NIndError())
        kept(shapes[1])
        fresh = GetSelectivity(two_table_pool, NIndError())
        left, right = kept(shapes[2]), fresh(shapes[2])
        assert left.selectivity == right.selectivity
        assert left.error == right.error
        assert left.decomposition == right.decomposition
        assert left.matches == right.matches

    def test_memo_is_bounded_and_emptied_whole(
        self, two_table_pool, two_table_attrs, two_table_join, monkeypatch
    ):
        """Past the bound the memo is emptied before the next request
        solves — whole, so no entry outlives the sub-entries the plan
        compiler would walk from it — and never during a request."""
        monkeypatch.setattr(get_selectivity, "MEMO_LIMIT", 16)
        ra = two_table_attrs["Ra"]
        algorithm = GetSelectivity(two_table_pool, NIndError())
        cache = PlanCache(two_table_pool, max_plans=1)
        emptied = 0
        for low in range(60):  # every constant is a new predicate
            shape = frozenset(
                {two_table_join, FilterPredicate(ra, float(low), low + 20.0)}
            )
            before = len(algorithm._memo)
            result = algorithm(shape)
            # at most 3 masks per request: the bound plus one request
            assert len(algorithm._memo) <= 16 + 3
            if len(algorithm._memo) < before:
                emptied += 1
                # this request's, only
                set_of = algorithm.universe.set_of
                assert all(set_of(mask) <= shape for mask in algorithm._memo)
            # whatever the memo holds compiles: its sub-masks are there
            cache._plans.clear()
            assert cache.compile(shape, algorithm, result) is not None
        assert emptied >= 2

    def test_a_notify_keeps_the_memo_and_the_join_memo(self, two_table_pool, shapes):
        """A pool's membership is fixed when it is built, so a notify
        (``invalidate_derived``) moves nothing a memo entry was solved
        from: every entry and every derived histogram stays, the very
        same object, and the answers equal a fresh DP's."""
        pool = SITPool(list(two_table_pool))  # private: version is moved
        algorithm = GetSelectivity(pool, NIndError())
        algorithm(shapes[1])
        algorithm(shapes[2])
        joins = algorithm._join_memo._entries
        assert joins is pool.derived_joins and joins
        held, held_joins = dict(algorithm._memo), dict(joins)
        misses = algorithm._join_memo.misses
        pool.invalidate_derived()
        answers = [algorithm(shapes[1]), algorithm(shapes[2])]
        # nothing was solved again, and nothing joined
        assert algorithm._memo.keys() == held.keys()
        assert all(algorithm._memo[mask] is entry for mask, entry in held.items())
        assert algorithm._join_memo.misses == misses
        assert all(joins[key] is entry for key, entry in held_joins.items())
        fresh = GetSelectivity(pool, NIndError())
        assert answers == [fresh(shapes[1]), fresh(shapes[2])]

    def test_a_sit_added_to_the_catalog_is_a_candidate_for_a_fresh_session(
        self, two_table_db, two_table_attrs, two_table_join
    ):
        """``catalog.add`` publishes a new pool: a live session keeps the
        pool it pinned, across a notify too, and answers as a fresh
        session over that pool does; a fresh session over the new
        snapshot reads the added SIT."""
        builder = SITBuilder(two_table_db)
        catalog = StatisticsCatalog.from_pool(
            SITPool(
                [builder.build_base(a) for a in two_table_attrs.values()]
            ),
            database=two_table_db,
        )
        ra = two_table_attrs["Ra"]
        (conditioned,) = builder.build_many(frozenset({two_table_join}), [ra])
        query = Query.of(two_table_join, FilterPredicate(ra, 10.0, 40.0))

        def session(statistics) -> EstimationSession:
            return EstimationSession(statistics, NIndError(), plan_cache=False)

        live = session(catalog)
        pinned = live.pool
        assert live.estimate(query).error == 1.0
        scorer = live.estimator.algorithm._scorer
        catalog.notify_table_update(ra.table)
        catalog.add(conditioned)
        assert catalog.pool is not pinned
        after = live.estimate(query)
        assert live.pool is pinned
        assert live.estimator.algorithm._scorer is scorer
        assert after == session(live.snapshot).estimate(query)
        assert after.error == 1.0
        fresh = session(catalog).estimate(query)
        assert fresh.error == 0.0
        assert str(conditioned) in fresh.matched_sits

    def test_reset_still_empties_the_memo(self, two_table_pool, shapes):
        algorithm = GetSelectivity(two_table_pool, NIndError())
        algorithm(shapes[3])
        assert algorithm._memo and algorithm.matcher.calls > 0
        algorithm.reset()
        assert not algorithm._memo
        assert algorithm.matcher.calls == 0
        assert algorithm.analysis_seconds == 0.0


class TestSubPlanPattern:
    def test_every_sub_plan_asked_after_its_query_replays(self):
        """Section 4: an optimizer asks for every sub-plan of a query.
        Each is solved from the query's memo on its first ask — and so
        compiles — replays on its second, and equals a cold twin."""
        fixture = snowflake_fixture(0.05, 7, 6)
        fixture.catalog.add_missing_base_histograms()
        session = EstimationSession(fixture.catalog)
        twin = EstimationSession(fixture.catalog, plan_cache=False)
        asked = 0
        for query in fixture.queries:
            session.estimate(query)
            for sub in connected_subqueries(query):
                if sub == query.predicates:
                    continue
                first, second = session.estimate(sub), session.estimate(sub)
                assert second.plan_cache_hit
                assert first == second == twin.estimate(sub)
                asked += 1
        assert asked > 50


class TestReplayFlag:
    def test_hit_flag_set_only_on_replay_and_excluded_from_equality(
        self, two_table_db, two_table_pool, shapes
    ):
        warm = SITEstimator(
            two_table_db, two_table_pool, NIndError(), plan_cache=True
        )
        compiled = warm.estimate_predicates(shapes[3])
        replayed = warm.estimate_predicates(shapes[3])
        assert not compiled.plan_cache_hit
        assert replayed.plan_cache_hit
        # the flag is compare=False metadata: replay == the cold result
        assert replayed == compiled
