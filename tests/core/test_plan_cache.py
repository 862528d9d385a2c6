"""Unit tests of :mod:`repro.core.plancache` internals: shape
fingerprints, the compile safety gates, bounded eviction, and the DP
memo bank that accelerates shape misses.

End-to-end bit-identity lives in ``test_plan_cache_parity.py``;
catalog-driven invalidation in ``tests/catalog/
test_plan_cache_coherence.py``.
"""

from __future__ import annotations

import pytest

from repro.core.errors import NIndError
from repro.estimators import SITEstimator
from repro.core.get_selectivity import GetSelectivity
from repro.core.plancache import (
    PlanCache,
    fingerprint_digest,
    shape_fingerprint,
)
from repro.core.predicates import FilterPredicate
from repro.stats.pool import SITPool
from repro.stats.sit import SIT


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

    def test_digest_is_stable_and_short(self, shapes):
        for shape in shapes:
            fingerprint = shape_fingerprint(shape)[0]
            digest = fingerprint_digest(fingerprint)
            assert digest == fingerprint_digest(fingerprint)
            assert len(digest) == 8
            int(digest, 16)  # hex


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
        self, two_table_db, two_table_pool
    ):
        estimator = SITEstimator(
            two_table_db,
            two_table_pool,
            NIndError(),
            engine="legacy",
            plan_cache=True,
        )
        assert estimator.plan_cache is None

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
        unsafe = SITPool(list(two_table_pool))
        base = next(s for s in two_table_pool if s.is_base and s.attribute == ra)
        unsafe.add(
            SIT(
                ra,
                frozenset({FilterPredicate(ra, 0.0, 50.0)}),
                base.histogram,
                diff=0.1,
            )
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


class TestMemoBank:
    def test_bank_seeds_a_later_query(self, two_table_pool, shapes):
        algorithm = GetSelectivity(two_table_pool, NIndError())
        algorithm.enable_memo_bank()
        algorithm(shapes[1])  # join + R.a filter
        algorithm.bank_memo()
        assert algorithm.memo_bank_size() > 0
        algorithm.reset()
        # a different shape sharing the join core hits the bank
        algorithm(shapes[2])  # join + S.b filter
        assert algorithm.memo_bank_hits > 0
        caches = algorithm.stats_snapshot().caches
        assert caches["memo_bank_entries"] == algorithm.memo_bank_size()
        assert caches["memo_bank_hits"] == algorithm.memo_bank_hits

    def test_banked_answers_are_bit_identical(self, two_table_pool, shapes):
        banked = GetSelectivity(two_table_pool, NIndError())
        banked.enable_memo_bank()
        banked(shapes[1])
        banked.bank_memo()
        banked.reset()
        fresh = GetSelectivity(two_table_pool, NIndError())
        left, right = banked(shapes[2]), fresh(shapes[2])
        assert left.selectivity == right.selectivity
        assert left.error == right.error
        assert left.decomposition == right.decomposition
        assert left.matches == right.matches

    def test_bank_is_bounded(self, two_table_pool, shapes):
        algorithm = GetSelectivity(two_table_pool, NIndError())
        algorithm.enable_memo_bank(limit=2)
        for shape in shapes:
            algorithm.reset()
            algorithm(shape)
            algorithm.bank_memo()
            assert algorithm.memo_bank_size() <= 2

    def test_pool_version_change_clears_the_bank(
        self, two_table_pool, shapes
    ):
        """The bank rides the same invalidation path as the plan cache:
        a derived-state version bump (``notify_table_update``) empties it
        at the next query, so stale subproblems are never served — and
        the full memo is rebuilt, keeping results compilable."""
        pool = SITPool(list(two_table_pool))  # private: version is mutated
        algorithm = GetSelectivity(pool, NIndError())
        algorithm.enable_memo_bank()
        algorithm(shapes[1])
        algorithm.bank_memo()
        assert algorithm.memo_bank_size() > 0
        pool.invalidate_derived()
        algorithm.reset()
        algorithm(shapes[1])
        assert algorithm.memo_bank_hits == 0
        # the post-bump run re-solved every submask itself
        assert len(algorithm._memo) >= 3

    def test_disable_drops_the_bank(self, two_table_pool, shapes):
        algorithm = GetSelectivity(two_table_pool, NIndError())
        algorithm.enable_memo_bank()
        algorithm(shapes[0])
        algorithm.bank_memo()
        algorithm.disable_memo_bank()
        assert algorithm.memo_bank_size() == 0


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
