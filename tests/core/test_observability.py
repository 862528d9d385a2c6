"""View-matching accounting and the ``stats_snapshot()`` observability hook.

Figure 6's metric is the number of *logical* view-matching invocations per
query.  Historically the counter was split between ``_best_factor_match``
(bumping on cache hits) and ``ViewMatcher.candidates_for_factor`` (bumping
on cold lookups), which double-counted whenever both paths fired.  The
counter is now single-sourced through ``ViewMatcher.count_invocation``;
these tests pin the exactly-once contract on both DP implementations and
on the pricing method the memo-coupled estimator calls, and cover the
``stats_snapshot()`` view.
"""

from __future__ import annotations

import pytest

from repro.core.errors import NIndError
from repro.core.get_selectivity import GetSelectivity
from repro.core.matching import ViewMatcher
from repro.core.predicates import Attribute, FilterPredicate, JoinPredicate
from repro.core.selectivity import Factor
from repro.histograms.base import Bucket, Histogram
from repro.stats.pool import SITPool
from repro.stats.sit import SIT


def _histogram() -> Histogram:
    return Histogram([Bucket(0.0, 100.0, 1000.0, 50.0)])


@pytest.fixture()
def workload():
    a = Attribute("R", "a")
    b = Attribute("S", "b")
    c = Attribute("T", "c")
    join_rs = JoinPredicate(a, b)
    join_st = JoinPredicate(b, c)
    filter_r = FilterPredicate(a, 10.0, 40.0)
    predicates = frozenset({join_rs, join_st, filter_r})
    pool = SITPool(
        [
            *(SIT(attribute, frozenset(), _histogram()) for attribute in (a, b, c)),
            SIT(a, frozenset({join_st}), _histogram(), diff=0.1),
        ]
    )
    return predicates, pool


class TestMatcherCounting:
    def test_count_invocation_bumps_once(self, workload):
        _, pool = workload
        matcher = ViewMatcher(pool)
        assert matcher.calls == 0
        matcher.count_invocation()
        assert matcher.calls == 1

    def test_candidates_for_factor_count_flag(self, workload):
        predicates, pool = workload
        matcher = ViewMatcher(pool)
        p = frozenset([next(iter(predicates))])
        factor = Factor(p, predicates - p)
        matcher.candidates_for_factor(factor)
        assert matcher.calls == 1
        matcher.candidates_for_factor(factor, count=False)
        assert matcher.calls == 1  # explicit opt-out: no bump

    def test_exactly_once_whether_cached_or_not(self, workload):
        """Warm caches must not change Figure 6 counts: the bitmask DP
        scores every pair it asks for, the legacy oracle answers a
        re-solve from its factor-match cache, and both count the same."""
        predicates, pool = workload
        algorithm = GetSelectivity(pool, NIndError())
        oracle = GetSelectivity.create(pool, NIndError(), engine="legacy")
        algorithm(predicates)
        oracle(predicates)
        cold_calls = algorithm.matcher.calls
        assert cold_calls == oracle.matcher.calls > 0
        # Memoized full query: zero further logical invocations.
        algorithm(predicates)
        assert algorithm.matcher.calls == cold_calls
        # Per-query reset: the oracle's cache holds every pair, the DP
        # holds none, and the logical count is the cold run's for both.
        cached = dict(oracle._match_cache)
        for dp in (algorithm, oracle):
            dp.reset()
            dp(predicates)
            assert dp.matcher.calls == cold_calls
        assert oracle._match_cache == cached
        assert not hasattr(algorithm, "_match_cache")

    def test_legacy_and_bitmask_count_identically(self, workload):
        predicates, pool = workload
        fast = GetSelectivity(pool, NIndError())
        oracle = GetSelectivity.create(pool, NIndError(), engine="legacy")
        fast(predicates)
        oracle(predicates)
        assert fast.matcher.calls == oracle.matcher.calls

    def test_memo_coupled_counts_once_per_logical_factor(self, workload):
        """The memo-coupled pass prices through ``price_factor``: one
        logical invocation per call, cached or not."""
        predicates, pool = workload
        algorithm = GetSelectivity(pool, NIndError())
        p = frozenset([next(iter(sorted(predicates, key=str)))])
        error, pair = algorithm.price_factor(p, predicates - p)
        assert algorithm.matcher.calls == 1
        assert pair is not None
        again = algorithm.price_factor(p, predicates - p)
        assert algorithm.matcher.calls == 2  # counted, and scored again
        assert again == (error, pair)
        match, _ = algorithm.estimate_winner(*pair)
        assert match.factor == Factor(p, predicates - p)
        assert algorithm.matcher.calls == 2  # line 16 matches nothing


class TestStats:
    KEY_PATHS = {
        "memo_entries": "caches.memo_entries",
        "estimate_cache_entries": "caches.estimate_cache_entries",
        "matcher_calls": "counters.matcher_calls",
        "explored_decompositions": "counters.explored_decompositions",
        "pruned_decompositions": "counters.pruned_decompositions",
        "universe_size": "counters.universe_size",
        "analysis_seconds": "timings.analysis_seconds",
        "estimation_seconds": "timings.estimation_seconds",
    }

    def _flat(self, algorithm):
        return algorithm.stats_snapshot().flat(self.KEY_PATHS)

    def test_snapshot_after_a_query(self, workload):
        predicates, pool = workload
        algorithm = GetSelectivity(pool, NIndError(), sit_driven_pruning=True)
        algorithm(predicates)
        stats = self._flat(algorithm)
        assert set(stats) == set(self.KEY_PATHS)
        assert stats["memo_entries"] >= 1
        assert stats["estimate_cache_entries"] >= 1
        # one counted invocation per explored pair the monotonicity cut
        # did not skip
        assert 0 < stats["matcher_calls"] <= stats["explored_decompositions"]
        caches = algorithm.stats_snapshot().caches
        assert not any(key.startswith("match_cache") for key in caches)
        assert stats["universe_size"] == len(predicates)
        assert stats["analysis_seconds"] > 0.0
        assert stats["analysis_seconds"] >= stats["estimation_seconds"] >= 0.0

    def test_reset_clears_per_query_but_keeps_pool_pure_state(self, workload):
        predicates, pool = workload
        algorithm = GetSelectivity(pool, NIndError())
        algorithm(predicates)
        warm_cache = self._flat(algorithm)["estimate_cache_entries"]
        algorithm.reset()
        stats = self._flat(algorithm)
        assert stats["memo_entries"] == 0
        assert stats["matcher_calls"] == 0
        assert stats["explored_decompositions"] == 0
        assert stats["analysis_seconds"] == 0.0
        assert stats["estimation_seconds"] == 0.0
        # Pool-pure structures survive reset (Section 4 reuse).
        assert stats["estimate_cache_entries"] == warm_cache >= 1
        assert stats["universe_size"] == len(predicates)

    def test_legacy_reports_zero_universe(self, workload):
        predicates, pool = workload
        oracle = GetSelectivity.create(pool, NIndError(), engine="legacy")
        oracle(predicates)
        stats = self._flat(oracle)
        assert set(stats) == set(self.KEY_PATHS)
        assert stats["universe_size"] == 0
        assert stats["memo_entries"] >= 1

    def test_pruning_counter_counts_skips(self, workload):
        predicates, pool = workload
        pruned = GetSelectivity(pool, NIndError(), sit_driven_pruning=True)
        pruned(predicates)
        unpruned = GetSelectivity(pool, NIndError())
        unpruned(predicates)
        assert self._flat(pruned)["pruned_decompositions"] > 0
        assert self._flat(unpruned)["pruned_decompositions"] == 0
