"""The mask-native factor scorer against its reference definition.

The bitmask DP prices every ``Sel(P'|Q)`` on masks
(:class:`repro.core.matching.FactorScorer`) and builds a ``FactorMatch``
only for the pair that wins a node.  The frozenset routines —
``candidates_for_factor`` + ``select_match`` + ``factor_error`` — remain
the definition; this suite holds the scorer to them *pair by pair*, for
every ``(p_mask, q_mask)`` the DP scores over seeded snowflake and TPC-H
workloads, and checks what rides on the scoring path: GS-Opt still gets
real matches, the SIT-match injection point is still visited once per
attribute per scored pair, tracing keeps its two stages, and everything
keyed by a mask starts over together once the universe has outgrown
``UNIVERSE_LIMIT``.
"""

from __future__ import annotations

import random

import pytest

import repro.core.get_selectivity as get_selectivity
from repro.catalog import EstimationSession, StatisticsCatalog
from repro.core.errors import INFINITE_ERROR, DiffError, NIndError, OptError
from repro.core.get_selectivity import (
    MEMO_LIMIT,
    UNIVERSE_LIMIT,
    GetSelectivity,
    NoApplicableStatisticsError,
)
from repro.core.matching import ViewMatcher, select_match
from repro.core.predicates import Attribute, FilterPredicate, attributes_of
from repro.core.selectivity import Factor
from repro.engine.executor import Executor
from repro.resilience.faults import POINT_SIT_MATCH, FaultPlan, FaultRule, armed
from repro.workload.queries import WorkloadConfig, WorkloadGenerator

ERROR_FACTORIES = {
    "nInd": lambda pool: NIndError(),
    "Diff": lambda pool: DiffError(pool),
}

#: (joins, filters, queries) drawn per database: 104 queries each, 208 in
#: all (the TPC-H schema has two foreign-key edges)
SNOWFLAKE_CLASSES = ((1, 2, 30), (2, 2, 30), (2, 3, 30), (3, 2, 14))
TPCH_CLASSES = ((1, 2, 35), (2, 2, 35), (2, 3, 34))
#: the catalog is built over this many queries of every class
CATALOG_QUERIES = 3


def build_setup(database, classes, seed: int):
    workload, catalog_queries = [], []
    for joins, filters, count in classes:
        generator = WorkloadGenerator(
            database,
            WorkloadConfig(join_count=joins, filter_count=filters, seed=seed + joins),
        )
        drawn = generator.generate(count)
        catalog_queries += drawn[:CATALOG_QUERIES]
        workload += drawn
    # seeded interleaving: the universe must not grow class by class
    random.Random(seed).shuffle(workload)
    catalog = StatisticsCatalog.build(database, catalog_queries, max_joins=2)
    catalog.add_missing_base_histograms()
    return [query.predicates for query in workload], catalog.snapshot().pool, catalog


@pytest.fixture(scope="module")
def snowflake_setup(tiny_snowflake):
    return build_setup(tiny_snowflake, SNOWFLAKE_CLASSES, seed=23)


@pytest.fixture(scope="module")
def tpch_setup(tpch_db):
    return build_setup(tpch_db, TPCH_CLASSES, seed=29)


class CheckedGetSelectivity(GetSelectivity):
    """Compares every pair the DP scores with the reference routines."""

    def __init__(self, pool, error_function, **kwargs):
        super().__init__(pool, error_function, **kwargs)
        self.reference = ViewMatcher(pool)
        self.scored = 0
        self.unmatched = 0

    def _score(self, p_mask, q_mask):
        scored = super()._score(p_mask, q_mask)
        set_of = self.universe.set_of
        factor = Factor(set_of(p_mask), set_of(q_mask))
        candidates = self.reference.candidates_for_factor(factor, count=False)
        self.scored += 1
        if candidates is None:
            self.unmatched += 1
            assert scored == (INFINITE_ERROR, 0.0, None)
            return scored
        match = select_match(candidates, self.error_function)
        error, coverage, picks = scored
        assert error == self.error_function.factor_error(match)
        assert coverage == sum(len(am.sit.expression) for am in match.attribute_matches)
        assert type(coverage) is float
        assert self._scorer.materialise(p_mask, q_mask, picks) == match
        return scored


def unknown_filter(pool) -> FilterPredicate:
    """A filter on a column of a known table that no SIT covers."""
    table = next(iter(pool)).attribute.table
    return FilterPredicate(Attribute(table, "no_such_column"), 0.0, 1.0)


# ----------------------------------------------------------------------
class TestPairByPair:
    @pytest.mark.parametrize("error_name", sorted(ERROR_FACTORIES))
    @pytest.mark.parametrize("setup_name", ["snowflake_setup", "tpch_setup"])
    def test_every_scored_pair_equals_the_reference(
        self, request, setup_name, error_name
    ):
        workload, pool, _ = request.getfixturevalue(setup_name)
        assert len(workload) >= 100
        checked = CheckedGetSelectivity(pool, ERROR_FACTORIES[error_name](pool))
        oracle = GetSelectivity.create(
            pool, ERROR_FACTORIES[error_name](pool), engine="legacy"
        )
        for predicates in workload:
            assert checked(predicates) == oracle(predicates)
        assert checked.scored == checked.match_cache_misses > 1000
        # the "some attribute has no SIT" case: every pair with the
        # uncovered attribute in P' scores (inf, 0, None), the rest as usual
        uncovered = workload[0] | {unknown_filter(pool)}
        with pytest.raises(NoApplicableStatisticsError):
            checked(uncovered)
        assert checked.unmatched > 0
        # one universe served the whole workload: bits are in arrival
        # order, which is no longer the str order the sums run in
        universe = checked.universe
        everything = (1 << universe.size) - 1
        assert universe.sorted_bits(everything) != list(range(universe.size))

    def test_a_winner_is_materialised_once(self, snowflake_setup):
        workload, pool, _ = snowflake_setup
        algorithm = GetSelectivity.create(pool, DiffError(pool))
        built = []
        materialise = algorithm._scorer.materialise
        algorithm._scorer.materialise = lambda *pair: built.append(pair[:2]) or (
            materialise(*pair)
        )
        results = [algorithm(predicates) for predicates in workload[:40]]
        assert len(built) == len(set(built)) == len(algorithm._estimate_cache)
        assert len(built) < algorithm.match_cache_misses / 4
        # what was built is what the results carry
        winners = {match for match, _ in algorithm._estimate_cache.values()}
        assert all(match in winners for r in results for match in r.matches)
        # steady regime: the memo is gone, the winners are not rebuilt
        algorithm.reset()
        assert [algorithm(predicates) for predicates in workload[:40]] == results
        assert len(built) == len(algorithm._estimate_cache)
        assert algorithm.match_cache_misses == 0
        assert not algorithm.matcher._factor_cache  # nothing went the frozenset way


class TestUnpricedFunctions:
    def test_opt_error_gets_real_matches_and_every_combination(
        self, tiny_snowflake, snowflake_setup, monkeypatch
    ):
        workload, pool, _ = snowflake_setup
        enumerated = []
        enumerate_matches = get_selectivity.enumerate_matches

        def spy(candidates):
            enumerated.append(candidates.factor)
            return enumerate_matches(candidates)

        monkeypatch.setattr(get_selectivity, "enumerate_matches", spy)
        executor = Executor(tiny_snowflake)
        fast = GetSelectivity.create(pool, OptError(executor))
        oracle = GetSelectivity.create(pool, OptError(executor), engine="legacy")
        predicates = next(p for p in workload if len(p) == 4)
        result = fast(predicates)
        scored = len(enumerated)
        assert scored == fast.match_cache_misses > 0
        assert result == oracle(predicates)
        assert len(enumerated) - scored == oracle.match_cache_misses

    def test_a_function_without_a_price_is_handed_matches(self, snowflake_setup):
        workload, pool, _ = snowflake_setup

        class Unpriced:
            name = "unpriced"
            requires_combinations = False
            plan_stable = False

            def __init__(self):
                self.inner = DiffError(pool)
                self.priced_matches = 0

            def rank_candidate(self, entry):
                return self.inner.rank_candidate(entry)

            def factor_error(self, match):
                self.priced_matches += 1
                return self.inner.factor_error(match)

        error_function = Unpriced()
        algorithm = GetSelectivity.create(pool, error_function)
        expected = GetSelectivity.create(pool, DiffError(pool))
        for predicates in workload[:10]:
            assert algorithm(predicates) == expected(predicates)
        assert error_function.priced_matches == algorithm.match_cache_misses > 0


class TestFaultInjectionPoint:
    def test_sit_match_is_checked_once_per_attribute_per_scored_pair(
        self, snowflake_setup
    ):
        workload, pool, _ = snowflake_setup
        algorithm = GetSelectivity.create(pool, NIndError())
        score = algorithm._score
        expected = 0

        def counted(p_mask, q_mask):
            nonlocal expected
            # every attribute of P' has a base histogram: none is skipped
            expected += len(attributes_of(algorithm.universe.set_of(p_mask)))
            return score(p_mask, q_mask)

        algorithm._score = counted
        plan = FaultPlan(
            [FaultRule(point=POINT_SIT_MATCH, after=10**9, max_fires=None)], seed=0
        )
        with armed(plan):
            for predicates in workload[:30]:
                # later queries find most attributes in the scorer's table
                # already: a table hit is checked like a table miss
                algorithm(predicates)
                assert plan.rules[0].evaluations == expected
            # a warm factor-match cache scores nothing, so checks nothing
            algorithm.reset()
            for predicates in workload[:30]:
                algorithm(predicates)
            assert plan.rules[0].evaluations == expected > 0


class TestTracingKeepsItsStages:
    def test_stage_calls_and_counters_for_a_pinned_query(self, snowflake_setup):
        workload, pool, _ = snowflake_setup
        predicates = next(p for p in workload if len(p) == 5)
        plain = GetSelectivity.create(pool, DiffError(pool))
        traced = GetSelectivity.create(pool, DiffError(pool))
        oracle = GetSelectivity.create(pool, DiffError(pool), engine="legacy")
        trace = traced.enable_tracing()
        reference_trace = oracle.enable_tracing()
        assert traced(predicates) == plain(predicates) == oracle(predicates)
        assert traced.matcher.calls == plain.matcher.calls == oracle.matcher.calls
        # both stages, once per scored pair (every attribute has a SIT)
        assert (
            trace.calls["factor_matching"]
            == trace.calls["error_scoring"]
            == traced.match_cache_misses
            == reference_trace.calls["factor_matching"]
        )
        assert trace.timings["factor_matching"] > 0.0
        assert trace.timings["error_scoring"] > 0.0
        for counter in (
            "sit_candidates_considered",
            "sit_candidates_matched",
            "memo_hits",
            "memo_misses",
        ):
            assert trace.counters[counter] == reference_trace.counters[counter] > 0
        # the steady regime answers line 16 from the winners
        traced.reset()
        assert traced(predicates) == plain(predicates)
        assert trace.counters["estimate_cache_hits"] == len(traced._estimate_cache)
        assert "factor_matching" not in trace.calls


class TestOneLifetimeForEverythingKeyedByMask:
    REQUESTS = 2000

    def test_distinct_constants_never_outgrow_the_bound(self, snowflake_setup):
        workload, pool, catalog = snowflake_setup
        templates = [p for p in workload if len(p) <= 4][:8]
        largest = max(len(p) for p in templates)
        session = EstimationSession(catalog, plan_cache=False)
        algorithm = session.estimator.algorithm
        lifetimes = [0]
        for i in range(self.REQUESTS):
            template = templates[i % len(templates)]
            request = frozenset(
                p
                if p.is_join
                else FilterPredicate(p.attribute, p.low - 1e-3 * i, p.high + 1e-3 * i)
                for p in template
            )
            before = algorithm.universe
            answer = session.estimate(request)
            fresh = GetSelectivity.create(pool, DiffError(pool))
            assert answer == fresh(request)
            caches = algorithm.stats_snapshot().caches
            assert algorithm.universe.size <= UNIVERSE_LIMIT + largest
            if algorithm.universe is before:
                lifetimes[-1] = caches["match_cache_entries"]
            else:
                # everything keyed by the old masks went with them: what
                # is held is what this one request put there
                lifetimes.append(0)
                assert caches["match_cache_entries"] == len(fresh._match_cache)
                assert caches["memo_entries"] == len(fresh._memo)
                assert caches["estimate_cache_entries"] == len(fresh._estimate_cache)
                assert len(algorithm._scorer._picks) == len(fresh._scorer._picks)
                # and what is keyed by the predicates behind them
                assert len(algorithm.matcher._attribute_cache) == len(
                    fresh.matcher._attribute_cache
                )
                assert len(algorithm.error_function._dependence_cache) == len(
                    fresh.error_function._dependence_cache
                )
            assert caches["memo_entries"] <= MEMO_LIMIT + 3**largest
        # fresh constants every request: the universe did start over, and
        # no lifetime holds more than the first one did
        assert len(lifetimes) > 1
        assert max(lifetimes) <= lifetimes[0]
