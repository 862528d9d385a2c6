"""The mask-native factor scorer against its reference definition.

The bitmask DP prices every ``Sel(P'|Q)`` on masks
(:class:`repro.core.matching.FactorScorer`) and builds a ``FactorMatch``
only for a factor of the answer's chain.  The frozenset routines —
``candidates_for_factor`` + ``select_match`` + ``factor_error`` — remain
the definition; this suite holds the scorer to them *pair by pair*, for
every ``(p_mask, q_mask)`` the DP scores over seeded snowflake and TPC-H
workloads (traced and untraced, and over a pool whose SIT expressions
hold filters), and checks what rides on the scoring path: GS-Opt still
gets real matches, the SIT-match injection point is visited once per
attribute match of the answer (never while pricing), tracing keeps its
two stages, and
everything keyed by a mask starts over together once the universe has
outgrown ``UNIVERSE_LIMIT``.
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
from repro.core.matching import FactorScorer, ViewMatcher, select_match
from repro.core.predicates import Attribute, FilterPredicate, attributes_of
from repro.core.selectivity import Factor
from repro.engine.executor import Executor
from repro.resilience.faults import POINT_SIT_MATCH, FaultPlan, FaultRule, armed
from repro.stats.pool import SITPool
from repro.stats.sit import SIT
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


class CheckedScorer(FactorScorer):
    """Compares every pair it scores with the reference routines."""

    def __init__(self, universe, matcher, error_function):
        super().__init__(universe, matcher, error_function)
        self.reference = ViewMatcher(matcher.pool)
        self.scored = 0
        self.unmatched = 0

    def score(self, p_mask, q_mask, trace=None):
        scored = super().score(p_mask, q_mask, trace)
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
        assert self.materialise(p_mask, q_mask, picks) == match
        return scored


class CheckedGetSelectivity(GetSelectivity):
    """A bitmask DP whose every priced pair goes through
    :class:`CheckedScorer` (the scorer's one routine, ``score``)."""

    def __init__(self, pool, error_function, **kwargs):
        super().__init__(pool, error_function, **kwargs)
        self._scorer = CheckedScorer(self.universe, self.matcher, error_function)

    @property
    def scored(self) -> int:
        # a start-over would replace the checked scorer with a plain one
        assert isinstance(self._scorer, CheckedScorer)
        return self._scorer.scored

    @property
    def unmatched(self) -> int:
        return self._scorer.unmatched


def unknown_filter(pool) -> FilterPredicate:
    """A filter on a column of a known table that no SIT covers."""
    table = next(iter(pool)).attribute.table
    return FilterPredicate(Attribute(table, "no_such_column"), 0.0, 1.0)


def with_filter_sits(pool, workload, seed: int) -> SITPool:
    """``pool`` plus SITs whose expressions hold a workload filter: per
    query, on every other attribute of it, ``SIT(a | f)`` for its first
    filter ``f``, and ``SIT(a | f, j)`` for a join ``j`` of the query
    (built on ``a``'s base histogram, as the plan cache's filter-bearing
    test builds its one)."""
    rng = random.Random(seed)
    base = {sit.attribute: sit for sit in pool if sit.is_base}
    sits = list(pool)
    for predicates in workload:
        filters = sorted((p for p in predicates if not p.is_join), key=str)
        joins = sorted((p for p in predicates if p.is_join), key=str)
        if not filters:
            continue
        first = filters[0]
        for attribute in sorted(attributes_of(predicates) - {first.attribute}):
            expressions = [frozenset({first})]
            if joins:
                expressions.append(frozenset({first, rng.choice(joins)}))
            for expression in expressions:
                sits.append(
                    SIT(
                        attribute,
                        expression,
                        base[attribute].histogram,
                        diff=round(rng.random(), 3),
                    )
                )
    return SITPool(sits)


def entries(table: dict) -> int:
    """Rows of one of the scorer's two-level tables."""
    return sum(map(len, table.values()))


# ----------------------------------------------------------------------
class TestPairByPair:
    @pytest.mark.parametrize("error_name", sorted(ERROR_FACTORIES))
    @pytest.mark.parametrize("setup_name", ["snowflake_setup", "tpch_setup"])
    def test_every_scored_pair_equals_the_reference(
        self, request, setup_name, error_name
    ):
        self.check_every_pair(request, setup_name, error_name)

    @pytest.mark.parametrize("error_name", sorted(ERROR_FACTORIES))
    @pytest.mark.parametrize("setup_name", ["snowflake_setup", "tpch_setup"])
    def test_every_scored_pair_equals_the_reference_when_traced(
        self, request, setup_name, error_name
    ):
        checked = self.check_every_pair(request, setup_name, error_name, traced=True)
        # both stages of every scored pair were timed inside ``score``;
        # a pair without a match stops after the first
        trace = checked.trace
        assert trace.calls["factor_matching"] == checked.scored
        assert trace.calls["error_scoring"] == checked.scored - checked.unmatched

    def check_every_pair(self, request, setup_name, error_name, traced=False):
        workload, pool, _ = request.getfixturevalue(setup_name)
        assert len(workload) >= 100
        checked = CheckedGetSelectivity(pool, ERROR_FACTORIES[error_name](pool))
        if traced:
            checked.enable_tracing()
        oracle = GetSelectivity.create(
            pool, ERROR_FACTORIES[error_name](pool), engine="legacy"
        )
        for predicates in workload:
            assert checked(predicates) == oracle(predicates)
        assert checked.scored == checked.matcher.calls > 1000
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
        return checked

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
        scored = algorithm.matcher.calls
        bounds = algorithm.bound_scores
        assert scored == algorithm.explored_decompositions + bounds
        assert bounds == sum(map(algorithm.universe.is_connected, algorithm._bounds))
        assert len(built) < scored / 4
        # what was built is what the results carry
        winners = {match for match, _ in algorithm._estimate_cache.values()}
        assert all(match in winners for r in results for match in r.matches)
        # steady regime: the memo is gone, so every pair the search
        # explores is scored again, no bound is, and the winners are not
        # rebuilt
        algorithm.reset()
        assert [algorithm(predicates) for predicates in workload[:40]] == results
        assert algorithm.bound_scores == 0
        assert algorithm.matcher.calls == algorithm.explored_decompositions
        assert algorithm.matcher.calls == scored - bounds
        assert len(built) == len(algorithm._estimate_cache)
        assert not algorithm.matcher._factor_cache  # nothing went the frozenset way


class TestFilterBearingSITExpressions:
    """Candidates are looked up by the part of the conditioning some SIT
    expression mentions; when expressions hold filters, that part must
    keep them, or two conditionings that differ in a filter would share
    one candidate list."""

    @pytest.mark.parametrize("error_name", sorted(ERROR_FACTORIES))
    def test_bitmask_equals_legacy_result_for_result(
        self, snowflake_setup, error_name
    ):
        workload, pool, _ = snowflake_setup
        requests = workload[:60]
        filtered = with_filter_sits(pool, requests[::2], seed=31)
        make_error = ERROR_FACTORIES[error_name]
        checked = CheckedGetSelectivity(filtered, make_error(filtered))
        oracle = GetSelectivity.create(filtered, make_error(filtered), engine="legacy")
        results = []
        for predicates in requests:
            result = checked(predicates)
            assert result == oracle(predicates)
            results.append(result)
        assert checked.scored == checked.matcher.calls > 1000
        scorer = checked._scorer
        members = scorer.universe.set_of(scorer._members)
        assert any(not p.is_join for p in members)
        # the filter-bearing SITs are really used, not just present
        assert any(
            not p.is_join
            for result in results
            for match in result.matches
            for am in match.attribute_matches
            for p in am.sit.expression
        )


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
        assert scored == fast.matcher.calls > 0
        assert result == oracle(predicates)
        assert len(enumerated) - scored == oracle.matcher.calls

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
        assert error_function.priced_matches == algorithm.matcher.calls > 0


class TestFaultInjectionPoint:
    def test_sit_match_is_checked_once_per_attribute_match_of_the_answer(
        self, snowflake_setup
    ):
        """Pricing checks nothing: the point is evaluated once per answer,
        per attribute match of each factor it reads, head first — on the
        SIT read, not on the candidates priced, and whatever the memo
        already held."""
        workload, pool, _ = snowflake_setup
        algorithm = GetSelectivity.create(pool, NIndError())
        checked = []

        class Recording(FaultPlan):
            def check(self, point, detail="", sits=None, key=None):
                if point == POINT_SIT_MATCH:
                    checked.append((detail, tuple(map(str, sits))))
                super().check(point, detail=detail, sits=sits, key=key)

        plan = Recording(
            [FaultRule(point=POINT_SIT_MATCH, probability=0.0, max_fires=None)], seed=0
        )
        with armed(plan):
            for cold_start in (False, True):
                for predicates in workload[:30]:
                    # a cold start answers from the winners' cache, a warm
                    # one realizes sub-answers from the memo: both check
                    # every SIT the answer reads
                    if cold_start:
                        algorithm.reset()
                    checked.clear()
                    result = algorithm(predicates)
                    read = [
                        (str(am.attribute), (str(am.sit),))
                        for match in result.matches
                        for am in match.attribute_matches
                    ]
                    assert checked == read
            algorithm.reset()
            before = plan.rules[0].evaluations
            result = algorithm(workload[0])
        assert plan.rules[0].evaluations - before == sum(
            len(match.attribute_matches) for match in result.matches
        ) > 0


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
        assert traced.matcher.calls == plain.matcher.calls
        # both stages, once per scored pair and once per bound (every
        # attribute has a SIT) — fewer than the exhaustive oracle scores
        assert (
            trace.calls["factor_matching"]
            == trace.calls["error_scoring"]
            == traced.matcher.calls
            == traced.explored_decompositions + traced.bound_scores
            < reference_trace.calls["factor_matching"]
        )
        assert trace.timings["factor_matching"] > 0.0
        assert trace.timings["error_scoring"] > 0.0
        # the bounded search asks the matcher and the memo for no more
        # than the exhaustive one
        for counter in (
            "sit_candidates_considered",
            "sit_candidates_matched",
            "memo_misses",
        ):
            assert 0 < trace.counters[counter] <= reference_trace.counters[counter]
        assert trace.counters["memo_hits"] > 0
        # the steady regime scores every pair again and answers line 16
        # from the winners: no histogram is joined
        traced.reset()
        assert traced(predicates) == plain(predicates)
        assert trace.counters["estimate_cache_hits"] == len(traced._estimate_cache)
        assert trace.calls["factor_matching"] == traced.matcher.calls
        assert "histogram_join" not in trace.calls


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
                lifetimes[-1] = entries(algorithm._scorer._picks)
            else:
                # everything keyed by the old masks went with them: what
                # is held is what this one request put there
                lifetimes.append(0)
                assert caches["memo_entries"] == len(fresh._memo)
                assert caches["estimate_cache_entries"] == len(fresh._estimate_cache)
                scorer, fresh_scorer = algorithm._scorer, fresh._scorer
                assert entries(scorer._picks) == entries(fresh_scorer._picks)
                assert entries(scorer._maximal) == entries(fresh_scorer._maximal)
                assert len(scorer._prices) == len(fresh_scorer._prices)
                assert entries(scorer._rows) == entries(fresh_scorer._rows)
                assert len(algorithm._bounds) == len(fresh._bounds)
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
