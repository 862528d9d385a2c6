"""The memo-coupled pass against the frozenset loop it replaced.

``MemoCoupledEstimator`` scores every memo entry through the DP's own
line 12 (``GetSelectivity.price_factor``) and estimates only each
group's winner through line 16 (``estimate_winner``).  The loop it
replaced matched each entry's factor on frozensets
(``candidates_for_factor`` + ``select_match``), priced it with
``factor_error`` and estimated every entry with a plain
``estimate_factor``; that loop is pinned here as the oracle.  Every
group's ``(selectivity, error, best_entry)`` and the Figure 6 matcher
count must be equal, not approximately equal.
"""

from __future__ import annotations

import pytest

import repro.core.matching as matching
from repro.core.errors import INFINITE_ERROR, DiffError, NIndError, merge
from repro.core.get_selectivity import GetSelectivity
from repro.core.matching import ViewMatcher, estimate_factor, select_match
from repro.core.selectivity import Factor
from repro.optimizer.explorer import explore, subplan_predicate_sets
from repro.optimizer.integration import MemoCoupledEstimator
from repro.stats.builder import SITBuilder
from repro.stats.pool import SITPool, build_workload_pool
from repro.workload.queries import WorkloadConfig, WorkloadGenerator
from repro.workload.tpch import motivating_query

ERROR_FUNCTIONS = {"NInd": lambda pool: NIndError(), "Diff": DiffError}


def frozenset_pass(pool, error_function, exploration):
    """The memo-coupled loop as it was: ``{key: (selectivity, error,
    best_entry)}`` and the matcher it counted on."""
    matcher = ViewMatcher(pool)
    memo = exploration.memo
    estimates = {}
    for key in sorted(memo.groups, key=lambda k: (len(k.predicates), str(k))):
        if not key.predicates:
            estimates[key] = (1.0, 0.0, None)
            continue
        best = (1.0, INFINITE_ERROR, None)
        for entry in memo.groups[key].entries:
            q_predicates = frozenset()
            input_selectivity = 1.0
            input_error = 0.0
            for input_key in entry.inputs:
                estimate = estimates.get(input_key)
                if estimate is None or estimate[1] == INFINITE_ERROR:
                    break
                q_predicates |= input_key.predicates
                input_selectivity *= estimate[0]
                input_error = merge(input_error, estimate[1])
            else:
                factor = Factor(frozenset((entry.parameter,)), q_predicates)
                matcher.count_invocation()
                candidates = matcher.candidates_for_factor(factor, count=False)
                if candidates is None:
                    continue
                match = select_match(candidates, error_function)
                factor_error = error_function.factor_error(match)
                selectivity = estimate_factor(match) * input_selectivity
                error = merge(factor_error, input_error)
                if error < best[1]:
                    best = (selectivity, error, entry)
        estimates[key] = best
    return estimates, matcher


@pytest.fixture(scope="module")
def snowflake_workloads(tiny_snowflake):
    """J3 and J5 workloads over Figure 6's ``J_2`` pools."""
    builder = SITBuilder(tiny_snowflake)
    out = {}
    for join_count, count in ((3, 2), (5, 1)):
        queries = WorkloadGenerator(
            tiny_snowflake,
            WorkloadConfig(
                join_count=join_count, filter_count=3, seed=42 + join_count
            ),
        ).generate(count)
        pool = build_workload_pool(builder, queries, max_joins=2)
        out[join_count] = (queries, pool)
    return out


@pytest.fixture(scope="module")
def tpch_case(tpch_db):
    query = motivating_query(tpch_db)
    return query, build_workload_pool(SITBuilder(tpch_db), [query], max_joins=2)


def assert_parity(database, pool, name, query):
    exploration = explore(query)
    coupled = MemoCoupledEstimator(database, pool, ERROR_FUNCTIONS[name](pool))
    estimates = coupled.estimate_memo(exploration)
    expected, matcher = frozenset_pass(
        pool, ERROR_FUNCTIONS[name](pool), exploration
    )
    assert set(estimates) == set(expected)
    differing = [
        key
        for key, estimate in estimates.items()
        if (estimate.selectivity, estimate.error, estimate.best_entry)
        != expected[key]
    ]
    assert differing == []
    assert coupled.matcher.calls == matcher.calls > 0


@pytest.mark.parametrize("name", sorted(ERROR_FUNCTIONS))
class TestParity:
    @pytest.mark.parametrize("join_count", [3, 5])
    def test_snowflake(self, tiny_snowflake, snowflake_workloads, name, join_count):
        queries, pool = snowflake_workloads[join_count]
        for query in queries:
            assert_parity(tiny_snowflake, pool, name, query)

    def test_tpch_motivating_query(self, tpch_db, tpch_case, name):
        query, pool = tpch_case
        assert_parity(tpch_db, pool, name, query)


@pytest.fixture()
def kernel_calls(monkeypatch) -> list:
    """The ``(id(left), id(right), max_buckets)`` of every kernel call."""
    calls: list = []
    kernel = matching.join_histograms

    def counting(left, right, max_buckets=None):
        calls.append((id(left), id(right), max_buckets))
        return kernel(left, right, max_buckets=max_buckets)

    monkeypatch.setattr(matching, "join_histograms", counting)
    return calls


class TestJoinStore:
    def test_pass_over_a_served_pool_joins_only_new_pairs_once(
        self, tiny_snowflake, snowflake_workloads, kernel_calls
    ):
        queries, pool = snowflake_workloads[5]
        pool = SITPool(list(pool))  # a join-cold store of its own
        exploration = explore(queries[0])
        dp = GetSelectivity(pool, NIndError())
        for predicates in subplan_predicate_sets(exploration):
            dp(predicates)
        served = set(pool.derived_joins)
        assert served and len(kernel_calls) == len(served)
        kernel_calls.clear()
        coupled = MemoCoupledEstimator(tiny_snowflake, pool, NIndError())
        coupled.estimate_memo(exploration)
        assert not served & set(kernel_calls)
        assert len(kernel_calls) == len(set(kernel_calls))
        # a second pass is all cache: no kernel call, same matcher count
        calls = coupled.matcher.calls
        kernel_calls.clear()
        coupled.estimate_memo(exploration)
        assert kernel_calls == []
        assert coupled.matcher.calls == 2 * calls
