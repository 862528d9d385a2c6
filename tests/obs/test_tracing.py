"""Tracing integration: disabled-by-default contract, bit-identical
results, and per-stage population when enabled."""

from __future__ import annotations

import pytest

from repro.core.errors import NIndError
from repro.estimators import make_gs_diff
from repro.core.get_selectivity import GetSelectivity
from repro.obs.trace import Trace
from repro.optimizer.integration import MemoCoupledEstimator
from repro.stats.pool import SITPool


@pytest.fixture
def predicates(two_table_join, two_table_attrs):
    from repro.core.predicates import FilterPredicate

    return frozenset(
        {
            two_table_join,
            FilterPredicate(two_table_attrs["Ra"], 10.0, 60.0),
            FilterPredicate(two_table_attrs["Sb"], 20.0, 80.0),
        }
    )


class TestDisabledByDefault:
    def test_trace_is_none_everywhere(self, two_table_db, two_table_pool):
        estimator = make_gs_diff(two_table_db, two_table_pool)
        assert estimator.trace is None
        assert estimator.algorithm.trace is None
        assert estimator.algorithm.matcher.trace is None

    @pytest.mark.parametrize("engine", ["bitmask", "legacy"])
    def test_results_bit_identical_with_and_without_tracing(
        self, two_table_pool, predicates, engine
    ):
        plain = GetSelectivity.create(
            two_table_pool, NIndError(), engine=engine
        )
        traced = GetSelectivity.create(
            two_table_pool, NIndError(), engine=engine
        )
        traced.enable_tracing()
        untraced_result = plain(predicates)
        traced_result = traced(predicates)
        assert traced_result.selectivity == untraced_result.selectivity
        assert traced_result.error == untraced_result.error
        assert traced_result.decomposition == untraced_result.decomposition

    def test_tracing_adds_no_memo_keys(self, two_table_pool, predicates):
        plain = GetSelectivity.create(two_table_pool, NIndError())
        traced = GetSelectivity.create(two_table_pool, NIndError())
        traced.enable_tracing()
        plain(predicates)
        traced(predicates)
        assert set(plain._memo) == set(traced._memo)
        assert set(plain._estimate_cache) == set(traced._estimate_cache)

    def test_disabled_snapshot_has_no_stage_timings(
        self, two_table_pool, predicates
    ):
        algorithm = GetSelectivity.create(two_table_pool, NIndError())
        algorithm(predicates)
        snapshot = algorithm.stats_snapshot()
        assert snapshot.meta["tracing"] is False
        assert "dp_enumeration_seconds" not in snapshot.timings


class TestEnabledTrace:
    @pytest.mark.parametrize("engine", ["bitmask", "legacy"])
    def test_stages_populated(self, two_table_pool, predicates, engine):
        # a private pool: its join store starts empty, so the bitmask
        # DP's join is a real (timed) one, not a hit on another test's
        pool = SITPool(list(two_table_pool))
        algorithm = GetSelectivity.create(pool, NIndError(), engine=engine)
        trace = algorithm.enable_tracing()
        algorithm(predicates)
        assert trace.timings["dp_enumeration"] > 0.0
        assert trace.calls["factor_matching"] >= 1
        assert trace.calls["histogram_join"] >= 1
        assert trace.calls["error_scoring"] >= 1

    def test_candidate_funnel_counters(self, two_table_pool, predicates):
        algorithm = GetSelectivity.create(two_table_pool, NIndError())
        trace = algorithm.enable_tracing()
        algorithm(predicates)
        considered = trace.counters["sit_candidates_considered"]
        matched = trace.counters["sit_candidates_matched"]
        assert considered >= matched >= 1

    def test_memo_hit_counters(self, two_table_pool, predicates):
        algorithm = GetSelectivity.create(two_table_pool, NIndError())
        trace = algorithm.enable_tracing()
        algorithm(predicates)
        algorithm(predicates)  # answered wholly from the memo
        assert trace.counters["memo_hits"] >= 1

    def test_stage_timings_enter_snapshot(self, two_table_pool, predicates):
        algorithm = GetSelectivity.create(two_table_pool, NIndError())
        algorithm.enable_tracing()
        algorithm(predicates)
        snapshot = algorithm.stats_snapshot()
        assert snapshot.meta["tracing"] is True
        assert snapshot.timings["dp_enumeration_seconds"] > 0.0
        assert snapshot.counters["factor_matching_calls"] >= 1

    def test_disable_tracing_detaches_everywhere(
        self, two_table_db, two_table_pool
    ):
        estimator = make_gs_diff(two_table_db, two_table_pool)
        trace = estimator.enable_tracing()
        assert isinstance(trace, Trace)
        assert estimator.algorithm.matcher.trace is trace
        estimator.disable_tracing()
        assert estimator.trace is None
        assert estimator.algorithm.matcher.trace is None

    def test_external_trace_can_be_shared(self, two_table_pool, predicates):
        shared = Trace()
        a = GetSelectivity.create(two_table_pool, NIndError())
        b = GetSelectivity.create(two_table_pool, NIndError())
        a.enable_tracing(shared)
        b.enable_tracing(shared)
        a(predicates)
        b(predicates)
        assert shared.calls["dp_enumeration"] >= 2

    def test_reset_clears_trace_accumulators(self, two_table_pool, predicates):
        algorithm = GetSelectivity.create(two_table_pool, NIndError())
        trace = algorithm.enable_tracing()
        algorithm(predicates)
        algorithm.reset()
        assert not trace.timings and not trace.counters


class TestEstimatorTracing:
    def test_parse_bind_stage(self, tiny_snowflake):
        from repro.stats.builder import SITBuilder
        from repro.stats.pool import build_workload_pool
        from repro.sql import parse_query

        sql = (
            "SELECT * FROM sales, customer "
            "WHERE sales.customer_id = customer.customer_id"
        )
        query = parse_query(sql, tiny_snowflake.schema)
        pool = build_workload_pool(SITBuilder(tiny_snowflake), [query], max_joins=1)
        estimator = make_gs_diff(tiny_snowflake, pool)
        trace = estimator.enable_tracing()
        estimator.cardinality_sql(sql)
        assert trace.calls["parse_bind"] == 1
        assert trace.timings["parse_bind"] > 0.0


class TestMemoCoupledTracing:
    def test_stages_and_counters(self, two_table_db, two_table_pool, predicates):
        from repro.engine.expressions import Query

        query = Query(predicates)
        estimator = MemoCoupledEstimator(
            two_table_db, two_table_pool, NIndError()
        )
        trace = estimator.enable_tracing()
        selectivity = estimator.selectivity(query)
        assert 0.0 <= selectivity <= 1.0
        assert trace.calls["factor_matching"] >= 1
        snapshot = estimator.stats_snapshot()
        assert snapshot.counters["entries_scored"] >= 1
        assert snapshot.meta["estimator"] == "MemoCoupled"
