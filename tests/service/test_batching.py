"""Micro-batching semantics: coalescing, dedup and cross-request factor
sharing, asserted through StatsSnapshot telemetry."""

from __future__ import annotations

import pytest

from repro.catalog import EstimationSession
from repro.service import EstimationService, ServiceConfig

#: a wide-open batching window so one submit burst lands in one batch
COALESCING = ServiceConfig(
    workers=1, queue_depth=64, batch_window_s=0.5, max_batch=64
)

#: same, with the compiled-plan cache off — for tests that assert the
#: factor-match sharing a plan replay intentionally never exercises
COALESCING_NO_PLAN_CACHE = ServiceConfig(
    workers=1,
    queue_depth=64,
    batch_window_s=0.5,
    max_batch=64,
    plan_cache=False,
)


class TestFactorSharing:
    def test_batch_of_k_does_less_matcher_work_than_k_sessions(
        self, service_catalog, factor_sharing_queries
    ):
        """The satellite gate: a batch of K factor-sharing queries costs
        fewer matcher calls than K isolated sessions, because the
        worker's session answers them all off shared factor caches."""
        queries = factor_sharing_queries
        snapshot = service_catalog.snapshot()

        # K isolated sessions: every factor match is computed from
        # scratch (``matcher_calls`` counts *logical* invocations — the
        # paper's Figure 6 metric; ``match_cache_misses`` counts the
        # matching passes actually executed, which is what sharing saves).
        isolated_match_passes = 0.0
        isolated_hits = 0.0
        for query in queries:
            session = EstimationSession(snapshot, plan_cache=False)
            session.estimate(query)
            caches = session.stats_snapshot().caches
            isolated_match_passes += caches["match_cache_misses"]
            isolated_hits += caches["match_cache_hits"]
        assert isolated_hits == 0.0  # nothing shared across sessions

        with EstimationService(
            service_catalog, config=COALESCING_NO_PLAN_CACHE
        ) as service:
            futures = [service.submit(query) for query in queries]
            answers = [future.result(timeout=30.0) for future in futures]
            stats = service.stats_snapshot()

        # the shared join core is solved once and is a memo lookup for
        # every later member
        assert stats.caches["match_cache_misses"] < isolated_match_passes
        assert stats.service["served"] == float(len(queries))
        assert stats.service["batches"] == 1.0
        assert all(answer.batch_size == len(queries) for answer in answers)
        # distinct predicate sets: coalesced but not deduplicated
        assert stats.service["deduplicated"] == 0.0

    def test_shared_cache_hits_accumulate_across_the_batch(
        self, service_catalog, factor_sharing_queries
    ):
        alone = EstimationSession(
            service_catalog.snapshot(), plan_cache=False
        )
        alone.estimate(factor_sharing_queries[0])
        one = alone.stats_snapshot().counters["matcher_calls"]
        with EstimationService(
            service_catalog, config=COALESCING_NO_PLAN_CACHE
        ) as service:
            futures = [
                service.submit(query) for query in factor_sharing_queries
            ]
            for future in futures:
                future.result(timeout=30.0)
            stats = service.stats_snapshot()
        # later batch members find the join core the first one solved in
        # the worker session's memo: K same-shape members cost less than
        # K times one
        assert stats.service["batches"] == 1.0
        assert stats.counters["matcher_calls"] < one * len(factor_sharing_queries)


class TestDeduplication:
    def test_identical_requests_share_one_dp_run(
        self, service_catalog, join_query
    ):
        k = 8
        # what one isolated request costs in logical matcher invocations
        probe = EstimationSession(service_catalog.snapshot())
        probe.estimate(join_query)
        per_query_calls = probe.stats_snapshot().counters["matcher_calls"]

        with EstimationService(service_catalog, config=COALESCING) as service:
            futures = [service.submit(join_query) for _ in range(k)]
            answers = [future.result(timeout=30.0) for future in futures]
            stats = service.stats_snapshot()

        assert stats.service["batches"] == 1.0
        assert stats.service["deduplicated"] == float(k - 1)
        # one DP run answered the whole batch ...
        assert stats.counters["queries"] == 1
        # ... so the batch cost one query's matcher calls, not k of them
        assert stats.counters["matcher_calls"] == per_query_calls
        assert stats.counters["matcher_calls"] < k * per_query_calls
        # ... and every answer is the same bit pattern
        assert len({answer.selectivity for answer in answers}) == 1
        assert sum(answer.deduplicated for answer in answers) == k - 1

    def test_mixed_batch_dedups_only_identical_sets(
        self, service_catalog, factor_sharing_queries
    ):
        queries = factor_sharing_queries[:3] * 2  # each template twice
        with EstimationService(service_catalog, config=COALESCING) as service:
            futures = [service.submit(query) for query in queries]
            for future in futures:
                future.result(timeout=30.0)
            stats = service.stats_snapshot()
        assert stats.service["batches"] == 1.0
        assert stats.service["deduplicated"] == 3.0
        assert stats.counters["queries"] == 3


class TestShapeGroupBatching:
    def test_same_shape_batch_replays_as_one_group(
        self, service_catalog, factor_sharing_queries
    ):
        """Same-shape (not just identical) requests share one compiled
        plan: the first instance compiles, the rest of the batch — and
        all of the next batch — replay without touching the matcher."""
        queries = factor_sharing_queries
        with EstimationService(service_catalog, config=COALESCING) as service:
            first = [
                future.result(timeout=30.0)
                for future in [service.submit(query) for query in queries]
            ]
            second = [
                future.result(timeout=30.0)
                for future in [service.submit(query) for query in queries]
            ]
            stats = service.stats_snapshot()
        # first instance of the shape compiles; every later one replays
        assert [answer.plan_cache_hit for answer in first].count(True) >= (
            len(queries) - 1
        )
        assert all(answer.plan_cache_hit for answer in second)
        assert stats.plan_cache["hits"] >= 2 * len(queries) - 1
        assert stats.plan_cache["compiles"] >= 1.0
        assert stats.plan_cache["hit_rate"] > 0.8

    def test_replayed_answers_match_plan_cache_off(
        self, service_catalog, factor_sharing_queries
    ):
        queries = factor_sharing_queries * 2
        with EstimationService(service_catalog, config=COALESCING) as service:
            cached = [
                future.result(timeout=30.0)
                for future in [service.submit(query) for query in queries]
            ]
        with EstimationService(
            service_catalog, config=COALESCING_NO_PLAN_CACHE
        ) as service:
            cold = [
                future.result(timeout=30.0)
                for future in [service.submit(query) for query in queries]
            ]
        for hit, miss in zip(cached, cold):
            assert hit.selectivity == miss.selectivity
            assert hit.cardinality == miss.cardinality
            assert hit.error == miss.error
        assert not any(answer.plan_cache_hit for answer in cold)


class TestBatchLimits:
    @pytest.mark.parametrize("max_batch", [1, 2])
    def test_max_batch_caps_coalescing(
        self, service_catalog, join_query, max_batch
    ):
        config = ServiceConfig(
            workers=1,
            queue_depth=64,
            batch_window_s=0.05,
            max_batch=max_batch,
        )
        with EstimationService(service_catalog, config=config) as service:
            futures = [service.submit(join_query) for _ in range(4)]
            answers = [future.result(timeout=30.0) for future in futures]
            stats = service.stats_snapshot()
        assert all(answer.batch_size <= max_batch for answer in answers)
        assert stats.service["batch_size"]["max"] <= float(max_batch)
        assert stats.service["batches"] >= 4.0 / max_batch
