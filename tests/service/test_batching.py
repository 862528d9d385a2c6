"""Micro-batching semantics: how batches form (from the backlog and
from group admission, never from a timer), dedup and cross-request
factor sharing, asserted through StatsSnapshot telemetry."""

from __future__ import annotations

import pytest

from repro.catalog import EstimationSession
from repro.core.errors import NIndError
from repro.service import EstimationService, ServiceConfig
from repro.service.protocol import (
    DeadlineExceeded,
    InvalidRequest,
    Overloaded,
    ServiceClosed,
)
from repro.service.queue import AdmissionQueue
from repro.sql import parse_query

#: one worker and a batch bound no burst here reaches: a group admitted
#: with ``submit_many`` is one batch by construction, not by timing
COALESCING = ServiceConfig(workers=1, queue_depth=64, max_batch=64)


class _Unstable(NIndError):
    """NInd, declared not plan-stable: a service serving with it keeps no
    plan cache — for tests that assert the factor-match sharing a plan
    replay intentionally never exercises."""

    plan_stable = False


def burst(service, queries, timeout=None):
    """Admit ``queries`` as one group; their answers in order."""
    outcomes = service.submit_many([(query, timeout) for query in queries])
    return [outcome.result(timeout=30.0) for outcome in outcomes]


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
        # scratch (``matcher_calls`` counts the paper's Figure 6
        # invocations, each one a pair priced — what sharing saves).
        isolated_match_passes = 0.0
        for query in queries:
            session = EstimationSession(snapshot, NIndError(), plan_cache=False)
            session.estimate(query)
            isolated_match_passes += session.stats_snapshot().counters[
                "matcher_calls"
            ]

        with EstimationService(
            service_catalog, config=COALESCING, error_function=_Unstable()
        ) as service:
            answers = burst(service, queries)
            stats = service.stats_snapshot()

        # the shared join core is solved once and is a memo lookup for
        # every later member
        assert stats.counters["matcher_calls"] < isolated_match_passes
        assert stats.service["served"] == float(len(queries))
        assert stats.service["batches"] == 1.0
        assert all(answer.batch_size == len(queries) for answer in answers)
        # distinct predicate sets: coalesced but not deduplicated
        assert stats.service["deduplicated"] == 0.0

    def test_shared_cache_hits_accumulate_across_the_batch(
        self, service_catalog, factor_sharing_queries
    ):
        alone = EstimationSession(
            service_catalog.snapshot(), NIndError(), plan_cache=False
        )
        alone.estimate(factor_sharing_queries[0])
        one = alone.stats_snapshot().counters["matcher_calls"]
        with EstimationService(
            service_catalog, config=COALESCING, error_function=_Unstable()
        ) as service:
            burst(service, factor_sharing_queries)
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
            answers = burst(service, [join_query] * k)
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
            burst(service, queries)
            stats = service.stats_snapshot()
        assert stats.service["batches"] == 1.0
        assert stats.service["deduplicated"] == 3.0
        assert stats.counters["queries"] == 3

    def test_deduplicated_members_scale_by_their_own_from_tables(
        self, service_catalog
    ):
        """One predicate set over ``FROM R`` and over ``FROM R, S``: one
        DP run, and each member's cardinality is its own cross product's."""
        where = "WHERE R.a >= 10 AND R.a <= 40"
        sqls = [f"SELECT * FROM R {where}", f"SELECT * FROM R, S {where}"]
        schema = service_catalog.database.schema
        session = EstimationSession(service_catalog)
        expected = [session.cardinality(parse_query(sql, schema)) for sql in sqls]
        with EstimationService(service_catalog, config=COALESCING) as service:
            answers = burst(service, sqls)
            stats = service.stats_snapshot()
        assert stats.service["batches"] == 1.0
        assert [answer.deduplicated for answer in answers] == [False, True]
        assert [answer.cardinality for answer in answers] == expected
        assert expected[0] < expected[1]


class TestShapeGroupBatching:
    def test_same_shape_batch_replays_as_one_group(
        self, service_catalog, factor_sharing_queries
    ):
        """Same-shape (not just identical) requests share one compiled
        plan: the first instance compiles, the rest of the batch — and
        all of the next batch — replay without touching the matcher."""
        queries = factor_sharing_queries
        with EstimationService(service_catalog, config=COALESCING) as service:
            first = burst(service, queries)
            second = burst(service, queries)
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
        with EstimationService(
            service_catalog, config=COALESCING, error_function=NIndError()
        ) as service:
            cached = burst(service, queries)
        with EstimationService(
            service_catalog, config=COALESCING, error_function=_Unstable()
        ) as service:
            cold = burst(service, queries)
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
            workers=1, queue_depth=64, max_batch=max_batch
        )
        with EstimationService(service_catalog, config=config) as service:
            answers = burst(service, [join_query] * 4)
            stats = service.stats_snapshot()
        assert all(answer.batch_size == max_batch for answer in answers)
        assert stats.service["batch_size"]["max"] == float(max_batch)
        assert stats.service["batches"] == 4.0 / max_batch


class TestBatchFormation:
    def test_lone_request_is_a_batch_of_one_and_no_window_is_asked_for(
        self, service_catalog, cold_queries, monkeypatch
    ):
        """No timer on the request path: the worker asks the queue for
        what is there, never for a linger.  Every request is a new
        shape, so every one reaches a worker (a compiled shape would be
        answered on arrival, in no batch at all)."""
        windows: list[tuple] = []
        real_take_batch = AdmissionQueue.take_batch

        def spy(self, max_batch, *args, **kwargs):
            windows.append((args, kwargs))
            return real_take_batch(self, max_batch, *args, **kwargs)

        monkeypatch.setattr(AdmissionQueue, "take_batch", spy)
        with EstimationService(service_catalog, config=COALESCING) as service:
            answers = [service.estimate(query) for query in cold_queries]
            stats = service.stats_snapshot()
        assert [answer.batch_size for answer in answers] == [1, 1, 1]
        assert not any(answer.plan_cache_hit for answer in answers)
        assert stats.service["batches"] == 3.0
        assert stats.service.get("answered_on_arrival", 0.0) == 0.0
        assert windows and all(call == ((), {}) for call in windows)

    def test_backlog_behind_a_busy_worker_is_the_next_batch(
        self, service_catalog, factor_sharing_queries, session_gate
    ):
        """Requests admitted one by one while the worker is inside a
        batch are served together the moment it is free."""
        backlog = factor_sharing_queries * 2  # each template twice
        with EstimationService(service_catalog, config=COALESCING) as service:
            held = service.submit(factor_sharing_queries[0])
            session_gate.wait_entered()
            futures = [service.submit(query) for query in backlog]
            assert service.queue_depth == len(backlog)
            session_gate.open()
            assert held.result(timeout=30.0).batch_size == 1
            answers = [future.result(timeout=30.0) for future in futures]
            stats = service.stats_snapshot()
        assert stats.service["batches"] == 2.0
        assert all(answer.batch_size == len(backlog) for answer in answers)
        assert stats.service["deduplicated"] == float(
            len(factor_sharing_queries)
        )
        assert [answer.deduplicated for answer in answers] == (
            [False] * len(factor_sharing_queries)
            + [True] * len(factor_sharing_queries)
        )


class TestGroupAdmission:
    #: a group with one member no parser accepts, one no coercion
    #: accepts and one whose deadline has passed before it is dequeued
    @staticmethod
    def mixed_group(query):
        return [
            (query, None),
            ("SELECT * FROM nowhere WHERE", None),
            (query, 0.0),
            (12345, None),
            (query, 30.0),
        ]

    COUNTERS = ("submitted", "served", "shed_deadline", "batched_requests")

    def test_each_member_gets_its_own_typed_outcome(
        self, service_catalog, join_query
    ):
        with EstimationService(service_catalog, config=COALESCING) as service:
            outcomes = service.submit_many(self.mixed_group(join_query))
            assert isinstance(outcomes[1], InvalidRequest)
            assert isinstance(outcomes[3], InvalidRequest)
            assert outcomes[1] is not outcomes[3]
            first = outcomes[0].result(timeout=30.0)
            with pytest.raises(DeadlineExceeded):
                outcomes[2].result(timeout=30.0)
            last = outcomes[4].result(timeout=30.0)
            assert first.selectivity == last.selectivity
            assert first.batch_size == 3  # the admissible members
            grouped = service.stats_snapshot().service

        # ... and the ledger reads as if they had been N submits
        with EstimationService(service_catalog, config=COALESCING) as service:
            futures = []
            for query, timeout in self.mixed_group(join_query):
                try:
                    futures.append(service.submit(query, timeout=timeout))
                except InvalidRequest:
                    pass
            for future in futures:
                try:
                    future.result(timeout=30.0)
                except DeadlineExceeded:
                    pass
            one_by_one = service.stats_snapshot().service
        assert [grouped[name] for name in self.COUNTERS] == [
            one_by_one[name] for name in self.COUNTERS
        ]
        assert grouped["submitted"] == 3.0
        assert grouped["shed_deadline"] == 1.0
        assert "shed_overload" not in grouped or grouped["shed_overload"] == 0.0

    def test_group_larger_than_the_queue_is_admitted_up_to_depth(
        self, service_catalog, join_query, session_gate
    ):
        config = ServiceConfig(workers=1, queue_depth=3, max_batch=64)
        with EstimationService(service_catalog, config=config) as service:
            held = service.submit(join_query)
            session_gate.wait_entered()
            outcomes = service.submit_many([(join_query, None)] * 5)
            assert service.queue_depth == 3
            assert all(isinstance(o, Overloaded) for o in outcomes[3:])
            stats = service.stats_snapshot().service
            assert stats["shed_overload"] == 2.0
            assert stats["submitted"] == 4.0
            session_gate.open()
            held.result(timeout=30.0)
            answers = [outcome.result(timeout=30.0) for outcome in outcomes[:3]]
        assert [answer.batch_size for answer in answers] == [3, 3, 3]

    def test_closing_service_refuses_every_member(
        self, service_catalog, join_query
    ):
        service = EstimationService(service_catalog, config=COALESCING)
        service.close()
        outcomes = service.submit_many(self.mixed_group(join_query))
        assert len(outcomes) == 5
        assert all(isinstance(outcome, ServiceClosed) for outcome in outcomes)
        assert service.submit_many([]) == []
