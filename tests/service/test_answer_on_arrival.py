"""Hits answered on arrival: the workers publish their compiled plans per
snapshot, ``submit_many`` replays a compiled shape on the submitting
thread, and only misses cross to a worker — unless the published table
is stale, the breaker has rolled back, or a fault plan is armed."""

from __future__ import annotations

import sys
import threading
from dataclasses import replace
from itertools import combinations

from repro.advisor import AdvisorConfig
from repro.catalog import EstimationSession
from repro.core.plancache import CompiledPlan, PlanCache, shape_fingerprint
from repro.core.predicates import FilterPredicate
from repro.engine.expressions import Query
from repro.obs import StalenessTracker
from repro.resilience.faults import FaultPlan, FaultRule, armed
from repro.service import EstimationService, HealingConfig, ServiceConfig

ONE_WORKER = ServiceConfig(workers=1, queue_depth=64)

#: armed, and never fires: only its being armed is under test
NEVER_FIRES = FaultRule(
    point="worker_batch", fault="worker_crash", probability=0.0, max_fires=None
)


def service_stats(service) -> dict:
    return dict(service.stats_snapshot().service)


def arrivals(service) -> float:
    return service_stats(service).get("answered_on_arrival", 0.0)


class TestAnsweredOnArrival:
    def test_compiled_shape_is_answered_on_the_submitting_thread(
        self, service_catalog, factor_sharing_queries, cold_queries, monkeypatch
    ):
        """With the only worker parked inside a batch, a compiled shape
        is still answered — by the thread that submitted it."""
        first, *rest = factor_sharing_queries
        twin = EstimationSession(service_catalog, plan_cache=False)
        with EstimationService(service_catalog, config=ONE_WORKER) as service:
            service.estimate(first)  # compiles, and publishes its plan
            held, release = threading.Event(), threading.Event()
            serve_batch = EstimationService._serve_batch

            def parked(self, session, batch):
                held.set()
                release.wait(timeout=30.0)
                return serve_batch(self, session, batch)

            replayed_on: list[int] = []
            replay = CompiledPlan.replay

            def recording(plan, ordered):
                replayed_on.append(threading.get_ident())
                return replay(plan, ordered)

            monkeypatch.setattr(EstimationService, "_serve_batch", parked)
            monkeypatch.setattr(CompiledPlan, "replay", recording)
            try:
                miss = service.submit(cold_queries[1])  # another shape
                assert held.wait(timeout=10.0), "the worker never took the miss"
                futures = [service.submit(query) for query in rest]
                # resolved before submit returned, with the only worker parked
                assert all(future.done() for future in futures)
                assert replayed_on == [threading.get_ident()] * len(rest)
                assert not miss.done()
            finally:
                release.set()
            assert not miss.result(timeout=30.0).plan_cache_hit
            stats = service_stats(service)
        answers = [future.result(timeout=0) for future in futures]
        for query, answer in zip(rest, answers):
            expected = twin.estimate(query)
            assert answer.plan_cache_hit
            assert (answer.batch_size, answer.deduplicated) == (1, False)
            assert answer.selectivity == expected.selectivity
            assert answer.error == expected.error
        assert stats["answered_on_arrival"] == float(len(rest))
        assert stats["batches"] == 2.0

    def test_no_answer_after_a_notify_carries_the_old_version(
        self, service_catalog, factor_sharing_queries
    ):
        count = len(factor_sharing_queries)
        with EstimationService(service_catalog, config=ONE_WORKER) as service:
            before = [service.estimate(query) for query in factor_sharing_queries]
            old = service_catalog.version
            assert arrivals(service) == float(count - 1)
            service_catalog.notify_table_update("R")
            new = service_catalog.version
            first = service.estimate(factor_sharing_queries[0])
            assert arrivals(service) == float(count - 1)  # first: a worker's
            after = [service.estimate(query) for query in factor_sharing_queries]
            stats = service_stats(service)
        assert {answer.snapshot_version for answer in before} == {old}
        assert first.snapshot_version == new
        assert not first.plan_cache_hit
        assert {answer.snapshot_version for answer in after} == {new}
        assert all(answer.plan_cache_hit for answer in after)
        assert stats["answered_on_arrival"] == float(2 * count - 1)
        assert stats["batches"] == 2.0

    def test_plan_cache_counts_run_across_a_notify(
        self, service_catalog, factor_sharing_queries
    ):
        """The service's ``plan_cache`` hits and misses are lifetime
        counts: the worker's session retiring on the roll, and the table
        it published being replaced, take nothing off them."""
        count = len(factor_sharing_queries)
        with EstimationService(service_catalog, config=ONE_WORKER) as service:
            for query in factor_sharing_queries:
                service.estimate(query)
            before = dict(service.stats_snapshot().plan_cache)
            service_catalog.notify_table_update("R")
            for query in factor_sharing_queries:
                service.estimate(query)
            after = dict(service.stats_snapshot().plan_cache)
            swaps = service_stats(service)["snapshot_swaps"]
        assert swaps == 1.0
        assert (before["hits"], before["misses"]) == (count - 1, 1)
        assert (after["hits"], after["misses"]) == (2 * (count - 1), 2)
        assert after["compiles"] == 2.0
        assert after["hit_rate"] == (count - 1) / count

    def test_breaker_rollback_never_serves_the_bad_versions_table(
        self, service_catalog, join_query, factor_sharing_queries, monkeypatch
    ):
        """The bad version serves — and publishes its plans — before it
        is tripped; after the rollback no answer is replayed from them."""
        config = ServiceConfig(
            workers=1,
            queue_depth=64,
            healing=HealingConfig(breaker_threshold=2, max_worker_restarts=6),
        )
        with EstimationService(service_catalog, config=config) as service:
            good = service.estimate(join_query).snapshot_version
            # the last-known-good snapshot stays the first one
            monkeypatch.setattr(service, "_note_good_snapshot", lambda session: None)
            service_catalog.notify_table_update("R")
            bad = service_catalog.version
            assert service.estimate(join_query).snapshot_version == bad
            on_bad = service.estimate(join_query)
            assert on_bad.plan_cache_hit and on_bad.snapshot_version == bad
            assert arrivals(service) == 1.0
            # what the breaker does when faults on ``bad`` reach its threshold
            service._trip_snapshot(bad)
            answers = [service.estimate(query) for query in factor_sharing_queries]
            stats = service.stats_snapshot()
        assert {answer.snapshot_version for answer in answers} == {good}
        assert not answers[0].plan_cache_hit  # a worker's, rolled back
        assert all(answer.plan_cache_hit for answer in answers[1:])
        assert stats.service["answered_on_arrival"] == float(len(answers))
        assert stats.resilience["snapshot_rollbacks"] == 1.0

    def test_an_armed_fault_plan_sends_every_request_through_the_queue(
        self, service_catalog, factor_sharing_queries
    ):
        first, *rest = factor_sharing_queries
        with EstimationService(service_catalog, config=ONE_WORKER) as service:
            service.estimate(first)
            with armed(FaultPlan([NEVER_FIRES], seed=0)):
                answers = [service.estimate(query) for query in rest]
            stats = service_stats(service)
        assert all(answer.plan_cache_hit for answer in answers)  # the session's
        assert stats["batches"] == float(1 + len(rest))
        assert stats.get("answered_on_arrival", 0.0) == 0.0

    def test_two_workers_compile_a_shape_once_per_snapshot(
        self, service_catalog, factor_sharing_queries, cold_queries, monkeypatch
    ):
        compiled: list[tuple[int, tuple]] = []
        compile_plan = PlanCache.compile

        def counting(self, predicates, algorithm, result):
            plan = compile_plan(self, predicates, algorithm, result)
            if plan is not None:
                compiled.append((plan.snapshot_version, plan.fingerprint))
            return plan

        monkeypatch.setattr(PlanCache, "compile", counting)
        queries = factor_sharing_queries + cold_queries
        shapes = {shape_fingerprint(query.predicates)[0] for query in queries}
        config = ServiceConfig(workers=2, queue_depth=64)
        with EstimationService(service_catalog, config=config) as service:
            for _ in range(3):
                for query in queries:
                    service.estimate(query)
            service_catalog.notify_table_update("S")
            for _ in range(3):
                for query in queries:
                    service.estimate(query)
            stats = service_stats(service)
        assert len(compiled) == 2 * len(shapes)
        assert len(set(compiled)) == len(compiled)
        assert stats["batches"] == float(2 * len(shapes))
        assert stats["answered_on_arrival"] == float(
            6 * len(queries) - 2 * len(shapes)
        )

    def test_workers_publishing_at_once_lose_no_plan(
        self, service_catalog, two_table_attrs, two_table_join
    ):
        """Three workers compile shapes at once and merge them into one
        table, under a shortened switch interval and more threads than
        cores: every answer equals the plan-cache-off one, and afterwards
        every shape is answered on arrival (a lost merge would leave one
        to a worker)."""
        filters = {
            name: FilterPredicate(two_table_attrs[name], 10.0, 60.0)
            for name in ("Ra", "Rx", "Sb", "Sy")
        }
        queries = [
            Query.of(two_table_join, *(filters[name] for name in names))
            for size in (1, 2, 3, 4)
            for names in combinations(sorted(filters), size)
        ] + [
            Query.of(*(filters[name] for name in names))
            for names in (("Ra",), ("Rx",), ("Ra", "Rx"), ("Sb",), ("Sy",))
        ]
        twin = EstimationSession(service_catalog, plan_cache=False)
        expected = [twin.estimate(query).selectivity for query in queries]
        config = ServiceConfig(workers=3, queue_depth=256, max_batch=2)
        submitters, rounds = 4, 2
        wrong: list[tuple] = []

        def submit(offset: int) -> None:
            order = list(range(offset, len(queries))) + list(range(offset))
            for _ in range(rounds):
                for index in order:
                    answer = service.estimate(queries[index])
                    if answer.selectivity != expected[index]:
                        wrong.append((index, answer))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with EstimationService(service_catalog, config=config) as service:
                threads = [
                    threading.Thread(target=submit, args=(3 * i,), daemon=True)
                    for i in range(submitters)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                    assert not thread.is_alive()
                before = arrivals(service)
                last = [service.estimate(query) for query in queries]
                stats = service_stats(service)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        assert [answer.selectivity for answer in last] == expected
        assert stats["answered_on_arrival"] - before == float(len(queries))
        assert stats["served"] == float((submitters * rounds + 1) * len(queries))

    def test_a_hit_on_arrival_equals_the_queued_one_field_for_field(
        self, service_catalog, factor_sharing_queries
    ):
        """Same staleness stamp, same advisor feedback: only the latency
        and the batch differ."""
        tracker = StalenessTracker(clock=lambda: 100.0)
        tracker.note_write("R", when=97.5)
        config = ServiceConfig(
            workers=1,
            queue_depth=64,
            # never ready to tick: the catalog must not move under the test
            advisor=AdvisorConfig(min_feedback=10_000),
        )
        first, second = factor_sharing_queries[:2]
        with EstimationService(service_catalog, config=config) as service:
            service.attach_staleness(tracker)
            service.estimate(first)
            with armed(FaultPlan([NEVER_FIRES], seed=0)):
                queued = service.estimate(second)
            on_arrival = service.estimate(second)
            assert arrivals(service) == 1.0
            fed = service.advisor.feedback.records()[-2:]
        assert queued.plan_cache_hit and queued.staleness_s == 2.5
        assert replace(queued, latency_ms=0.0, batch_size=1) == replace(
            on_arrival, latency_ms=0.0, batch_size=1
        )
        assert [replace(record, seq=0) for record in fed] == [
            replace(fed[0], seq=0)
        ] * 2
        assert fed[0].predicates == second.predicates
