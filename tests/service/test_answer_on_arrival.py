"""Hits answered on arrival: the workers over one pool compile into one
shared plan cache, ``submit_many`` replays a compiled shape from it on
the submitting thread, and only misses cross to a worker — unless the
cache's pool is not the one a worker should be on (a refresh, a breaker
rollback to another pool) or its pool version moved (a notify).  An
armed fault plan changes none of this: its draws are keyed by request
content, so a chaos run serves through the same path."""

from __future__ import annotations

import sys
import threading
import time
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


def wait_for(condition, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def parked_compiles(monkeypatch):
    """Every ``PlanCache.compile`` waits at its entry, after its DP ran,
    until ``release`` is set; ``caches`` lists the caches compiled into."""
    parked, release, caches = threading.Event(), threading.Event(), []
    compile_plan = PlanCache.compile

    def gated(cache, predicates, algorithm, result):
        caches.append(cache)
        parked.set()
        assert release.wait(timeout=30.0)
        return compile_plan(cache, predicates, algorithm, result)

    monkeypatch.setattr(PlanCache, "compile", gated)
    return parked, release, caches


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
        """The bad version serves — and compiles its plans — before it is
        tripped; after the rollback every answer carries the good
        version and equals a cache-off session on the good snapshot.  A
        notify keeps the pool, so the plans the bad version compiled
        are plans of the good snapshot's pool, and answer on arrival."""
        config = ServiceConfig(
            workers=1,
            queue_depth=64,
            healing=HealingConfig(breaker_threshold=2, max_worker_restarts=6),
        )
        good_snapshot = service_catalog.snapshot()
        with EstimationService(service_catalog, config=config) as service:
            good = service.estimate(join_query).snapshot_version
            assert good == good_snapshot.version
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
        twin = EstimationSession(good_snapshot, plan_cache=False)
        assert {answer.snapshot_version for answer in answers} == {good}
        for query, answer in zip(factor_sharing_queries, answers):
            expected = twin.estimate(query)
            assert (answer.selectivity, answer.error) == (
                expected.selectivity,
                expected.error,
            )
        assert all(answer.plan_cache_hit for answer in answers)
        assert stats.service["answered_on_arrival"] == float(1 + len(answers))
        assert stats.resilience["snapshot_rollbacks"] == 1.0

    def test_a_rollback_to_another_pool_replays_nothing_from_its_cache(
        self, service_catalog, join_query, factor_sharing_queries, monkeypatch
    ):
        """A refresh publishes a new pool, and with it a new cache; when
        the breaker rolls back to the snapshot before it, no plan of the
        bad pool's cache answers again."""
        config = ServiceConfig(
            workers=1,
            queue_depth=64,
            healing=HealingConfig(breaker_threshold=2, max_worker_restarts=6),
        )
        good_snapshot = service_catalog.snapshot()
        with EstimationService(service_catalog, config=config) as service:
            good = service.estimate(join_query).snapshot_version
            monkeypatch.setattr(service, "_note_good_snapshot", lambda session: None)
            service_catalog.notify_table_update("R")
            assert service_catalog.refresh().rebuilt_count > 0
            assert service_catalog.pool is not good_snapshot.pool
            bad = service_catalog.version
            on_bad = [service.estimate(join_query) for _ in range(2)]
            assert [answer.snapshot_version for answer in on_bad] == [bad, bad]
            assert on_bad[1].plan_cache_hit
            bad_cache = service._plan_cache
            assert bad_cache.pool is service_catalog.pool and len(bad_cache) == 1
            bad_plans = {id(plan) for plan in bad_cache._plans.values()}
            replayed: list[int] = []
            replay = CompiledPlan.replay

            def recording(plan, ordered):
                replayed.append(id(plan))
                return replay(plan, ordered)

            monkeypatch.setattr(CompiledPlan, "replay", recording)
            service._trip_snapshot(bad)
            answers = [service.estimate(query) for query in factor_sharing_queries]
            rolled_back = service._plan_cache
        twin = EstimationSession(good_snapshot, plan_cache=False)
        assert {answer.snapshot_version for answer in answers} == {good}
        for query, answer in zip(factor_sharing_queries, answers):
            expected = twin.estimate(query)
            assert (answer.selectivity, answer.error) == (
                expected.selectivity,
                expected.error,
            )
        assert replayed and not bad_plans & set(replayed)
        assert not answers[0].plan_cache_hit  # a worker's, rolled back
        assert all(answer.plan_cache_hit for answer in answers[1:])
        assert rolled_back is not bad_cache
        assert rolled_back.pool is good_snapshot.pool

    def test_an_armed_fault_plan_answers_hits_on_arrival(
        self, service_catalog, factor_sharing_queries
    ):
        """Armed, the service runs the path it runs disarmed: the shape
        the first request compiled answers the rest on arrival, and
        every answer equals the disarmed one."""
        first, *rest = factor_sharing_queries
        with EstimationService(service_catalog, config=ONE_WORKER) as service:
            service.estimate(first)
            disarmed = [service.estimate(query) for query in rest]
            with armed(FaultPlan([NEVER_FIRES], seed=0)):
                answers = [service.estimate(query) for query in rest]
            stats = service_stats(service)
        assert all(answer.plan_cache_hit for answer in answers)
        assert stats["batches"] == 1.0
        assert stats["answered_on_arrival"] == float(2 * len(rest))
        for answer, expected in zip(answers, disarmed):
            assert replace(answer, latency_ms=0.0) == replace(
                expected, latency_ms=0.0
            )

    def test_two_workers_compile_a_shape_once_per_snapshot(
        self, service_catalog, factor_sharing_queries, cold_queries, monkeypatch
    ):
        """Once per shape and pool version: the notify keeps the cache,
        and the version move evicts every plan in it."""
        compiled: list[tuple[int, tuple]] = []
        compile_plan = PlanCache.compile

        def counting(self, predicates, algorithm, result):
            plan = compile_plan(self, predicates, algorithm, result)
            if plan is not None:
                compiled.append((self.pool_version, plan.fingerprint))
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

    def test_workers_compiling_at_once_lose_no_plan(
        self, service_catalog, two_table_attrs, two_table_join
    ):
        """Three workers compile shapes at once into their one shared
        cache, under a shortened switch interval and more threads than
        cores: every answer equals the plan-cache-off one, and afterwards
        every shape is answered on arrival (a lost insert would leave one
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
                snapshot = service.stats_snapshot()
                stats = dict(snapshot.service)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        assert [answer.selectivity for answer in last] == expected
        assert stats["answered_on_arrival"] - before == float(len(queries))
        assert stats["served"] == float((submitters * rounds + 1) * len(queries))
        # every answer probed the cache once, on arrival or in a batch
        # (a deduplicated member rides its group's probe): a lost count
        # by the workers sharing the cache would show here
        counted = snapshot.plan_cache["hits"] + snapshot.plan_cache["misses"]
        assert counted == stats["served"] - stats.get("deduplicated", 0.0)

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
            # admitted as one group before either is compiled, both reach
            # the worker, whose session replays the plan ``first`` compiled
            _, queued = service.submit_many([(first, None), (second, None)])
            queued = queued.result(timeout=30.0)
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


class TestOneCachePerSnapshot:
    """One cache per served pool: every snapshot over one pool object —
    the versions a notify moves through — shares it."""

    @staticmethod
    def both_workers_serve(service, queries, session_gate, version):
        """Each of two workers serves one of ``queries`` (misses both),
        rolling to ``version`` first: one is parked in its batch while
        the other takes the second.  Returns the answers."""
        session_gate.rearm()
        futures = [service.submit(queries[0])]
        session_gate.wait_entered()
        futures.append(service.submit(queries[1]))
        wait_for(
            lambda: [s.snapshot_version for s in service._sessions]
            == [version, version]
        )
        session_gate.open()
        return [future.result(timeout=30.0) for future in futures]

    def test_worker_sessions_at_one_snapshot_hold_one_cache(
        self, service_catalog, cold_queries, session_gate
    ):
        config = ServiceConfig(workers=2, queue_depth=64)
        snapshots = {}
        served = []
        with EstimationService(service_catalog, config=config) as service:
            wait_for(lambda: len(service._sessions) == 2)
            first, second = service._sessions
            before = first.plan_cache
            assert before is not None and second.plan_cache is before
            # a notify keeps the pool, and with it the cache
            service_catalog.notify_table_update("R")
            notified = service_catalog.snapshot()
            snapshots[notified.version] = notified
            answers = self.both_workers_serve(
                service, cold_queries, session_gate, notified.version
            )
            served += zip(cold_queries, answers)
            first, second = service._sessions
            assert first is not second
            assert first.plan_cache is second.plan_cache is before
            assert {answer.snapshot_version for answer in answers} == {
                notified.version
            }
            # a refresh that rebuilds a SIT publishes a new pool, and the
            # workers move to a new cache over it
            service_catalog.notify_table_update("R")
            assert service_catalog.refresh().rebuilt_count > 0
            refreshed = service_catalog.snapshot()
            snapshots[refreshed.version] = refreshed
            answers = self.both_workers_serve(
                service, cold_queries, session_gate, refreshed.version
            )
            served += zip(cold_queries, answers)
            first, second = service._sessions
            after = service._plan_cache
        assert first is not second
        assert first.plan_cache is second.plan_cache is after
        assert after is not before and after.pool is refreshed.pool
        assert {answer.snapshot_version for answer in answers} == {
            refreshed.version
        }
        for query, answer in served:
            twin = EstimationSession(
                snapshots[answer.snapshot_version], plan_cache=False
            )
            expected = twin.estimate(query)
            assert (answer.selectivity, answer.error) == (
                expected.selectivity,
                expected.error,
            )

    def test_catalog_counts_a_shared_cache_once(
        self, service_catalog, factor_sharing_queries
    ):
        config = ServiceConfig(workers=2, queue_depth=64)
        with EstimationService(service_catalog, config=config) as service:
            wait_for(lambda: len(service._sessions) == 2)
            for query in factor_sharing_queries:
                service.estimate(query)
            stats = dict(service.stats_snapshot().plan_cache)
        # the service that owns the cache reports it; the catalog keeps
        # no ledger of caches
        assert "plan_cache" not in service_catalog.status()
        assert stats["caches"] == 1.0
        assert stats["compiles"] == stats["plans"] == 1.0

    def test_counts_never_drop_across_notifies(
        self, service_catalog, factor_sharing_queries, cold_queries, monkeypatch
    ):
        """Five notifies keep the one cache a 1-worker service built: its
        counts only grow, ``evictions`` counts the plans each notify
        dropped, and every answer equals a cache-off session on its
        version.  A refresh that publishes a pool builds the second."""
        built: list[PlanCache] = []
        init = PlanCache.__init__

        def counting(cache, *args, **kwargs):
            built.append(cache)
            init(cache, *args, **kwargs)

        monkeypatch.setattr(PlanCache, "__init__", counting)
        queries = factor_sharing_queries + cold_queries
        shapes = len({shape_fingerprint(query.predicates)[0] for query in queries})
        keys = ("hits", "misses", "compiles", "evictions")
        history: list[dict] = []
        served = []
        snapshots = {}
        with EstimationService(service_catalog, config=ONE_WORKER) as service:
            for step in range(6):
                if step:
                    service_catalog.notify_table_update("RS"[step % 2])
                snapshot = service_catalog.snapshot()
                snapshots[snapshot.version] = snapshot
                served += [(query, service.estimate(query)) for query in queries]
                history.append(dict(service.stats_snapshot().plan_cache))
            assert len(built) == 1
            service_catalog.notify_table_update("R")
            assert service_catalog.refresh().rebuilt_count > 0
            snapshot = service_catalog.snapshot()
            snapshots[snapshot.version] = snapshot
            served += [(query, service.estimate(query)) for query in queries]
            last = dict(service.stats_snapshot().plan_cache)
        assert len(built) == 2
        for key in keys:
            values = [block[key] for block in history + [last]]
            assert values == sorted(values), key
        assert [block["evictions"] for block in history] == [
            float(shapes * step) for step in range(6)
        ]
        assert [block["compiles"] for block in history] == [
            float(shapes * (step + 1)) for step in range(6)
        ]
        assert {block["caches"] for block in history + [last]} == {1.0}
        assert last["compiles"] == float(shapes * 7)
        for query, answer in served:
            twin = EstimationSession(
                snapshots[answer.snapshot_version], plan_cache=False
            )
            expected = twin.estimate(query)
            assert (answer.selectivity, answer.error) == (
                expected.selectivity,
                expected.error,
            )


class TestInsertGuard:
    """A compile files its plan whatever lands while it runs: a plan is
    a pure function of the pool, whose membership is fixed when it is
    built, and of the shape."""

    def test_a_plan_compiled_across_a_notify_replays_as_the_twin(
        self, service_catalog, join_query, monkeypatch
    ):
        """A notify moves no SIT, so the plan a straddling compile files
        is the one a compile after the notify would file: the next
        request replays it, equal to the plan-cache-off twin."""
        parked, release, caches = parked_compiles(monkeypatch)
        with EstimationService(service_catalog, config=ONE_WORKER) as service:
            old = service_catalog.version
            straddling = service.submit(join_query)
            assert parked.wait(timeout=10.0)
            service_catalog.notify_table_update("R")
            release.set()
            assert straddling.result(timeout=30.0).snapshot_version == old
            # the cache it compiled into moved to the newer pool version
            # first, and holds the plan
            cache = caches[0]
            assert cache.pool_version == cache.pool.version
            assert len(cache) == 1
            after = service.estimate(join_query)
        expected = EstimationSession(service_catalog, plan_cache=False).estimate(
            join_query
        )
        assert after.snapshot_version == service_catalog.version
        assert after.plan_cache_hit
        assert (after.selectivity, after.error) == (
            expected.selectivity,
            expected.error,
        )
        plan, ordered = cache.plan_for(join_query.predicates)
        assert plan.replay(ordered) == expected
