"""Router semantics over fake links: template routing, hedged requests
(winner-takes-all, observable loser cancellation, no double
completion), per-shard breaker ejection, and coherent swap holds —
all without spawning a single process."""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import pytest

from repro.cluster import EstimationCluster
from repro.service import ClusterConfig, ServiceConfig
from repro.service.client import TransportError
from repro.service.protocol import Overloaded


class FakeLink:
    """A link double: records requests, answers on demand (or auto)."""

    def __init__(self, shard_id: int, *, auto: bool = True, version: int = 1):
        self.shard_id = shard_id
        self.auto = auto
        self.version = version
        self.fail_transport = False
        self.closed = False
        self._lock = threading.Lock()
        self.log: list[tuple[dict, Future]] = []

    # -- link protocol --------------------------------------------------
    def request(self, payload: dict) -> Future:
        future: Future = Future()
        with self._lock:
            self.log.append((payload, future))
        if self.fail_transport:
            future.set_exception(
                TransportError(f"fake shard {self.shard_id} down")
            )
        elif self.auto:
            self._answer(payload, future)
        return future

    @property
    def pending_count(self) -> int:
        with self._lock:
            return sum(1 for _, future in self.log if not future.done())

    def close(self) -> None:
        self.closed = True

    # -- test controls --------------------------------------------------
    def _answer(self, payload: dict, future: Future) -> None:
        op = payload.get("op", "estimate")
        if op == "estimate":
            future.set_result(self.ok_response(payload))
        elif op == "invalidate":
            self.version = int(payload["version"])
            future.set_result(
                {"ok": True, "status": "ok", "shard": self.shard_id,
                 "version": self.version}
            )
        else:  # pragma: no cover - unused in these tests
            future.set_result({"ok": True, "status": "ok"})

    def ok_response(self, payload: dict, selectivity: float = 0.25) -> dict:
        response = {
            "ok": True,
            "status": "ok",
            "selectivity": selectivity,
            "cardinality": selectivity * 1000.0,
            "error": 0.0,
            "snapshot_version": self.version,
            "latency_ms": 1.0,
            "shard": self.shard_id,
        }
        if payload.get("hedge"):
            response["hedged"] = True
        return response

    def requests(self, op: str = "estimate") -> list[tuple[dict, Future]]:
        with self._lock:
            return [
                (payload, future)
                for payload, future in self.log
                if payload.get("op", "estimate") == op
            ]


def make_cluster(
    catalog,
    links,
    *,
    shards=None,
    replicas=0,
    drain_timeout_s=0.25,
    **cluster_kwargs,
):
    """A router over fake links.  ``close()`` waits out ``drain_timeout_s``
    for requests a manual link never answers, so the fixture keeps it
    short (the production default is 30 s)."""
    shards = shards if shards is not None else len(links) - replicas
    cluster_kwargs.setdefault("hedge_delay_s", 30.0)  # effectively off
    config = ServiceConfig(
        drain_timeout_s=drain_timeout_s,
        cluster=ClusterConfig(
            shards=shards, replicas=replicas, **cluster_kwargs
        ),
    )
    return EstimationCluster(catalog, config=config, _links=links)


def wait_until(predicate, timeout_s: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


class TestRouting:
    def test_templates_split_and_stick(self, cluster_catalog, cluster_queries):
        links = [FakeLink(0), FakeLink(1)]
        with make_cluster(cluster_catalog, links) as cluster:
            answers = [
                cluster.estimate(query, timeout=5.0)
                for query in cluster_queries
            ]
            # the workload has exactly two templates: each sticks to one
            # shard for every constant binding (hot per-shard caches)
            by_shard = {answer.shard for answer in answers}
            assert by_shard <= {0, 1}
            ra_shards = {a.shard for a in answers[0::2]}
            sb_shards = {a.shard for a in answers[1::2]}
            assert len(ra_shards) == 1
            assert len(sb_shards) == 1

    def test_shards_receive_parse_free_payloads(
        self, cluster_catalog, cluster_queries
    ):
        links = [FakeLink(0), FakeLink(1)]
        with make_cluster(cluster_catalog, links) as cluster:
            cluster.estimate(cluster_queries[0], timeout=5.0)
            sent = links[0].requests() + links[1].requests()
            assert len(sent) == 1
            payload = sent[0][0]
            assert "sql" not in payload
            assert isinstance(payload["predicates"], list)

    def test_sql_is_parsed_once_at_the_router(self, cluster_catalog):
        links = [FakeLink(0), FakeLink(1)]
        sql = "SELECT * FROM R, S WHERE R.x = S.y AND R.a BETWEEN 10 AND 40"
        with make_cluster(cluster_catalog, links) as cluster:
            answer = cluster.estimate(sql, timeout=5.0)
            assert answer.shard in (0, 1)
            payloads = [p for p, _ in links[answer.shard].requests()]
            assert "predicates" in payloads[0]

    def test_closed_cluster_rejects(self, cluster_catalog, cluster_queries):
        links = [FakeLink(0), FakeLink(1)]
        cluster = make_cluster(cluster_catalog, links)
        cluster.close()
        from repro.service.protocol import ServiceClosed

        with pytest.raises(ServiceClosed):
            cluster.submit(cluster_queries[0])


class TestHedging:
    def hedged_cluster(self, catalog):
        """Two manual ring shards plus one manual replica; instant hedge."""
        links = [
            FakeLink(0, auto=False),
            FakeLink(1, auto=False),
            FakeLink(2, auto=False),
        ]
        cluster = make_cluster(
            catalog, links, replicas=1, hedge_delay_s=0.005
        )
        return cluster, links

    def test_hedge_winner_takes_all(self, cluster_catalog, cluster_queries):
        cluster, links = self.hedged_cluster(cluster_catalog)
        with cluster:
            future = cluster.submit(cluster_queries[0])
            primary = next(
                link for link in links[:2] if link.requests()
            )
            replica = links[2]
            assert wait_until(lambda: replica.requests())
            hedge_payload, hedge_future = replica.requests()[0]
            assert hedge_payload["hedge"] is True
            # the hedge answers first: it wins
            hedge_future.set_result(
                replica.ok_response(hedge_payload, selectivity=0.5)
            )
            answer = future.result(timeout=5.0)
            assert answer.hedged is True
            assert answer.shard == 2
            assert answer.selectivity == 0.5
            # the primary straggles in second: observable loser, and the
            # future's value must not change (no double completion)
            payload, primary_future = primary.requests()[0]
            primary_future.set_result(
                primary.ok_response(payload, selectivity=0.125)
            )
            assert wait_until(
                lambda: cluster.stats_snapshot().cluster.get(
                    "hedge_cancelled"
                ) == 1.0
            )
            assert future.result().selectivity == 0.5
            stats = cluster.stats_snapshot().cluster
            assert stats["hedges"] == 1.0
            assert stats["hedge_wins"] == 1.0

    def test_primary_win_cancels_hedge(self, cluster_catalog, cluster_queries):
        cluster, links = self.hedged_cluster(cluster_catalog)
        with cluster:
            future = cluster.submit(cluster_queries[0])
            primary = next(link for link in links[:2] if link.requests())
            replica = links[2]
            assert wait_until(lambda: replica.requests())
            payload, primary_future = primary.requests()[0]
            primary_future.set_result(
                primary.ok_response(payload, selectivity=0.75)
            )
            answer = future.result(timeout=5.0)
            assert answer.hedged is False
            assert answer.shard == primary.shard_id
            hedge_payload, hedge_future = replica.requests()[0]
            hedge_future.set_result(
                replica.ok_response(hedge_payload, selectivity=0.1)
            )
            assert wait_until(
                lambda: cluster.stats_snapshot().cluster.get(
                    "hedge_cancelled"
                ) == 1.0
            )
            assert future.result().selectivity == 0.75
            assert (
                cluster.stats_snapshot().cluster.get("hedge_wins", 0.0) == 0.0
            )

    def test_no_hedge_before_delay(self, cluster_catalog, cluster_queries):
        links = [FakeLink(0, auto=False), FakeLink(1, auto=False)]
        with make_cluster(
            cluster_catalog, links, hedge_delay_s=30.0
        ) as cluster:
            cluster.submit(cluster_queries[0])
            time.sleep(0.05)
            total = sum(len(link.requests()) for link in links)
            assert total == 1  # the primary only

    def test_hedge_to_ring_successor_without_replicas(
        self, cluster_catalog, cluster_queries
    ):
        links = [FakeLink(0, auto=False), FakeLink(1, auto=False)]
        with make_cluster(
            cluster_catalog, links, hedge_delay_s=0.005
        ) as cluster:
            cluster.submit(cluster_queries[0])
            assert wait_until(
                lambda: sum(len(link.requests()) for link in links) == 2
            )
            hedged = [
                (link, payload)
                for link in links
                for payload, _ in link.requests()
                if payload.get("hedge")
            ]
            assert len(hedged) == 1
            primary = next(
                link
                for link in links
                for payload, _ in link.requests()
                if not payload.get("hedge")
            )
            assert hedged[0][0].shard_id != primary.shard_id

    def test_typed_error_waits_for_inflight_hedge(
        self, cluster_catalog, cluster_queries
    ):
        """A shed primary must not fail the request while a hedge can
        still win."""
        cluster, links = self.hedged_cluster(cluster_catalog)
        with cluster:
            future = cluster.submit(cluster_queries[0])
            primary = next(link for link in links[:2] if link.requests())
            replica = links[2]
            assert wait_until(lambda: replica.requests())
            _, primary_future = primary.requests()[0]
            primary_future.set_result(
                {"ok": False, "status": "overloaded", "detail": "shed"}
            )
            time.sleep(0.02)
            assert not future.done()  # hedge still in flight
            hedge_payload, hedge_future = replica.requests()[0]
            hedge_future.set_result(
                replica.ok_response(hedge_payload, selectivity=0.3)
            )
            assert future.result(timeout=5.0).selectivity == 0.3

    def test_all_attempts_failing_raises_the_error(
        self, cluster_catalog, cluster_queries
    ):
        cluster, links = self.hedged_cluster(cluster_catalog)
        with cluster:
            future = cluster.submit(cluster_queries[0])
            primary = next(link for link in links[:2] if link.requests())
            replica = links[2]
            assert wait_until(lambda: replica.requests())
            _, primary_future = primary.requests()[0]
            primary_future.set_result(
                {"ok": False, "status": "overloaded", "detail": "shed"}
            )
            _, hedge_future = replica.requests()[0]
            hedge_future.set_result(
                {"ok": False, "status": "overloaded", "detail": "shed"}
            )
            with pytest.raises(Overloaded):
                future.result(timeout=5.0)


class TestBreakerEjection:
    def test_fault_trips_ejects_and_spills(
        self, cluster_catalog, cluster_queries
    ):
        links = [FakeLink(0), FakeLink(1)]
        with make_cluster(
            cluster_catalog, links, breaker_threshold=1
        ) as cluster:
            # find a query owned by shard 0, then kill shard 0
            owner0 = next(
                query
                for query in cluster_queries
                if cluster.estimate(query, timeout=5.0).shard == 0
            )
            links[0].fail_transport = True
            answer = cluster.estimate(owner0, timeout=5.0)
            # transparently rerouted to the survivor
            assert answer.shard == 1
            stats = cluster.stats_snapshot()
            assert stats.cluster["ejections"] == 1.0
            assert stats.cluster["spilled"] >= 1.0
            assert stats.cluster["shard_faults"] >= 1.0
            assert stats.cluster["ejected"] == 1.0
            assert links[0].closed

    def test_every_template_spills_after_ejection(
        self, cluster_catalog, cluster_queries
    ):
        links = [FakeLink(0), FakeLink(1)]
        with make_cluster(
            cluster_catalog, links, breaker_threshold=1
        ) as cluster:
            links[0].fail_transport = True
            answers = [
                cluster.estimate(query, timeout=5.0)
                for query in cluster_queries
            ]
            assert all(answer.shard == 1 for answer in answers)


class TestRevival:
    def test_failed_revival_is_counted_and_can_be_retried(
        self, cluster_catalog, monkeypatch
    ):
        links = [FakeLink(0), FakeLink(1)]
        with make_cluster(cluster_catalog, links) as cluster:

            def no_process(shard):
                raise OSError("cannot spawn")

            monkeypatch.setattr(cluster, "_spawn_shard", no_process)
            cluster._reviving.add(0)
            cluster._revive(0)
            assert cluster.stats_snapshot().cluster["revive_failures"] == 1.0
            assert 0 not in cluster._reviving  # a later ejection retries


class TestSwapCoherence:
    def test_requests_hold_until_the_shard_acks(
        self, cluster_catalog, cluster_queries
    ):
        """Mid-stream notify_table_update: requests admitted after the
        version bump buffer per shard and are only served once that
        shard acks the new version — never from a stale snapshot."""
        links = [FakeLink(0, auto=False), FakeLink(1, auto=False)]
        with make_cluster(cluster_catalog, links) as cluster:
            old_version = cluster_catalog.version
            cluster.notify_table_update("R")
            new_version = cluster_catalog.version
            assert new_version == old_version + 1

            future = cluster.submit(cluster_queries[0])
            time.sleep(0.02)
            # held: no estimate reached any shard yet
            assert all(not link.requests("estimate") for link in links)
            assert not future.done()
            held = cluster.stats_snapshot().cluster
            assert held["held_requests"] == 1.0
            assert held["holds"] == 2.0
            assert held["holding"] == 1.0

            # ack the invalidates (shard adopts the new version)
            for link in links:
                for payload, ack in link.requests("invalidate"):
                    link.version = int(payload["version"])
                    ack.set_result(
                        {
                            "ok": True,
                            "status": "ok",
                            "shard": link.shard_id,
                            "version": link.version,
                        }
                    )
            # the hold flushes; the request reaches exactly one shard
            assert wait_until(
                lambda: any(link.requests("estimate") for link in links)
            )
            served = next(link for link in links if link.requests("estimate"))
            payload, raw = served.requests("estimate")[0]
            raw.set_result(served.ok_response(payload))
            answer = future.result(timeout=5.0)
            assert answer.snapshot_version == new_version
            assert answer.snapshot_version != old_version

    def test_no_stale_version_served_during_swap(
        self, cluster_catalog, cluster_queries
    ):
        """Drive a mid-stream swap with auto links and assert every
        answer accepted after the bump carries the new version."""
        links = [FakeLink(0), FakeLink(1)]
        with make_cluster(cluster_catalog, links) as cluster:
            before = [
                cluster.estimate(query, timeout=5.0)
                for query in cluster_queries[:10]
            ]
            assert {a.snapshot_version for a in before} == {
                cluster_catalog.version
            }
            cluster.notify_table_update("S")
            new_version = cluster_catalog.version
            after = [
                cluster.estimate(query, timeout=5.0)
                for query in cluster_queries
            ]
            assert {a.snapshot_version for a in after} == {new_version}
            assert cluster.stats_snapshot().cluster["swaps"] == 1.0

    def test_replicas_swap_too(self, cluster_catalog, cluster_queries):
        links = [FakeLink(0), FakeLink(1), FakeLink(2)]
        with make_cluster(cluster_catalog, links, replicas=1) as cluster:
            cluster.notify_table_update("R")
            assert wait_until(
                lambda: all(
                    link.version == cluster_catalog.version for link in links
                )
            )


class StatsLink(FakeLink):
    """A FakeLink whose ``stats`` op serves controllable counters, the
    shape a real shard's :class:`~repro.obs.StatsSnapshot` wire dict has."""

    def __init__(self, shard_id: int, *, estimates: float = 0.0, **kwargs):
        super().__init__(shard_id, **kwargs)
        self.counters = {"estimates": estimates}

    def _answer(self, payload: dict, future: Future) -> None:
        if payload.get("op") == "stats":
            future.set_result(
                {
                    "ok": True,
                    "status": "ok",
                    "stats": {
                        "counters": dict(self.counters),
                        "gauges": {"queue_depth": float(self.shard_id)},
                        "meta": {"shard": self.shard_id},
                    },
                }
            )
        else:
            super()._answer(payload, future)


class TestShardStatsAggregation:
    def test_counters_survive_eject_and_rejoin(
        self, cluster_catalog, cluster_queries
    ):
        links = [StatsLink(0, estimates=7.0), StatsLink(1, estimates=3.0)]
        with make_cluster(
            cluster_catalog, links, breaker_threshold=1
        ) as cluster:
            stats = cluster.shard_stats(timeout_s=5.0)
            assert stats[0]["counters"]["estimates"] == 7.0
            assert stats[1]["counters"]["estimates"] == 3.0

            # kill shard 0: the breaker ejects it on the next fault
            owner0 = next(
                query
                for query in cluster_queries
                if cluster.estimate(query, timeout=5.0).shard == 0
            )
            links[0].fail_transport = True
            assert cluster.estimate(owner0, timeout=5.0).shard == 1
            assert cluster.stats_snapshot().cluster["ejections"] == 1.0

            # down: member 0 still reports its banked counters
            stats = cluster.shard_stats(timeout_s=5.0)
            assert stats[0]["counters"]["estimates"] == 7.0
            assert stats[1]["counters"]["estimates"] == 3.0

            # rejoin a fresh incarnation (counters restart from 2): the
            # banked prior folds in, live gauges/meta win
            revived = StatsLink(0, estimates=2.0)
            with cluster._route_lock:
                cluster._links[0] = revived
                cluster._ring.rejoin(0)
            cluster._breaker.reset(0)
            stats = cluster.shard_stats(timeout_s=5.0)
            assert stats[0]["counters"]["estimates"] == 9.0
            assert stats[0]["gauges"]["queue_depth"] == 0.0
            assert stats[0]["meta"]["shard"] == 0

            # a second eject banks the folded total, not just the delta
            revived.fail_transport = True
            assert cluster.estimate(owner0, timeout=5.0).shard == 1
            stats = cluster.shard_stats(timeout_s=5.0)
            assert stats[0]["counters"]["estimates"] == 9.0

    def test_unpolled_member_reports_nothing_after_eject(
        self, cluster_catalog, cluster_queries
    ):
        """No poll before the crash means nothing to bank — the member
        simply disappears from shard_stats until it rejoins."""
        links = [StatsLink(0, estimates=5.0), StatsLink(1, estimates=1.0)]
        with make_cluster(
            cluster_catalog, links, breaker_threshold=1
        ) as cluster:
            links[0].fail_transport = True
            answers = [
                cluster.estimate(query, timeout=5.0)
                for query in cluster_queries
            ]
            assert all(answer.shard == 1 for answer in answers)
            stats = cluster.shard_stats(timeout_s=5.0)
            assert set(stats) == {1}


class TestLifecycle:
    def test_close_is_idempotent_and_closes_links(
        self, cluster_catalog, cluster_queries
    ):
        links = [FakeLink(0), FakeLink(1)]
        cluster = make_cluster(cluster_catalog, links)
        cluster.estimate(cluster_queries[0], timeout=5.0)
        assert cluster.close() is True
        assert cluster.close() is True
        assert all(link.closed for link in links)

    def test_drain_gives_up_at_the_drain_timeout(
        self, cluster_catalog, cluster_queries
    ):
        """``close(drain=True)`` waits for in-flight requests, but only
        for ``drain_timeout_s``: then it reports an unclean drain and
        tears the links down anyway."""
        links = [FakeLink(0, auto=False), FakeLink(1, auto=False)]
        cluster = make_cluster(cluster_catalog, links, drain_timeout_s=0.05)
        cluster.submit(cluster_queries[0])
        started = time.monotonic()
        assert cluster.close() is False
        elapsed = time.monotonic() - started
        assert 0.05 <= elapsed < 1.0
        assert all(link.closed for link in links)

    def test_seam_requires_matching_link_count(self, cluster_catalog):
        with pytest.raises(ValueError, match="_links"):
            make_cluster(cluster_catalog, [FakeLink(0)], shards=2)

    def test_stats_snapshot_meta(self, cluster_catalog):
        links = [FakeLink(0), FakeLink(1)]
        with make_cluster(cluster_catalog, links) as cluster:
            snapshot = cluster.stats_snapshot()
            assert snapshot.meta["subsystem"] == "cluster"
            assert snapshot.meta["shards"] == 2
            assert snapshot.cluster["shards"] == 2.0


class TestBoundedHolds:
    def test_holds_past_cap_shed_with_overloaded(
        self, cluster_catalog, cluster_queries
    ):
        """A write storm must not park unbounded work behind a swap:
        past ``max_held_requests`` the router sheds immediately with a
        typed Overloaded, and the bounded holds still flush on ack."""
        links = [FakeLink(0, auto=False), FakeLink(1, auto=False)]
        with make_cluster(
            cluster_catalog, links, max_held_requests=2
        ) as cluster:
            cluster.notify_table_update("R")
            query = cluster_queries[0]  # one template -> one shard
            kept = [cluster.submit(query) for _ in range(2)]
            shed = cluster.submit(query)
            with pytest.raises(Overloaded, match="max_held_requests"):
                shed.result(timeout=5.0)
            stats = cluster.stats_snapshot().cluster
            assert stats["holds_shed"] == 1.0
            assert stats["held_requests"] == 2.0

            for link in links:
                for payload, ack in link.requests("invalidate"):
                    link.version = int(payload["version"])
                    ack.set_result(
                        {
                            "ok": True,
                            "status": "ok",
                            "shard": link.shard_id,
                            "version": link.version,
                        }
                    )
            assert wait_until(
                lambda: sum(
                    len(link.requests("estimate")) for link in links
                )
                == 2
            )
            for link in links:
                for payload, raw in link.requests("estimate"):
                    if not raw.done():
                        raw.set_result(link.ok_response(payload))
            for future in kept:
                answer = future.result(timeout=5.0)
                assert answer.snapshot_version == cluster_catalog.version

    def test_cap_validates(self):
        with pytest.raises(ValueError, match="max_held_requests"):
            ClusterConfig(max_held_requests=0)


class TestSwapUnderWrite:
    def test_injected_fault_ejects_the_member_never_wedges(
        self, cluster_catalog, cluster_queries
    ):
        """A seeded ``swap_under_write`` fault at one member must not
        leave it serving the old version or wedge admission: the member
        is ejected outright and every answer accepted after the bump
        carries the new version from the surviving shard."""
        from repro.resilience.faults import (
            POINT_SWAP_UNDER_WRITE,
            FaultPlan,
            FaultRule,
            armed,
        )

        links = [FakeLink(0), FakeLink(1)]
        plan = FaultPlan(
            [FaultRule(point=POINT_SWAP_UNDER_WRITE, match="member=0")],
            seed=3,
        )
        with make_cluster(cluster_catalog, links) as cluster:
            with armed(plan):
                cluster.notify_table_update("R")
            assert plan.total_fires == 1
            new_version = cluster_catalog.version
            assert links[0].closed
            assert not links[0].requests("invalidate")
            answers = [
                cluster.estimate(query, timeout=5.0)
                for query in cluster_queries
            ]
            assert {a.snapshot_version for a in answers} == {new_version}
            assert all(a.shard == 1 for a in answers)
            stats = cluster.stats_snapshot().cluster
            assert stats["swap_faults"] == 1.0
            assert stats["ejections"] == 1.0


class TestClusterStaleness:
    def test_answers_carry_bounded_staleness(
        self, cluster_catalog, cluster_queries
    ):
        from repro.obs import StalenessTracker

        now = [100.0]
        tracker = StalenessTracker(clock=lambda: now[0])
        links = [FakeLink(0), FakeLink(1)]
        with make_cluster(cluster_catalog, links) as cluster:
            cluster.attach_staleness(tracker)
            fresh = cluster.estimate(cluster_queries[0], timeout=5.0)
            assert fresh.staleness_s == 0.0
            tracker.note_write("R", when=95.0)
            stale = cluster.estimate(cluster_queries[0], timeout=5.0)
            assert stale.staleness_s == pytest.approx(5.0)
            tracker.note_applied("R", through=95.0)
            caught_up = cluster.estimate(cluster_queries[0], timeout=5.0)
            assert caught_up.staleness_s == 0.0
