"""Router semantics over fake links: template routing, coherent swap
holds, and the one fault path — hold, respawn in place, catch up,
release — all without spawning a single process."""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from itertools import combinations

import pytest

from repro.cluster import EstimationCluster
from repro.core.predicates import FilterPredicate
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
        if self.fail_transport or self.closed:
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
        """Like the real link: whatever is still in flight fails."""
        self.closed = True
        with self._lock:
            pending = [future for _, future in self.log if not future.done()]
        for future in pending:
            if not future.done():  # a callback may have closed us again
                future.set_exception(
                    TransportError(f"fake shard {self.shard_id} closed")
                )

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
        return {
            "ok": True,
            "status": "ok",
            "selectivity": selectivity,
            "cardinality": selectivity * 1000.0,
            "error": 0.0,
            "snapshot_version": self.version,
            "latency_ms": 1.0,
            "shard": self.shard_id,
        }

    def requests(self, op: str = "estimate") -> list[tuple[dict, Future]]:
        with self._lock:
            return [
                (payload, future)
                for payload, future in self.log
                if payload.get("op", "estimate") == op
            ]


class Respawner:
    """The seam's respawn hook: each call hands out the next queued
    outcome — a link, or an exception to raise as a failed spawn would
    — and a fresh auto :class:`FakeLink` once the queue is empty.
    Clearing ``gate`` keeps a respawn in flight until it is set."""

    def __init__(self, *outcomes):
        self.outcomes = list(outcomes)
        self.links: list = []
        self.gate = threading.Event()
        self.gate.set()

    def __call__(self, shard: int):
        assert self.gate.wait(timeout=5.0)
        outcome = self.outcomes.pop(0) if self.outcomes else FakeLink(shard)
        if isinstance(outcome, Exception):
            raise outcome
        self.links.append(outcome)
        return outcome


def make_cluster(
    catalog,
    links,
    *,
    shards=None,
    respawn=None,
    drain_timeout_s=0.25,
    **cluster_kwargs,
):
    """A router over fake links.  ``close()`` waits out ``drain_timeout_s``
    for requests a manual link never answers, so the fixture keeps it
    short (the production default is 30 s)."""
    config = ServiceConfig(
        drain_timeout_s=drain_timeout_s,
        cluster=ClusterConfig(
            shards=shards if shards is not None else len(links),
            **cluster_kwargs,
        ),
    )
    return EstimationCluster(
        catalog,
        config=config,
        _links=links,
        _respawn=respawn if respawn is not None else Respawner(),
    )


def wait_until(predicate, timeout_s: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


def counter(cluster, name: str) -> float:
    return cluster.stats_snapshot().cluster.get(name, 0.0)


def parked_on(cluster, queries, link):
    """Submit queries until one is in flight on the manual ``link``;
    returns that query and its future."""
    for query in queries:
        future = cluster.submit(query)
        if link.requests():
            return query, future
    raise AssertionError("no template routed to the link")


def fail_held_respawn(cluster, respawner, link, query) -> None:
    """Fault ``link`` and let its respawn fail only once ``query`` is
    waiting in the hold: it fails with the respawn."""
    respawner.gate.clear()
    link.fail_transport = True
    future = cluster.submit(query)
    assert wait_until(lambda: counter(cluster, "holding") == 1.0)
    respawner.gate.set()
    with pytest.raises(TransportError, match="could not be respawned"):
        future.result(timeout=5.0)


def owned_by(cluster, queries, shard: int):
    """A query whose template the router places on ``shard``."""
    return next(
        query
        for query in queries
        if cluster.estimate(query, timeout=5.0).shard == shard
    )


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

    def test_a_shape_reaches_the_same_shard_across_routers(
        self, cluster_catalog, cluster_queries
    ):
        """The shard is the shape digest modulo the shard count: two
        routers — two processes, say — place every template alike."""
        placements = []
        for _ in range(2):
            links = [FakeLink(0), FakeLink(1)]
            with make_cluster(cluster_catalog, links) as cluster:
                placements.append(
                    [
                        cluster.estimate(query, timeout=5.0).shard
                        for query in cluster_queries
                    ]
                )
        assert placements[0] == placements[1]

    def test_distinct_shapes_reach_every_shard(
        self, cluster_catalog, two_table_attrs, two_table_join
    ):
        filters = [
            FilterPredicate(two_table_attrs[name], 10.0, 40.0)
            for name in ("Ra", "Rx", "Sb", "Sy")
        ]
        shapes = [
            frozenset({two_table_join, *chosen})
            for size in (1, 2, 3, 4)
            for chosen in combinations(filters, size)
        ]
        assert len(shapes) >= 8
        links = [FakeLink(0), FakeLink(1)]
        with make_cluster(cluster_catalog, links) as cluster:
            shards = {cluster.estimate(shape, timeout=5.0).shard for shape in shapes}
        assert shards == {0, 1}

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

    def test_a_typed_shard_error_reaches_the_caller(
        self, cluster_catalog, cluster_queries
    ):
        """A shard's typed failure is the request's answer: no retry, no
        second attempt anywhere, and not a fault."""
        links = [FakeLink(0, auto=False), FakeLink(1, auto=False)]
        with make_cluster(cluster_catalog, links) as cluster:
            future = cluster.submit(cluster_queries[0])
            [(_, raw)] = links[0].requests() + links[1].requests()
            raw.set_result(
                {"ok": False, "status": "overloaded", "detail": "shed"}
            )
            with pytest.raises(Overloaded):
                future.result(timeout=5.0)
            assert sum(len(link.requests()) for link in links) == 1
            assert counter(cluster, "shard_faults") == 0.0

    def test_closed_cluster_rejects(self, cluster_catalog, cluster_queries):
        links = [FakeLink(0), FakeLink(1)]
        cluster = make_cluster(cluster_catalog, links)
        cluster.close()
        from repro.service.protocol import ServiceClosed

        with pytest.raises(ServiceClosed):
            cluster.submit(cluster_queries[0])


class TestFaultHold:
    def test_fault_holds_respawns_and_serves(
        self, cluster_catalog, cluster_queries
    ):
        """A transport fault closes the link, holds the shard, respawns
        it in place and serves the request from the new incarnation."""
        links = [FakeLink(0), FakeLink(1)]
        respawner = Respawner()
        with make_cluster(cluster_catalog, links, respawn=respawner) as cluster:
            owner0 = owned_by(cluster, cluster_queries, 0)
            links[0].fail_transport = True
            answer = cluster.estimate(owner0, timeout=5.0)
            assert answer.shard == 0
            assert len(respawner.links) == 1
            assert respawner.links[0].requests()  # the new incarnation
            assert links[0].closed
            assert wait_until(lambda: counter(cluster, "rejoins") == 1.0)
            stats = cluster.stats_snapshot().cluster
            assert stats["shard_faults"] == 1.0
            assert stats["shards"] == 2.0

    def test_every_template_returns_to_its_shard_after_respawn(
        self, cluster_catalog, cluster_queries
    ):
        links = [FakeLink(0), FakeLink(1)]
        with make_cluster(cluster_catalog, links) as cluster:
            before = [
                cluster.estimate(query, timeout=5.0).shard
                for query in cluster_queries
            ]
            links[0].fail_transport = True
            after = [
                cluster.estimate(query, timeout=5.0).shard
                for query in cluster_queries
            ]
            assert after == before
            assert set(after) == {0, 1}

    def test_in_flight_requests_wait_in_the_hold(
        self, cluster_catalog, cluster_queries
    ):
        links = [FakeLink(0, auto=False), FakeLink(1)]
        respawner = Respawner()
        respawner.gate.clear()
        with make_cluster(cluster_catalog, links, respawn=respawner) as cluster:
            owner0, first = parked_on(cluster, cluster_queries, links[0])
            second = cluster.submit(owner0)
            _, raw = links[0].requests()[-1]
            raw.set_exception(TransportError("shard 0 lost"))
            # both of shard 0's requests wait in its hold for the respawn
            assert wait_until(lambda: counter(cluster, "holding") == 2.0)
            assert not first.done() and not second.done()
            respawner.gate.set()
            assert first.result(timeout=5.0).shard == 0
            assert second.result(timeout=5.0).shard == 0
            assert len(respawner.links[0].requests()) == 2

    def test_an_incarnation_fault_is_handled_once(
        self, cluster_catalog, cluster_queries
    ):
        links = [FakeLink(0, auto=False), FakeLink(1)]
        with make_cluster(cluster_catalog, links) as cluster:
            owner0, first = parked_on(cluster, cluster_queries, links[0])
            futures = [first] + [cluster.submit(owner0) for _ in range(2)]
            links[0].close()  # every in-flight request reports the fault
            for future in futures:
                assert future.result(timeout=5.0).shard == 0
            assert counter(cluster, "shard_faults") == 1.0

    def test_reroutes_are_bounded(self, cluster_catalog, cluster_queries):
        """A request tries at most ``_MAX_REROUTES + 1`` incarnations."""

        def dead(shard):
            link = FakeLink(shard)
            link.fail_transport = True
            return link

        links = [FakeLink(0), FakeLink(1)]
        respawner = Respawner(*(dead(0) for _ in range(8)))
        with make_cluster(cluster_catalog, links, respawn=respawner) as cluster:
            owner0 = owned_by(cluster, cluster_queries, 0)
            links[0].fail_transport = True
            with pytest.raises(TransportError):
                cluster.estimate(owner0, timeout=5.0)
            assert counter(cluster, "shard_faults") == 4.0

    def test_holds_stay_bounded_while_respawning(
        self, cluster_catalog, cluster_queries
    ):
        links = [FakeLink(0), FakeLink(1)]
        respawner = Respawner()
        with make_cluster(
            cluster_catalog, links, respawn=respawner, max_held_requests=2
        ) as cluster:
            owner0 = owned_by(cluster, cluster_queries, 0)
            respawner.gate.clear()
            links[0].fail_transport = True
            kept = [cluster.submit(owner0) for _ in range(2)]
            with pytest.raises(Overloaded, match="max_held_requests"):
                cluster.submit(owner0).result(timeout=5.0)
            respawner.gate.set()
            assert all(f.result(timeout=5.0).shard == 0 for f in kept)
            assert counter(cluster, "holds_shed") == 1.0


class TestRevival:
    def test_failed_revival_is_counted_and_can_be_retried(
        self, cluster_catalog, cluster_queries
    ):
        """A failed respawn fails the held requests with TransportError;
        the next request routed to the shard starts another."""
        links = [FakeLink(0), FakeLink(1)]
        respawner = Respawner(OSError("cannot spawn"))
        with make_cluster(cluster_catalog, links, respawn=respawner) as cluster:
            owner0 = owned_by(cluster, cluster_queries, 0)
            fail_held_respawn(cluster, respawner, links[0], owner0)
            assert counter(cluster, "revive_failures") == 1.0
            assert counter(cluster, "shards") == 1.0
            answer = cluster.estimate(owner0, timeout=5.0)
            assert answer.shard == 0
            assert answer.shard == respawner.links[0].shard_id
            assert wait_until(lambda: counter(cluster, "rejoins") == 1.0)


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

    @pytest.mark.parametrize("ack", ["ok_false", "transport_error"])
    def test_a_failed_ack_never_serves_the_old_version(
        self, cluster_catalog, cluster_queries, ack
    ):
        """Shards that refuse (or lose) their invalidate never moved
        version: their hold must not be released onto them.  Every
        request admitted after the bump is answered at the new version,
        by a respawned incarnation that caught up."""
        links = [RefusingLink(0, ack), RefusingLink(1, ack)]
        with make_cluster(cluster_catalog, links) as cluster:
            old_version = cluster_catalog.version
            cluster.notify_table_update("R")
            new_version = cluster_catalog.version
            answers = [
                cluster.estimate(query, timeout=5.0)
                for query in cluster_queries[:8]
            ]
            stale = [a for a in answers if a.snapshot_version == old_version]
            assert not stale, (
                f"{len(stale)} of {len(answers)} answered at the old version"
            )
            assert {a.snapshot_version for a in answers} == {new_version}
            assert {a.shard for a in answers} == {0, 1}
            assert all(link.closed for link in links)
            assert not any(link.requests("estimate") for link in links)
            assert wait_until(lambda: counter(cluster, "rejoins") == 2.0)
            assert counter(cluster, "shard_faults") == 2.0

    def test_a_swap_during_a_respawn_is_caught_up(
        self, cluster_catalog, cluster_queries
    ):
        """A shard that is down when a table update fans out misses the
        invalidate; its respawn's catch-up replays it before release."""
        links = [FakeLink(0), FakeLink(1)]
        respawner = Respawner()
        with make_cluster(cluster_catalog, links, respawn=respawner) as cluster:
            owner0 = owned_by(cluster, cluster_queries, 0)
            respawner.gate.clear()
            links[0].fail_transport = True
            held = cluster.submit(owner0)
            assert wait_until(lambda: counter(cluster, "shard_faults") == 1.0)
            cluster.notify_table_update("S")
            new_version = cluster_catalog.version
            assert not links[0].requests("invalidate")
            respawner.gate.set()
            answer = held.result(timeout=5.0)
            assert answer.shard == 0
            assert answer.snapshot_version == new_version
            [(payload, _)] = respawner.links[0].requests("invalidate")
            assert payload["table"] == "S"
            assert payload["version"] == new_version


class RefusingLink(FakeLink):
    """A FakeLink whose invalidate fails: answered ``ok: false``, or
    lost with a :class:`TransportError`."""

    def __init__(self, shard_id: int, ack: str, **kwargs):
        super().__init__(shard_id, **kwargs)
        self.ack = ack

    def _answer(self, payload: dict, future: Future) -> None:
        if payload.get("op") != "invalidate":
            super()._answer(payload, future)
        elif self.ack == "transport_error":
            future.set_exception(TransportError("invalidate lost"))
        else:
            future.set_result(
                {"ok": False, "status": "invalid", "detail": "refused"}
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
        revived = StatsLink(0, estimates=2.0)
        respawner = Respawner(revived, OSError("cannot spawn"))
        with make_cluster(cluster_catalog, links, respawn=respawner) as cluster:
            stats = cluster.shard_stats(timeout_s=5.0)
            assert stats[0]["counters"]["estimates"] == 7.0
            assert stats[1]["counters"]["estimates"] == 3.0

            # kill shard 0 with its respawn held back
            owner0 = owned_by(cluster, cluster_queries, 0)
            respawner.gate.clear()
            links[0].fail_transport = True
            held = cluster.submit(owner0)
            assert wait_until(lambda: counter(cluster, "shard_faults") == 1.0)

            # down: shard 0 still reports its banked counters
            stats = cluster.shard_stats(timeout_s=5.0)
            assert stats[0]["counters"]["estimates"] == 7.0
            assert stats[1]["counters"]["estimates"] == 3.0

            # the fresh incarnation (counters restart from 2) serves: the
            # banked prior folds in, live gauges/meta win
            respawner.gate.set()
            assert held.result(timeout=5.0).shard == 0
            stats = cluster.shard_stats(timeout_s=5.0)
            assert stats[0]["counters"]["estimates"] == 9.0
            assert stats[0]["gauges"]["queue_depth"] == 0.0
            assert stats[0]["meta"]["shard"] == 0

            # a second fault (its respawn fails) banks the folded total,
            # not just the delta
            fail_held_respawn(cluster, respawner, revived, owner0)
            stats = cluster.shard_stats(timeout_s=5.0)
            assert stats[0]["counters"]["estimates"] == 9.0

    def test_unpolled_member_reports_nothing_after_eject(
        self, cluster_catalog, cluster_queries
    ):
        """No poll before the crash means nothing to bank — a shard whose
        respawn failed simply disappears from shard_stats."""
        links = [StatsLink(0, estimates=5.0), StatsLink(1, estimates=1.0)]
        respawner = Respawner(OSError("cannot spawn"))
        with make_cluster(cluster_catalog, links, respawn=respawner) as cluster:
            owner0 = owned_by(cluster, cluster_queries, 0)
            fail_held_respawn(cluster, respawner, links[0], owner0)
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
    def test_injected_fault_respawns_the_member_never_wedges(
        self, cluster_catalog, cluster_queries
    ):
        """A seeded ``swap_under_write`` fault at one member must not
        leave it serving the old version or wedge admission: the member
        is held, respawned and caught up, and every answer accepted
        after the bump carries the new version — shard 0's included."""
        from repro.resilience.faults import (
            POINT_SWAP_UNDER_WRITE,
            FaultPlan,
            FaultRule,
            armed,
        )

        links = [FakeLink(0), FakeLink(1)]
        respawner = Respawner()
        plan = FaultPlan(
            [FaultRule(point=POINT_SWAP_UNDER_WRITE, match="member=0")],
            seed=3,
        )
        with make_cluster(cluster_catalog, links, respawn=respawner) as cluster:
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
            assert {a.shard for a in answers} == {0, 1}
            assert respawner.links[0].version == new_version
            stats = cluster.stats_snapshot().cluster
            assert stats["swap_faults"] == 1.0
            assert stats["shard_faults"] == 1.0


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
