"""The cluster router: one service surface over N shard processes.

:class:`EstimationCluster` duck-types
:class:`~repro.service.EstimationService` (``submit`` / ``estimate`` /
``stats_snapshot`` / ``close`` / ``config``), so everything that serves
or wraps a service — :func:`repro.service.connect`,
:func:`repro.service.start_in_thread`, the CLI — works over a cluster
unchanged.  Underneath:

* **spawn** — ``shards + replicas`` child processes
  (:func:`repro.cluster.shard.shard_main`, ``spawn`` start method) all
  attach the router's one shared-memory snapshot export
  (:mod:`repro.cluster.shm`): N processes, one copy of the histograms;
* **route** — requests are consistent-hashed by their plan-cache shape
  fingerprint (:func:`repro.core.plancache.shape_fingerprint`), so
  every query template lands on one shard and that shard's match /
  estimate / compiled-plan caches stay hot across the keyspace split;
* **hedge** — a request still unanswered after a p95-derived delay is
  duplicated to a replica (or the ring successor when ``replicas=0``);
  the first answer wins, the loser is counted, never double-completed;
* **heal** — per-shard faults feed a
  :class:`~repro.resilience.breaker.CircuitBreaker` keyed by shard id;
  a tripped shard is ejected from the ring (its keyspace spills to the
  ring successors), respawned in the background and rejoined at its
  exact old placement;
* **stay coherent** — :meth:`notify_table_update` bumps the primary
  catalog, then *holds* new requests per shard while fanning out an
  ``invalidate`` op; each shard's held requests flush only after that
  shard acks at the new version, so no request routed after the update
  is ever served from a stale shard snapshot.

Telemetry lives under the ``cluster`` namespace of
:meth:`stats_snapshot` (routed / spilled / hedges / hedge_wins /
hedge_cancelled / holds / swaps / ...; see
:mod:`repro.obs.snapshot`).
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import multiprocessing
import socket
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field

from repro.catalog.catalog import CatalogSnapshot, StatisticsCatalog
from repro.core.plancache import fingerprint_digest, shape_fingerprint
from repro.engine.database import Database
from repro.obs.metrics import MetricsRegistry
from repro.obs.snapshot import StatsSnapshot
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import POINT_SWAP_UNDER_WRITE, inject
from repro.service.client import TransportError
from repro.service.config import ClusterConfig, ServiceConfig
from repro.service.protocol import (
    Overloaded,
    ServiceClosed,
    ServiceError,
    decode_line,
    encode_line,
    encode_predicates,
    result_from_wire,
)
from repro.service.service import coerce_query
from repro.sql.template import TemplateFrontEnd

from repro.cluster.ring import HashRing
from repro.cluster.shard import shard_main
from repro.cluster.shm import export_snapshot


class _ShardLink:
    """One persistent JSON-lines connection to a shard process.

    A single background reader correlates responses to request futures
    by id, so any number of router threads can have requests in flight
    on one socket.  When the connection dies every pending future fails
    with :class:`TransportError` — the router's fault signal.
    """

    def __init__(self, shard_id: int, host: str, port: int, timeout_s: float = 30.0):
        self.shard_id = int(shard_id)
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._sock.settimeout(None)
        self._file = self._sock.makefile("rb")
        self._write_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: dict[str, Future] = {}
        self._ids = itertools.count(1)
        self._closed = False
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"repro-cluster-link-{shard_id}",
            daemon=True,
        )
        self._reader.start()

    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        with self._pending_lock:
            return len(self._pending)

    def request(self, payload: dict) -> "Future[dict]":
        """Send one request line; the future resolves to the raw
        response dict (or fails with :class:`TransportError`)."""
        request_id = f"s{self.shard_id}-{next(self._ids)}"
        future: Future = Future()
        with self._pending_lock:
            if self._closed:
                future.set_exception(
                    TransportError(f"link to shard {self.shard_id} is closed")
                )
                return future
            self._pending[request_id] = future
        try:
            line = encode_line(dict(payload, id=request_id))
            with self._write_lock:
                self._sock.sendall(line)
        except OSError as exc:
            with self._pending_lock:
                self._pending.pop(request_id, None)
            if not future.done():
                future.set_exception(
                    TransportError(f"shard {self.shard_id} unreachable: {exc}")
                )
        return future

    def _read_loop(self) -> None:
        try:
            while True:
                line = self._file.readline()
                if not line:
                    break
                response = decode_line(line)
                with self._pending_lock:
                    future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except Exception:
            pass
        finally:
            self._fail_pending(
                TransportError(f"connection to shard {self.shard_id} lost")
            )

    def _fail_pending(self, exc: Exception) -> None:
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(exc)

    def close(self) -> None:
        with self._pending_lock:
            self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._file.close()
        except OSError:  # pragma: no cover - best effort
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - best effort
            pass


#: bound on transparent re-dispatches of one request after shard faults
_MAX_REROUTES = 3
#: multiplier on the live p95 latency when deriving the hedge delay
_HEDGE_FACTOR = 1.5
#: floor of the derived hedge delay (seconds); also the delay used
#: before any latency has been observed
_MIN_HEDGE_DELAY_S = 0.010
#: seconds the router waits for a shard to come up / ack a swap
_STARTUP_TIMEOUT_S = 60.0


def _fold_shard_stats(prior: dict, live: dict) -> dict:
    """Merge one shard's pre-restart stats into its live snapshot.

    ``counters`` accumulate across process incarnations — a respawned
    shard starts from zero, but the cluster-visible totals must not.
    Every other namespace (gauges, caches, timings, meta) describes the
    *current* process, so the live value wins; namespaces only the prior
    carries are kept as-is.
    """
    merged = {
        key: dict(value) if isinstance(value, dict) else value
        for key, value in live.items()
    }
    for namespace, entries in prior.items():
        if namespace not in merged:
            merged[namespace] = (
                dict(entries) if isinstance(entries, dict) else entries
            )
            continue
        if namespace == "counters" and isinstance(entries, dict):
            bucket = merged[namespace]
            for name, value in entries.items():
                current = bucket.get(name, 0)
                if isinstance(value, (int, float)) and isinstance(
                    current, (int, float)
                ):
                    bucket[name] = current + value
                elif name not in bucket:
                    bucket[name] = value
    return merged


@dataclass(eq=False)
class _Request:
    """One client request travelling router -> shard(s) -> future."""

    predicates: frozenset
    tables: frozenset[str]
    digest: str
    payload: dict
    future: Future
    submitted_at: float
    timeout: float | None = None
    #: the ring owner the primary attempt was sent to
    shard: int | None = None
    #: attempts still in flight (primary + hedges); the last error loses
    outstanding: int = 0
    reroutes: int = 0
    hedged: bool = False
    lock: threading.Lock = field(default_factory=threading.Lock)


class EstimationCluster:
    """A sharded multi-process estimation tier behind one service API.

    ``statistics`` is a :class:`~repro.catalog.StatisticsCatalog`, a
    :class:`~repro.catalog.CatalogSnapshot` or a bare
    :class:`~repro.stats.pool.SITPool` (``database`` then required) —
    exactly the :class:`~repro.service.EstimationService` contract.  The
    cluster shape comes from ``config.cluster``
    (:class:`~repro.service.ClusterConfig`; defaulted when absent).

    ``_links`` is a test seam: a prebuilt list of link-like objects
    (``request(payload) -> Future[dict]``, ``close()``,
    ``pending_count``) that replaces process spawning — the first
    ``cluster.shards`` entries become ring shards, the rest replicas.
    Hedging, holds and routing are then unit-testable without a single
    child process.
    """

    def __init__(
        self,
        statistics: "StatisticsCatalog | CatalogSnapshot | object",
        *,
        database: Database | None = None,
        config: ServiceConfig | None = None,
        name: str = "repro.cluster",
        _links: "list | None" = None,
    ):
        if config is None:
            config = ServiceConfig(cluster=ClusterConfig())
        if config.cluster is None:
            config = dataclasses.replace(config, cluster=ClusterConfig())
        self.config = config
        self.name = name
        self._catalog = self._coerce_catalog(statistics, database)
        self.database = self._catalog.database
        if self.database is None:
            raise ValueError(
                "a database is required (pass one explicitly, or serve "
                "from a catalog built with a database)"
            )
        self._sql = TemplateFrontEnd(self.database.schema)
        cluster = config.cluster
        self._closed = threading.Event()
        self.metrics = MetricsRegistry()
        self._metrics_lock = threading.Lock()
        #: shard-id-keyed breaker: repeated faults eject the shard
        self._breaker = CircuitBreaker(
            threshold=cluster.breaker_threshold,
            window_s=cluster.breaker_window_s,
        )
        self._shard_ids = list(range(cluster.shards))
        self._replica_ids = list(
            range(cluster.shards, cluster.shards + cluster.replicas)
        )
        self._ring = HashRing(self._shard_ids, points=cluster.ring_points)
        #: everything below the ring is guarded by _route_lock
        self._route_lock = threading.Lock()
        self._links: dict[int, object] = {}
        self._held: dict[int, list[_Request]] = {}
        self._reviving: set[int] = set()
        #: per-member shard stats: the latest polled snapshot of the live
        #: process, and the counter totals folded from dead incarnations
        self._shard_stats_last: dict[int, dict] = {}
        self._shard_stats_prior: dict[int, dict] = {}
        self._replica_cursor = 0
        #: optional StalenessTracker stamping answers with bounded-
        #: staleness provenance (see :meth:`attach_staleness`)
        self._staleness = None
        self._processes: dict[int, multiprocessing.process.BaseProcess] = {}
        self._export = None
        self._mp = None
        if _links is not None:
            expected = cluster.shards + cluster.replicas
            if len(_links) != expected:
                raise ValueError(
                    f"_links must carry shards+replicas={expected} entries"
                )
            for member, link in enumerate(_links):
                self._links[member] = link
        else:
            self._mp = multiprocessing.get_context("spawn")
            self._export = export_snapshot(self._catalog.snapshot(), self.database)
            try:
                for member in self._shard_ids + self._replica_ids:
                    process, link = self._spawn_shard(member)
                    self._processes[member] = process
                    self._links[member] = link
            except Exception:
                self._shutdown_processes()
                raise
        # hedge scheduler: fires duplicate requests after the delay
        self._hedge_cv = threading.Condition()
        self._hedge_heap: list[tuple[float, int, _Request]] = []
        self._hedge_seq = itertools.count()
        self._hedge_thread = threading.Thread(
            target=self._hedge_loop, name=f"{name}-hedger", daemon=True
        )
        self._hedge_thread.start()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce_catalog(statistics, database: Database | None) -> StatisticsCatalog:
        if isinstance(statistics, StatisticsCatalog):
            return statistics
        if isinstance(statistics, CatalogSnapshot):
            return StatisticsCatalog.from_pool(
                statistics.pool,
                database=database or statistics.database,
            )
        return StatisticsCatalog.from_pool(statistics, database=database)

    def _shard_config(self) -> ServiceConfig:
        """The child-process service config: the router's knobs with the
        per-shard worker count and no nested cluster (shards are leaves)."""
        return dataclasses.replace(
            self.config,
            workers=self.config.cluster.shard_workers,
            cluster=None,
            port=0,
        )

    def _spawn_shard(self, member: int):
        """Start one child process and dial its bootstrap-reported port."""
        assert self._mp is not None and self._export is not None
        parent_conn, child_conn = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=shard_main,
            args=(
                self._export.descriptor,
                member,
                self._shard_config().to_dict(),
                child_conn,
            ),
            name=f"{self.name}-shard-{member}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(_STARTUP_TIMEOUT_S):
            process.terminate()
            raise TimeoutError(
                f"shard {member} did not report ready within "
                f"{_STARTUP_TIMEOUT_S}s"
            )
        kind, detail = parent_conn.recv()
        parent_conn.close()
        if kind != "ready":
            process.join(timeout=5.0)
            raise RuntimeError(f"shard {member} failed to start: {detail}")
        link = _ShardLink(member, self.config.host, int(detail))
        return process, link

    # ------------------------------------------------------------------
    # Admission + routing
    # ------------------------------------------------------------------
    def submit(self, query, timeout: float | None = None) -> "Future[object]":
        """Admit one request; returns its future (a
        :class:`~repro.service.protocol.ServedEstimate` on success).

        The request is parsed once here — shards receive the parse-free
        ``predicates`` wire spelling — fingerprinted, and routed to the
        ring owner of its query template.
        """
        if self._closed.is_set():
            raise ServiceClosed(f"{self.name} is shutting down")
        predicates, tables = coerce_query(query, self._sql)
        if timeout is None:
            timeout = self.config.default_timeout_s
        fingerprint, _ = shape_fingerprint(predicates)
        payload: dict = {
            "op": "estimate",
            "predicates": encode_predicates(predicates),
        }
        if timeout is not None:
            payload["timeout_ms"] = timeout * 1000.0
        entry = _Request(
            predicates=predicates,
            tables=tables,
            digest=fingerprint_digest(fingerprint),
            payload=payload,
            future=Future(),
            submitted_at=time.monotonic(),
            timeout=timeout,
        )
        self._dispatch(entry)
        return entry.future

    def submit_many(self, requests) -> "list[Future[object] | ServiceError]":
        """The service's group admission, as a loop over :meth:`submit`
        (members fan out to different shards, so there is no one queue
        to admit them to): per member its future or its typed failure.
        This is what lets ``EstimationServer(router)`` front a cluster."""
        outcomes: "list[Future | ServiceError]" = []
        for query, timeout in requests:
            try:
                outcomes.append(self.submit(query, timeout=timeout))
            except ServiceError as exc:
                outcomes.append(exc)
        return outcomes

    def estimate(self, query, timeout: float | None = None):
        future = self.submit(query, timeout=timeout)
        wait = None
        if timeout is not None:
            wait = timeout + self.config.drain_timeout_s
        return future.result(timeout=wait)

    def selectivity(self, query, timeout: float | None = None) -> float:
        return self.estimate(query, timeout=timeout).selectivity

    def cardinality(self, query, timeout: float | None = None) -> float:
        return self.estimate(query, timeout=timeout).cardinality

    # ------------------------------------------------------------------
    def _dispatch(self, entry: _Request, *, spilled: bool = False) -> None:
        """Route to the ring owner, honoring per-shard swap holds.

        Hold queues are bounded (``cluster.max_held_requests`` per
        shard): during a write storm the swap fan-out can outpace the
        ack rate, and an unbounded park would turn every client timeout
        into queued dead weight.  The excess is shed with a typed
        :class:`~repro.service.protocol.Overloaded` the moment it
        arrives, so callers get immediate backpressure instead of a
        stale queue position.
        """
        cap = self.config.cluster.max_held_requests
        with self._route_lock:
            shard = self._ring.lookup(entry.digest)
            held = self._held.get(shard)
            if held is not None:
                if len(held) >= cap:
                    self._count("cluster.holds_shed")
                    shed = Overloaded(
                        f"shard {shard} holds {len(held)} requests behind "
                        f"an in-flight swap (max_held_requests={cap})"
                    )
                else:
                    held.append(entry)
                    self._count("cluster.held_requests")
                    return
            else:
                shed = None
            link = self._links.get(shard)
        if shed is not None:
            self._maybe_fail(entry, shed, force=True)
            return
        if link is None:
            # ejected between lookup and send (rare race): try again;
            # the rebuilt ring resolves to a live owner
            self._fault_or_reroute(entry, shard)
            return
        entry.shard = shard
        with entry.lock:
            entry.outstanding += 1
        with self._metrics_lock:
            self.metrics.counter("cluster.routed").inc()
            self.metrics.counter(f"cluster.shard.{shard}.routed").inc()
            if spilled:
                self.metrics.counter("cluster.spilled").inc()
        raw = link.request(entry.payload)
        raw.add_done_callback(
            lambda f, s=shard: self._on_response(entry, s, f, hedge=False)
        )
        self._schedule_hedge(entry)

    def _send_hedge(self, entry: _Request, shard: int, link) -> None:
        with entry.lock:
            entry.outstanding += 1
            entry.hedged = True
        with self._metrics_lock:
            self.metrics.counter("cluster.hedges").inc()
        raw = link.request(dict(entry.payload, hedge=True))
        raw.add_done_callback(
            lambda f, s=shard: self._on_response(entry, s, f, hedge=True)
        )

    def _on_response(
        self, entry: _Request, shard: int, raw: Future, hedge: bool
    ) -> None:
        exc = raw.exception()
        if isinstance(exc, TransportError):
            self._note_shard_fault(shard)
            with entry.lock:
                entry.outstanding -= 1
            if entry.future.done():
                return
            if hedge:
                # the hedge died; the primary attempt is still the owner
                self._maybe_fail(entry, exc)
                return
            entry.reroutes += 1
            if entry.reroutes > _MAX_REROUTES:
                self._maybe_fail(entry, exc, force=True)
                return
            self._dispatch(entry, spilled=True)
            return
        if exc is not None:
            with entry.lock:
                entry.outstanding -= 1
            self._maybe_fail(entry, exc)
            return
        try:
            answer = result_from_wire(raw.result())
        except Exception as error:
            with entry.lock:
                entry.outstanding -= 1
            self._maybe_fail(entry, error)
            return
        answer = self._stamp_staleness(entry, answer)
        with entry.lock:
            entry.outstanding -= 1
        try:
            entry.future.set_result(answer)
        except InvalidStateError:
            # the other attempt already won; this one is the loser
            self._count("cluster.hedge_cancelled")
            return
        latency_ms = (time.monotonic() - entry.submitted_at) * 1000.0
        with self._metrics_lock:
            self.metrics.histogram("cluster.latency_ms").observe(latency_ms)
            if hedge:
                self.metrics.counter("cluster.hedge_wins").inc()

    def _maybe_fail(
        self, entry: _Request, error: Exception, *, force: bool = False
    ) -> None:
        """Fail the client future only once no attempt is still in
        flight (an outstanding hedge may yet win)."""
        with entry.lock:
            outstanding = entry.outstanding
        if outstanding > 0 and not force:
            return
        try:
            entry.future.set_exception(error)
        except InvalidStateError:  # pragma: no cover - race with winner
            pass

    def _fault_or_reroute(self, entry: _Request, shard: int) -> None:
        entry.reroutes += 1
        if entry.reroutes > _MAX_REROUTES:
            self._maybe_fail(
                entry,
                TransportError(f"shard {shard} unavailable"),
                force=True,
            )
            return
        self._dispatch(entry, spilled=True)

    # ------------------------------------------------------------------
    # Hedging
    # ------------------------------------------------------------------
    def _hedge_delay_s(self) -> float:
        cluster = self.config.cluster
        if cluster.hedge_delay_s is not None:
            return cluster.hedge_delay_s
        with self._metrics_lock:
            p95_ms = self.metrics.histogram("cluster.latency_ms").quantile(0.95)
        return max(_MIN_HEDGE_DELAY_S, (p95_ms / 1000.0) * _HEDGE_FACTOR)

    def _schedule_hedge(self, entry: _Request) -> None:
        fire_at = time.monotonic() + self._hedge_delay_s()
        with self._hedge_cv:
            heapq.heappush(
                self._hedge_heap, (fire_at, next(self._hedge_seq), entry)
            )
            self._hedge_cv.notify()

    def _hedge_loop(self) -> None:
        while True:
            with self._hedge_cv:
                while not self._closed.is_set():
                    now = time.monotonic()
                    if self._hedge_heap and self._hedge_heap[0][0] <= now:
                        break
                    wait = (
                        self._hedge_heap[0][0] - now
                        if self._hedge_heap
                        else None
                    )
                    self._hedge_cv.wait(timeout=wait)
                if self._closed.is_set():
                    return
                _, _, entry = heapq.heappop(self._hedge_heap)
            self._issue_hedge(entry)

    def _issue_hedge(self, entry: _Request) -> None:
        if entry.future.done():
            return
        with self._route_lock:
            target, link = self._hedge_target_locked(entry)
        if link is None:
            return
        self._send_hedge(entry, target, link)

    def _hedge_target_locked(self, entry: _Request):
        """The duplicate's destination: a live, unheld replica
        (round-robin), else the ring successor of the primary shard."""
        for _ in range(max(1, len(self._replica_ids))):
            if not self._replica_ids:
                break
            replica = self._replica_ids[
                self._replica_cursor % len(self._replica_ids)
            ]
            self._replica_cursor += 1
            link = self._links.get(replica)
            if link is not None and replica not in self._held:
                return replica, link
        primary = entry.shard
        if primary is None:
            return None, None
        try:
            successor = self._ring.successor(entry.digest, primary)
        except LookupError:  # pragma: no cover - fully ejected ring
            return None, None
        if successor == primary or successor in self._held:
            return None, None
        return successor, self._links.get(successor)

    # ------------------------------------------------------------------
    # Health: per-shard breaker -> eject -> respawn -> rejoin
    # ------------------------------------------------------------------
    def _note_shard_fault(self, shard: int) -> None:
        self._count("cluster.shard_faults")
        if self._breaker.record_fault(shard):
            self._eject(shard)

    def _eject(self, shard: int) -> None:
        """Take a tripped shard out of service and start its revival."""
        held: list[_Request] = []
        with self._route_lock:
            link = self._links.pop(shard, None)
            held = self._held.pop(shard, None) or []
            # the incarnation is gone: bank its last polled counters so
            # shard_stats keeps reporting them after the respawn
            last = self._shard_stats_last.pop(shard, None)
            if last is not None:
                self._shard_stats_prior[shard] = _fold_shard_stats(
                    self._shard_stats_prior.get(shard, {}), last
                )
            if shard in self._shard_ids:
                try:
                    self._ring.eject(shard)
                except RuntimeError:
                    # last active shard: keep it on the ring; the revival
                    # below still replaces the dead process
                    pass
            revive = (
                self._export is not None and shard not in self._reviving
            )
            if revive:
                self._reviving.add(shard)
        self._count("cluster.ejections")
        if link is not None:
            link.close()
        for entry in held:
            self._fault_or_reroute(entry, shard)
        if revive:
            threading.Thread(
                target=self._revive,
                args=(shard,),
                name=f"{self.name}-revive-{shard}",
                daemon=True,
            ).start()

    def _revive(self, shard: int) -> None:
        old = self._processes.get(shard)
        if old is not None:
            old.terminate()
            old.join(timeout=5.0)
        link = None
        try:
            process, link = self._spawn_shard(shard)
            self._catch_up(link)
        except Exception:
            if link is not None:
                link.close()
            with self._route_lock:
                self._reviving.discard(shard)
            self._count("cluster.revive_failures")
            return
        if self._closed.is_set():
            link.close()
            process.terminate()
            return
        with self._route_lock:
            self._processes[shard] = process
            self._links[shard] = link
            self._breaker.reset(shard)
            if shard in self._shard_ids:
                self._ring.rejoin(shard)
            self._reviving.discard(shard)
        self._count("cluster.rejoins")

    def _catch_up(self, link) -> None:
        """Replay post-export table updates into a freshly spawned shard.

        A revived shard attaches the *original* snapshot export, so any
        ``notify_table_update`` applied since must be re-sent (pinning
        the shard to the primary's current version) before the shard
        takes traffic — otherwise a rejoin after a hot swap would serve
        from a stale snapshot version.
        """
        assert self._export is not None
        exported = self._export.descriptor["table_versions"]
        version = self._catalog.version
        stale = [
            table
            for table, current in self._catalog.table_versions.items()
            if current > int(exported.get(table, 0))
        ]
        acks = [
            link.request(
                {"op": "invalidate", "table": table, "version": version}
            )
            for table in stale
        ]
        for ack in acks:
            response = ack.result(timeout=_STARTUP_TIMEOUT_S)
            if not response.get("ok"):
                raise RuntimeError(f"catch-up invalidate failed: {response}")

    def inject_crash(self, shard: int) -> None:
        """Chaos hook: hard-kill one shard process mid-serve (the shard's
        ``crash`` op).  The next requests routed to it fault, trip the
        breaker, and exercise eject -> respawn -> rejoin."""
        with self._route_lock:
            link = self._links.get(shard)
        if link is None:
            raise LookupError(f"no live link to shard {shard}")
        link.request({"op": "crash"})

    # ------------------------------------------------------------------
    # Coherent hot swap
    # ------------------------------------------------------------------
    def attach_staleness(self, tracker) -> None:
        """Stamp served answers with bounded-staleness provenance.

        ``tracker`` is a :class:`~repro.obs.StalenessTracker` shared with
        the ingestion pipeline; every answer's ``staleness_s`` becomes
        the worst pending-write age over the query's tables at response
        time.  Also attached to the primary catalog so ``catalog
        status`` and the merged metrics surface the same gauges.
        """
        self._staleness = tracker
        attach = getattr(self._catalog, "attach_staleness", None)
        if attach is not None:
            attach(tracker)

    def _stamp_staleness(self, entry: _Request, answer):
        tracker = self._staleness
        if tracker is None:
            return answer
        try:
            staleness = tracker.staleness_for(entry.tables)
            return dataclasses.replace(answer, staleness_s=staleness)
        except Exception:  # pragma: no cover - provenance is best-effort
            return answer

    def notify_table_update(self, table: str) -> int:
        """Propagate a base-table change through the whole cluster.

        Order matters: holds are installed *before* the primary version
        bump, so any request admitted after the bump is either held (and
        flushed post-ack at the new version) or routed to an
        already-acked shard — never served from a stale shard snapshot.
        """
        if self._closed.is_set():
            raise ServiceClosed(f"{self.name} is shutting down")
        with self._route_lock:
            members = [
                (member, link) for member, link in self._links.items()
            ]
            for member, _ in members:
                self._held.setdefault(member, [])
        with self._metrics_lock:
            self.metrics.counter("cluster.swaps").inc()
            self.metrics.counter("cluster.holds").inc(len(members))
        table_version = self._catalog.notify_table_update(table)
        version = self._catalog.version
        for member, link in members:
            try:
                inject(
                    POINT_SWAP_UNDER_WRITE,
                    detail=f"member={member} table={table} version={version}",
                )
            except Exception:
                # The fan-out failed at this member before its invalidate
                # went out.  A shard that missed the swap must never serve
                # again at the old version, so eject it outright: its held
                # requests spill to ring successors (flushed at the new
                # version once those ack) and the revival's catch-up
                # replays the invalidate before the shard rejoins.
                self._count("cluster.swap_faults")
                self._eject(member)
                continue
            raw = link.request(
                {"op": "invalidate", "table": table, "version": version}
            )
            raw.add_done_callback(
                lambda f, m=member: self._on_swap_ack(m, f)
            )
        return table_version

    def _on_swap_ack(self, member: int, raw: Future) -> None:
        """One shard acked (or failed) its invalidate: release its hold.

        Held requests re-enter the normal dispatch path — on a failed
        ack the shard's next faults trip the breaker and the requests
        spill to its successors, so a swap never wedges admission.
        """
        exc = raw.exception()
        failed = isinstance(exc, Exception)
        if not failed:
            response = raw.result()
            failed = not response.get("ok")
        with self._route_lock:
            held = self._held.pop(member, None) or []
        if failed:
            self._note_shard_fault(member)
        for entry in held:
            self._dispatch(entry)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def close(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Stop admission, drain in-flight work, stop every shard.

        With ``drain=True`` the router waits (bounded by ``timeout`` /
        ``drain_timeout_s``) for in-flight requests to finish before
        tearing the links down; held and unanswered requests fail with
        :class:`TransportError` once their links close.  Idempotent.
        """
        if self._closed.is_set():
            return True
        timeout = (
            timeout if timeout is not None else self.config.drain_timeout_s
        )
        clean = True
        if drain:
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                with self._route_lock:
                    links = list(self._links.values())
                    held = sum(len(entries) for entries in self._held.values())
                if held == 0 and all(
                    link.pending_count == 0 for link in links
                ):
                    break
                time.sleep(0.005)
            else:
                clean = False
        self._closed.set()
        with self._hedge_cv:
            self._hedge_cv.notify_all()
        with self._route_lock:
            links = list(self._links.values())
            self._links.clear()
            held = [
                entry
                for entries in self._held.values()
                for entry in entries
            ]
            self._held.clear()
        for entry in held:
            self._maybe_fail(
                entry, ServiceClosed("cluster closed before serving"), force=True
            )
        for link in links:
            link.close()
        self._shutdown_processes()
        if self._export is not None:
            self._export.close()
            self._export.unlink()
            self._export = None
        self._hedge_thread.join(timeout=5.0)
        return clean

    def _shutdown_processes(self) -> None:
        for process in self._processes.values():
            if process.is_alive():
                process.terminate()
        for process in self._processes.values():
            process.join(timeout=5.0)
        self._processes.clear()

    def __enter__(self) -> "EstimationCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _count(self, key: str, amount: int = 1) -> None:
        with self._metrics_lock:
            self.metrics.counter(key).inc(amount)

    def metrics_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        with self._metrics_lock:
            registry.merge(self.metrics)
        with self._route_lock:
            active = len(self._ring.active)
            ejected = len(self._ring.ejected)
            held = sum(len(entries) for entries in self._held.values())
            replicas = sum(
                1 for member in self._replica_ids if member in self._links
            )
        registry.gauge("cluster.shards").set(float(active))
        registry.gauge("cluster.replicas").set(float(replicas))
        registry.gauge("cluster.ejected").set(float(ejected))
        registry.gauge("cluster.holding").set(float(held))
        registry.gauge("cluster.closed").set(1.0 if self.closed else 0.0)
        registry.merge(self._catalog.metrics_registry())
        return registry

    def stats_snapshot(self) -> StatsSnapshot:
        """Router-side telemetry under the ``cluster`` namespace (plus
        the primary catalog's).  Shard-internal counters stay in the
        shards; fetch them with :meth:`shard_stats`."""
        cluster = self.config.cluster
        return StatsSnapshot.from_registry(
            self.metrics_registry(),
            meta={
                "subsystem": "cluster",
                "name": self.name,
                "shards": cluster.shards,
                "replicas": cluster.replicas,
                "ring_points": cluster.ring_points,
                "shard_workers": cluster.shard_workers,
            },
        )

    def shard_stats(self, timeout_s: float = 10.0) -> dict[int, dict]:
        """Per-member ``stats`` snapshots, accumulated across restarts.

        Each poll remembers the member's latest live snapshot; when a
        shard is ejected that snapshot is folded into a per-member prior,
        and a revived shard's fresh numbers are merged on top
        (:func:`_fold_shard_stats`) — so per-shard ``counters`` survive
        eject → respawn → rejoin instead of resetting with the process.
        Members currently without a live link report their folded prior
        alone.
        """
        with self._route_lock:
            links = dict(self._links)
            prior = dict(self._shard_stats_prior)
        futures = {
            member: link.request({"op": "stats"})
            for member, link in links.items()
        }
        out: dict[int, dict] = {}
        for member, future in futures.items():
            try:
                response = future.result(timeout=timeout_s)
            except Exception:
                continue
            if not response.get("ok"):
                continue
            live = response.get("stats", {})
            with self._route_lock:
                self._shard_stats_last[member] = live
            out[member] = (
                _fold_shard_stats(prior[member], live)
                if member in prior
                else live
            )
        for member, banked in prior.items():
            if member not in out and member not in links:
                out[member] = banked
        return out


__all__ = ["EstimationCluster"]
