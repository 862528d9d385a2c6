"""The cluster router: one service surface over N shard processes.

:class:`EstimationCluster` duck-types
:class:`~repro.service.EstimationService` (``submit`` / ``estimate`` /
``stats_snapshot`` / ``close`` / ``config``), so everything that serves
or wraps a service — :func:`repro.service.connect`,
:func:`repro.service.start_in_thread`, the CLI — works over a cluster
unchanged.  Underneath:

* **spawn** — ``shards`` child processes
  (:func:`repro.cluster.shard.shard_main`, ``spawn`` start method) all
  attach the router's one shared-memory snapshot export
  (:mod:`repro.cluster.shm`): N processes, one copy of the histograms;
* **route** — a request goes to the shard its plan-cache shape
  fingerprint's digest (:func:`repro.core.plancache.fingerprint_digest`)
  picks, modulo the shard count: membership is static (a faulted shard
  is respawned in place), so every query template lands on one shard
  and that shard's match / estimate / compiled-plan caches stay hot;
* **hold** — a shard that must not serve parks the requests routed to
  it in a bounded per-shard hold, released by one step
  (:meth:`EstimationCluster._release`) once the shard is at the
  cluster's version.  Two things install a hold:

  - a swap: :meth:`notify_table_update` holds every shard, bumps the
    primary catalog and fans an ``invalidate`` out; each shard's ack
    releases its hold, so no request routed after the update is served
    from a stale shard snapshot;
  - a fault (a transport error on the shard's link, a failed or
    ``ok: false`` swap ack, a fault during the fan-out): the link is
    closed, the process is respawned in place, caught up by replaying
    every post-export invalidation, and its hold released.

Telemetry lives under the ``cluster`` namespace of
:meth:`stats_snapshot` (routed / holds / held_requests / swaps /
shard_faults / rejoins / ...; see :mod:`repro.obs.snapshot`).
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import socket
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass

from repro.catalog.catalog import CatalogSnapshot, StatisticsCatalog
from repro.core.plancache import fingerprint_digest, shape_fingerprint
from repro.engine.database import Database
from repro.obs.metrics import MetricsRegistry
from repro.obs.snapshot import StatsSnapshot
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

from repro.cluster.shard import shard_main
from repro.cluster.shm import export_snapshot


class _ShardLink:
    """One persistent JSON-lines connection to a shard process.

    A single background reader correlates responses to request futures
    by id, so any number of router threads can have requests in flight
    on one socket.  When the connection dies every pending future — and
    every later request — fails with :class:`TransportError`, the
    router's fault signal.
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
            # nobody reads this socket any more: a later request would
            # wait forever, so it fails at once instead
            self._closed = True
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


#: bound on the shard incarnations one request may try: each transport
#: fault it meets re-dispatches it, into the faulted shard's hold
_MAX_REROUTES = 3
#: seconds the router waits for a shard to come up / ack its catch-up
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
    """One client request travelling router -> shard -> future."""

    tables: frozenset[str]
    #: the shard its template's digest picks
    shard: int
    payload: dict
    future: Future
    submitted_at: float
    reroutes: int = 0


def _settle(entry: _Request, answer=None, error: Exception | None = None) -> None:
    """Complete a request's future, unless its caller already cancelled
    it."""
    try:
        if error is None:
            entry.future.set_result(answer)
        else:
            entry.future.set_exception(error)
    except InvalidStateError:
        pass


class EstimationCluster:
    """A sharded multi-process estimation tier behind one service API.

    ``statistics`` is a :class:`~repro.catalog.StatisticsCatalog`, a
    :class:`~repro.catalog.CatalogSnapshot` or a bare
    :class:`~repro.stats.pool.SITPool` (``database`` then required) —
    exactly the :class:`~repro.service.EstimationService` contract.  The
    cluster shape comes from ``config.cluster``
    (:class:`~repro.service.ClusterConfig`; defaulted when absent).

    ``_links`` and ``_respawn`` are a test seam that replaces process
    spawning: ``_links`` is a prebuilt list of ``cluster.shards``
    link-like objects (``request(payload) -> Future[dict]``,
    ``close()``, ``pending_count``), and ``_respawn(shard)`` returns a
    fresh link for a faulted shard (or raises, as a failed spawn does).
    Routing, holds and hold → respawn → catch-up → flush are then
    unit-testable without a single child process.
    """

    def __init__(
        self,
        statistics: "StatisticsCatalog | CatalogSnapshot | object",
        *,
        database: Database | None = None,
        config: ServiceConfig | None = None,
        name: str = "repro.cluster",
        _links: "list | None" = None,
        _respawn=None,
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
        #: what every shard starts from: the exported table versions, and
        #: the catalog version the shards are pinned to (moved by swaps)
        self._exported_tables = dict(self._catalog.table_versions)
        self._version = self._catalog.version
        #: everything below is guarded by _route_lock.  A shard with a
        #: link and no hold serves; one with a hold parks its requests (a
        #: swap awaits its ack, or its link is gone and a respawn runs);
        #: one with neither is down after a failed respawn, and the next
        #: request routed to it starts another
        self._route_lock = threading.Lock()
        self._links: dict[int, object] = {}
        self._held: dict[int, list[_Request]] = {}
        #: per-shard stats: the latest polled snapshot of the live
        #: process, and the counter totals folded from dead incarnations
        self._shard_stats_last: dict[int, dict] = {}
        self._shard_stats_prior: dict[int, dict] = {}
        #: optional StalenessTracker stamping answers with bounded-
        #: staleness provenance (see :meth:`attach_staleness`)
        self._staleness = None
        self._processes: dict[int, multiprocessing.process.BaseProcess] = {}
        self._export = None
        self._mp = None
        if _links is not None:
            if len(_links) != cluster.shards:
                raise ValueError(
                    f"_links must carry shards={cluster.shards} entries"
                )
            self._links.update(enumerate(_links))
            self._new_link = _respawn
        else:
            self._mp = multiprocessing.get_context("spawn")
            self._export = export_snapshot(self._catalog.snapshot(), self.database)
            self._new_link = self._respawn_process
            try:
                for shard in range(cluster.shards):
                    process, link = self._spawn_shard(shard)
                    self._processes[shard] = process
                    self._links[shard] = link
            except Exception:
                self._shutdown_processes()
                raise

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

    def _spawn_shard(self, shard: int):
        """Start one child process and dial its bootstrap-reported port."""
        parent_conn, child_conn = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=shard_main,
            args=(
                self._export.descriptor,
                shard,
                self._shard_config().to_dict(),
                child_conn,
            ),
            name=f"{self.name}-shard-{shard}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(_STARTUP_TIMEOUT_S):
            process.terminate()
            raise TimeoutError(
                f"shard {shard} did not report ready within "
                f"{_STARTUP_TIMEOUT_S}s"
            )
        kind, detail = parent_conn.recv()
        parent_conn.close()
        if kind != "ready":
            process.join(timeout=5.0)
            raise RuntimeError(f"shard {shard} failed to start: {detail}")
        link = _ShardLink(shard, self.config.host, int(detail))
        return process, link

    def _respawn_process(self, shard: int):
        """Replace a faulted shard's process in place; returns its link."""
        with self._route_lock:
            old = self._processes.pop(shard, None)
        if old is not None:
            old.terminate()
            old.join(timeout=5.0)
        process, link = self._spawn_shard(shard)
        with self._route_lock:
            if not self._closed.is_set():
                self._processes[shard] = process
                return link
        link.close()
        process.terminate()
        process.join(timeout=5.0)
        raise ServiceClosed(f"{self.name} closed during a respawn")

    # ------------------------------------------------------------------
    # Admission + routing
    # ------------------------------------------------------------------
    def submit(self, query, timeout: float | None = None) -> "Future[object]":
        """Admit one request; returns its future (a
        :class:`~repro.service.protocol.ServedEstimate` on success).

        The request is parsed once here — shards receive the parse-free
        ``predicates`` wire spelling — fingerprinted, and routed to the
        shard its query template's digest picks.
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
            tables=tables,
            shard=int(fingerprint_digest(fingerprint), 16)
            % self.config.cluster.shards,
            payload=payload,
            future=Future(),
            submitted_at=time.monotonic(),
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

    #: the service's value-returning admission, which the server calls:
    #: a router answers nothing on arrival, so it is ``submit_many``
    admit = submit_many

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
    def _dispatch(self, entry: _Request) -> None:
        """Send to the template's shard, or park in that shard's hold.

        A request routed to a shard that is down with no respawn running
        (the last one failed) installs the hold and starts a respawn.
        Holds are bounded (``cluster.max_held_requests`` per shard):
        during a write storm the swap fan-out can outpace the ack rate,
        and an unbounded park would turn every client timeout into
        queued dead weight.  The excess is shed with a typed
        :class:`~repro.service.protocol.Overloaded` the moment it
        arrives, so callers get immediate backpressure instead of a
        stale queue position.
        """
        cap = self.config.cluster.max_held_requests
        with self._route_lock:
            shard = entry.shard
            link = self._links.get(shard)
            held = self._held.get(shard)
            respawn = (
                link is None and held is None and not self._closed.is_set()
            )
            if respawn:
                held = self._held[shard] = []
            if held is None:
                error = None if link is not None else ServiceClosed(
                    "cluster closed before serving"
                )
            elif len(held) < cap:
                held.append(entry)
                self._count("cluster.held_requests")
                error = None
            else:
                self._count("cluster.holds_shed")
                error = Overloaded(
                    f"shard {shard} holds {len(held)} requests while it "
                    f"swaps or respawns (max_held_requests={cap})"
                )
        if respawn:
            self._start_respawn(shard)
        if error is not None:
            _settle(entry, error=error)
        if held is not None or error is not None:
            return
        with self._metrics_lock:
            self.metrics.counter("cluster.routed").inc()
            self.metrics.counter(f"cluster.shard.{shard}.routed").inc()
        raw = link.request(entry.payload)
        raw.add_done_callback(
            lambda f, s=shard, l=link: self._on_response(entry, s, l, f)
        )

    def _on_response(self, entry: _Request, shard: int, link, raw: Future) -> None:
        exc = raw.exception()
        if isinstance(exc, TransportError):
            self._on_fault(shard, link)
            entry.reroutes += 1
            if entry.reroutes > _MAX_REROUTES:
                _settle(entry, error=exc)
            else:
                self._dispatch(entry)
            return
        if exc is not None:
            _settle(entry, error=exc)
            return
        try:
            answer = result_from_wire(raw.result())
        except Exception as error:
            _settle(entry, error=error)
            return
        _settle(entry, self._stamp_staleness(entry, answer))
        latency_ms = (time.monotonic() - entry.submitted_at) * 1000.0
        with self._metrics_lock:
            self.metrics.histogram("cluster.latency_ms").observe(latency_ms)

    # ------------------------------------------------------------------
    # Health: fault -> hold -> respawn in place -> catch up -> release
    # ------------------------------------------------------------------
    def _on_fault(self, shard: int, link) -> None:
        """Take a faulted incarnation out of service, once.

        The link is closed (its in-flight requests fail over into the
        hold), a hold is installed — or a swap's hold kept — and the
        process is respawned in place.  A fault reported by an
        incarnation already replaced is ignored.
        """
        with self._route_lock:
            if self._links.get(shard) is not link:
                return
            del self._links[shard]
            self._held.setdefault(shard, [])
            # the incarnation is gone: bank its last polled counters so
            # shard_stats keeps reporting them after the respawn
            last = self._shard_stats_last.pop(shard, None)
            if last is not None:
                self._shard_stats_prior[shard] = _fold_shard_stats(
                    self._shard_stats_prior.get(shard, {}), last
                )
        self._count("cluster.shard_faults")
        link.close()
        self._start_respawn(shard)

    def _start_respawn(self, shard: int) -> None:
        threading.Thread(
            target=self._respawn,
            args=(shard,),
            name=f"{self.name}-respawn-{shard}",
            daemon=True,
        ).start()

    def _respawn(self, shard: int) -> None:
        """A new incarnation of ``shard``, caught up to the cluster's
        version, then its hold released.  A failed respawn fails the
        held requests with :class:`TransportError`."""
        link = None
        try:
            if self._new_link is None:
                raise RuntimeError("no respawn hook")
            link = self._new_link(shard)
            # a swap landing during the catch-up moves the version on:
            # catch up again rather than serve behind it
            while not self._release(
                shard, link, self._catch_up(link), respawned=True
            ):
                if self._closed.is_set():
                    raise ServiceClosed(f"{self.name} is shutting down")
        except Exception as exc:
            if link is not None:
                link.close()
            with self._route_lock:
                held = self._held.pop(shard, None) or []
            if self._closed.is_set():
                return
            self._count("cluster.revive_failures")
            error = TransportError(f"shard {shard} could not be respawned: {exc}")
            for entry in held:
                _settle(entry, error=error)
            return
        self._count("cluster.rejoins")

    def _catch_up(self, link) -> int:
        """Replay post-export table updates into a freshly spawned shard.

        A respawned shard attaches the *original* snapshot export, so
        every ``notify_table_update`` applied since must be re-sent, each
        pinning the shard to the cluster's version, before the shard
        takes traffic.  Returns that version.
        """
        with self._route_lock:
            version = self._version
        stale = [
            table
            for table, current in self._catalog.table_versions.items()
            if current > self._exported_tables.get(table, 0)
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
        return version

    def _release(
        self, shard: int, link, version: int, *, respawned: bool = False
    ) -> bool:
        """The one step that ends a hold, for a swap ack and a caught-up
        respawn alike: ``link`` serves ``shard`` at ``version``, and the
        held requests are dispatched.

        Refused (False, hold kept) when ``version`` is behind the
        cluster's — a later swap's ack, or another catch-up, releases
        instead — or when a swap-acked ``link`` was faulted in the
        meantime (a respawned one is installed: its shard has no link).
        """
        with self._route_lock:
            if self._closed.is_set() or version != self._version:
                return False
            if self._links.get(shard) is not (None if respawned else link):
                return False
            self._links[shard] = link
            held = self._held.pop(shard, None) or []
        for entry in held:
            self._dispatch(entry)
        return True

    def inject_crash(self, shard: int) -> None:
        """Chaos hook: hard-kill one shard process mid-serve (the shard's
        ``crash`` op).  The next requests routed to it fault, and
        exercise hold -> respawn -> catch-up -> release."""
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

        Holds are installed and the primary version bumped under one
        lock, so any request admitted after the bump is held (and
        flushed once its shard is at the new version) — never served
        from a stale shard snapshot.  A shard that is down already holds;
        its respawn's catch-up replays this update.
        """
        if self._closed.is_set():
            raise ServiceClosed(f"{self.name} is shutting down")
        with self._route_lock:
            members = list(self._links.items())
            for member, _ in members:
                self._held.setdefault(member, [])
            table_version = self._catalog.notify_table_update(table)
            version = self._version = self._catalog.version
        with self._metrics_lock:
            self.metrics.counter("cluster.swaps").inc()
            self.metrics.counter("cluster.holds").inc(len(members))
        for member, link in members:
            try:
                inject(
                    POINT_SWAP_UNDER_WRITE,
                    detail=f"member={member} table={table} version={version}",
                )
            except Exception:
                # the fan-out failed at this member before its invalidate
                # went out: a fault like any other, so the member stays
                # held until a respawned incarnation has caught up
                self._count("cluster.swap_faults")
                self._on_fault(member, link)
                continue
            raw = link.request(
                {"op": "invalidate", "table": table, "version": version}
            )
            raw.add_done_callback(
                lambda f, m=member, l=link: self._on_swap_ack(m, l, version, f)
            )
        return table_version

    def _on_swap_ack(self, member: int, link, version: int, raw: Future) -> None:
        """One shard acked its invalidate: release its hold.  A failed
        or ``ok: false`` ack is a fault: the hold stays until a respawned
        incarnation has caught up."""
        if raw.exception() is None and raw.result().get("ok"):
            self._release(member, link, version)
        else:
            self._on_fault(member, link)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def close(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Stop admission, drain in-flight work, stop every shard.

        With ``drain=True`` the router waits (bounded by ``timeout`` /
        ``drain_timeout_s``) for in-flight and held requests to finish
        before tearing the links down; held and unanswered requests then
        fail with :class:`~repro.service.protocol.ServiceClosed`.
        Idempotent.
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
        with self._route_lock:
            self._closed.set()
            links = list(self._links.values())
            self._links.clear()
            held = [
                entry
                for entries in self._held.values()
                for entry in entries
            ]
            self._held.clear()
        for entry in held:
            _settle(entry, error=ServiceClosed("cluster closed before serving"))
        for link in links:
            link.close()
        self._shutdown_processes()
        if self._export is not None:
            self._export.close()
            self._export.unlink()
            self._export = None
        return clean

    def _shutdown_processes(self) -> None:
        with self._route_lock:
            processes = list(self._processes.values())
            self._processes.clear()
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=5.0)

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
            serving = len(self._links)
            held = sum(len(entries) for entries in self._held.values())
        registry.gauge("cluster.shards").set(float(serving))
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
                "shard_workers": cluster.shard_workers,
            },
        )

    def shard_stats(self, timeout_s: float = 10.0) -> dict[int, dict]:
        """Per-shard ``stats`` snapshots, accumulated across restarts.

        Each poll remembers the shard's latest live snapshot; when the
        shard faults that snapshot is folded into a per-shard prior, and
        a respawned shard's fresh numbers are merged on top
        (:func:`_fold_shard_stats`) — so per-shard ``counters`` survive
        fault → respawn instead of resetting with the process.  Shards
        currently without a live link report their folded prior alone.
        """
        with self._route_lock:
            links = dict(self._links)
            prior = dict(self._shard_stats_prior)
        futures = {
            shard: link.request({"op": "stats"})
            for shard, link in links.items()
        }
        out: dict[int, dict] = {}
        for shard, future in futures.items():
            try:
                response = future.result(timeout=timeout_s)
            except Exception:
                continue
            if not response.get("ok"):
                continue
            live = response.get("stats", {})
            with self._route_lock:
                self._shard_stats_last[shard] = live
            out[shard] = (
                _fold_shard_stats(prior[shard], live)
                if shard in prior
                else live
            )
        for shard, banked in prior.items():
            if shard not in out and shard not in links:
                out[shard] = banked
        return out


__all__ = ["EstimationCluster"]
