"""The concurrent estimation-serving engine.

:class:`EstimationService` turns the single-threaded
:class:`~repro.catalog.EstimationSession` into a request path:

* **hits answered on arrival** — the service keeps one
  :class:`~repro.core.plancache.PlanCache` per served pool object: every
  worker session over that pool compiles into it (a notify publishes no
  new pool, so it keeps the cache and its counts), and while its pool is
  the one a worker should be on,
  :meth:`~EstimationService.submit_many` answers a request whose shape
  is in it on the submitting thread: one fingerprint (of SQL, its
  scanned skeleton's route: :meth:`~repro.sql.template.TemplateFrontEnd.scan`),
  one lock-free probe, one replay, and the answer as a value
  (:meth:`~EstimationService.admit`, which the TCP server,
  :meth:`~EstimationService.estimate` and the in-process client use) or
  an already resolved future (:meth:`~EstimationService.submit_many`).
  A hit's staleness stamp covers its plan's tables
  (:attr:`~repro.core.plancache.CompiledPlan.tables`), so a predicate set
  is walked for its tables only on a miss.  Only misses cross to a worker;
* a **bounded admission queue** (:class:`~repro.service.queue.AdmissionQueue`)
  in front of a **worker-thread pool**; every worker owns one
  snapshot-pinned session, so the session single-owner contract holds by
  construction;
* **micro-batching from the backlog** — a free worker takes whatever is
  queued, up to ``max_batch``, the moment it is free and never waits on
  a timer: a lone request is a batch of one, and under pipelining a
  batch is everything that arrived while the previous one was being
  served.  :meth:`~EstimationService.submit_many` admits a burst as one
  unit (one lock, one wake-up), so a group stays together from the
  socket to the session.  Within a batch, requests with the *same*
  predicate set are answered by one DP run (dedup); across batches a
  request replays the plan its shape compiled to, and a sub-plan an
  earlier request solved is a lookup in the session's DP memo;
* **admission control** — the queue bounds DP work, not hits: a hit is
  never queued, so it is never shed.  A full queue sheds immediately
  with the typed
  :class:`~repro.service.protocol.Overloaded`; per-request deadlines are
  enforced at dequeue (:class:`~repro.service.protocol.DeadlineExceeded`)
  so a backlogged worker never burns DP time on answers nobody is
  waiting for; :meth:`close` drains gracefully and flushes whatever
  cannot be served with :class:`~repro.service.protocol.ServiceClosed`;
* **hot snapshot swap** — between batches every worker compares its
  session's pinned version with ``catalog.version`` and rolls to a
  fresh session on mismatch.  In-flight batches keep their pinned
  snapshot (the catalog is copy-on-write), which extends the catalog's
  old-snapshot-consistency guarantee to the concurrent path: every
  response carries the ``snapshot_version`` it was computed on and is
  bit-identical to a direct estimator call on that snapshot.

Observability: queue-depth gauge, served/shed counters, batch and
snapshot-swap counters, and a p50/p95/p99-capable latency histogram —
all under the ``service`` namespace of :meth:`stats_snapshot`, with the
workers' session telemetry merged in under the usual namespaces.  An
answer served on arrival counts in ``submitted``, ``served``,
``latency_ms``, ``answered_on_arrival`` and ``plan_cache.hits``;
``batches`` and ``batch_size`` count queued work only.  The
``plan_cache`` counts run for the service's life: a cache nothing holds
any more (a refresh retired it) is banked, not dropped; ``caches``
counts the live ones.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field, replace as _replace
from typing import Iterable

from repro.catalog.catalog import CatalogSnapshot, StatisticsCatalog
from repro.catalog.session import EstimationSession
from repro.core.errors import ErrorFunction
from repro.core.plancache import CompiledPlan, PlanCache, shape_fingerprint
from repro.core.predicates import (
    FilterPredicate,
    JoinPredicate,
    PredicateSet,
    tables_of,
)
from repro.engine.database import Database
from repro.engine.expressions import Query
from repro.estimators import resolve_statistics
from repro.obs.metrics import MetricsRegistry
from repro.obs.snapshot import StatsSnapshot
from repro.sql.template import TemplateFrontEnd, scanned_predicates
from repro.stats.pool import SITPool

from repro.service.config import ServiceConfig
from repro.service.protocol import (
    DeadlineExceeded,
    InvalidRequest,
    Overloaded,
    ServedEstimate,
    ServiceClosed,
    ServiceError,
)


def coerce_query(
    query: "Query | PredicateSet | str", sql: TemplateFrontEnd
) -> tuple[frozenset, frozenset[str] | None]:
    """Any in-process request spelling — SQL text, a bound
    :class:`Query`, a bare predicate set — as ``(predicates, tables)``;
    :class:`InvalidRequest` for anything else.  ``sql`` is the service's
    own front end.  SQL text builds no :class:`Query`: the front end
    hands over the pair.  ``tables`` are the FROM tables of SQL or a
    :class:`Query`, and ``None`` for a bare set, whose tables are its
    predicates': a hit reads them off its plan, a miss walks the set
    (:func:`walked`)."""
    if isinstance(query, str):
        try:
            predicates, tables = sql.parse_predicates(query)
        except Exception as exc:
            raise InvalidRequest(str(exc)) from exc
    elif isinstance(query, Query):
        predicates = query.predicates
        tables = query.tables
    else:
        try:
            predicates = frozenset(query)
        except TypeError as exc:
            raise InvalidRequest(
                f"unsupported query type {type(query).__name__}"
            ) from exc
        tables = None
    if not predicates:
        raise InvalidRequest("query has no predicates")
    return predicates, tables


def walked(walk, predicates: frozenset):
    """``walk(predicates)`` — :func:`shape_fingerprint` or
    :func:`tables_of` — with a set that is not all predicates refused as
    :class:`InvalidRequest`, whichever walk meets it first."""
    try:
        return walk(predicates)
    except (AttributeError, TypeError) as exc:
        kinds = sorted(
            {
                type(p).__name__
                for p in predicates
                if not isinstance(p, (FilterPredicate, JoinPredicate))
            }
        )
        raise InvalidRequest(
            f"not a predicate: {', '.join(kinds)}" if kinds else str(exc)
        ) from exc


def settle(
    outcome: "ServedEstimate | Future[ServedEstimate] | ServiceError",
    wait: float | None,
) -> ServedEstimate:
    """One :meth:`EstimationService.admit` outcome as its answer: a hit
    is one already, a typed refusal raises, and only a queued member is
    waited on, through its future (``wait`` seconds at most)."""
    if type(outcome) is ServedEstimate:
        return outcome
    if isinstance(outcome, ServiceError):
        raise outcome
    return outcome.result(timeout=wait)


@dataclass(eq=False)
class _Pending:
    """One admitted request travelling queue -> worker -> future."""

    predicates: frozenset
    tables: frozenset[str]
    future: Future
    submitted_at: float
    deadline: float | None = None
    #: filled by the worker for telemetry assertions in tests
    batch_size: int = field(default=1, compare=False)

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline


#: the :class:`PlanCache` counters the service reports as lifetime totals
_PLAN_EVENTS = ("hits", "misses", "compiles", "evictions")


class EstimationService:
    """A thread-pooled, micro-batching front end over ``getSelectivity``.

    ``statistics`` may be a :class:`~repro.catalog.StatisticsCatalog`
    (hot snapshot swap active), a fixed
    :class:`~repro.catalog.CatalogSnapshot`, or a bare
    :class:`~repro.stats.pool.SITPool` (``database`` then required).
    """

    def __init__(
        self,
        statistics: "StatisticsCatalog | CatalogSnapshot | SITPool",
        *,
        database: Database | None = None,
        config: ServiceConfig | None = None,
        error_function: ErrorFunction | None = None,
        backend: str | None = None,
        name: str = "repro.service",
    ):
        from repro.service.queue import AdmissionQueue

        self.config = config if config is not None else ServiceConfig()
        if backend is not None:
            # kwarg convenience: `connect(catalog, backend="bn")` routes
            # here; the config field stays the single source of truth
            self.config = _replace(self.config, backend=backend)
        self._statistics = statistics
        self._catalog = (
            statistics if isinstance(statistics, StatisticsCatalog) else None
        )
        self._error_function = error_function
        self.name = name
        self.database = self._resolve_database(statistics, database)
        #: SQL requests are parsed where they are submitted (the server's
        #: loop thread, or any caller's), a shape once: DESIGN.md §11
        self._sql = TemplateFrontEnd(self.database.schema)
        self._queue: AdmissionQueue[_Pending] = AdmissionQueue(
            self.config.queue_depth
        )
        self._closed = threading.Event()
        self._draining = threading.Event()
        self.metrics = MetricsRegistry()
        self._metrics_lock = threading.Lock()
        #: the instruments an answer on arrival counts in, looked up once,
        #: by the first such answer (the registry makes them then, as ever)
        self._arrival_instruments: tuple | None = None
        self._sessions: list[EstimationSession] = []
        #: telemetry of retired sessions, folded in at retirement so the
        #: session objects (and their pinned pools) can be released — see
        #: :meth:`_retire_session`
        self._retired_registry = MetricsRegistry()
        self._sessions_lock = threading.Lock()
        #: the plan cache of the pool sessions were last made over:
        #: replaced under ``_sessions_lock``, read without a lock
        self._plan_cache: PlanCache | None = None
        #: counts of the caches nothing holds any more (``_sessions_lock``)
        self._banked_plan_events = dict.fromkeys(_PLAN_EVENTS, 0)
        #: optional :class:`repro.obs.StalenessTracker` joined by the
        #: ingest pipeline (see :meth:`attach_staleness`); when present,
        #: worker sessions stamp answers with ``staleness_s`` provenance
        self.staleness_tracker = None
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"{name}-worker-{index}",
                daemon=True,
            )
            for index in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_database(statistics, database: Database | None) -> Database:
        if database is not None:
            return database
        resolved = getattr(statistics, "database", None)
        if resolved is None:
            raise ValueError(
                "a database is required (pass one explicitly, or serve "
                "from a catalog built with a database)"
            )
        return resolved

    def _target(self) -> tuple[SITPool, int]:
        """The pool and snapshot version a fresh session would pin, read
        without building a snapshot: a catalog's current pool and
        version are read together, under its lock; a bare pool is at
        version 0."""
        if self._catalog is not None:
            return self._catalog.current()
        pool, snapshot = resolve_statistics(self._statistics)
        return pool, snapshot.version if snapshot is not None else 0

    def _make_session(self) -> EstimationSession:
        """A fresh session pinned to the target snapshot.  It holds the
        current plan cache when that cache pins the same pool object (a
        notify keeps it); otherwise a fresh cache, which becomes current."""
        pool, snapshot = resolve_statistics(self._statistics)
        with self._sessions_lock:
            current = cache = self._plan_cache
            if cache is None or cache.pool is not pool:
                cache = PlanCache(pool)
            session = EstimationSession(
                snapshot if snapshot is not None else pool,
                self._error_function,
                database=self.database,
                backend=self.config.backend,
                plan_cache=cache,
            )
            session.staleness_tracker = self.staleness_tracker
            self._sessions.append(session)
            if session.plan_cache is cache and cache is not current:
                self._plan_cache = cache
                self._bank_if_released(current)
        return session

    def _bank_if_released(self, cache: PlanCache | None) -> None:
        """Bank a cache's counts once nothing holds it: no live session,
        and it is not current (so no session will be handed it again —
        only a session over another pool retires a cache).  Called under
        ``_sessions_lock``."""
        if (
            cache is None
            or cache is self._plan_cache
            or any(session.plan_cache is cache for session in self._sessions)
        ):
            return
        banked = self._banked_plan_events
        for key in _PLAN_EVENTS:
            banked[key] += getattr(cache, key)

    def _retire_session(self, session: EstimationSession) -> None:
        """Drop a session from rotation *and from memory*.

        Its lifetime telemetry is folded into ``_retired_registry`` so
        ``stats_snapshot`` keeps the totals, while the session object —
        and through it the pinned snapshot's pool, caches and memo — is
        released.  (Keeping retired session objects alive was the
        hot-swap leak: a long-running service accumulated every pool it
        had ever served.)
        """
        registry = session.metrics_registry()
        with self._sessions_lock:
            if session in self._sessions:
                self._sessions.remove(session)
                self._bank_if_released(session.plan_cache)
            self._retired_registry.merge(registry)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(
        self,
        query: "Query | PredicateSet | str",
        timeout: float | None = None,
    ) -> "Future[ServedEstimate]":
        """Admit one request; returns its future.

        Raises :class:`ServiceClosed` after :meth:`close`,
        :class:`InvalidRequest` on unparsable input and — the explicit
        load-shedding path — :class:`Overloaded` the moment the bounded
        queue is at depth.  Never blocks the caller on a full queue.
        """
        (outcome,) = self.submit_many(((query, timeout),))
        if isinstance(outcome, ServiceError):
            raise outcome
        return outcome

    def submit_many(
        self,
        requests: "Iterable[tuple[Query | PredicateSet | str, float | None]]",
    ) -> "list[Future[ServedEstimate] | ServiceError]":
        """Admit a group of ``(query, timeout)`` requests as one unit.

        Returns, per member and in order, its future — or the typed
        failure :meth:`submit` would have raised for it
        (:class:`InvalidRequest`, :class:`Overloaded`,
        :class:`ServiceClosed`), so one bad member costs the others
        nothing.  A member whose shape is in the current plan cache is
        answered here, on the calling thread, and its future is
        returned already resolved (``batch_size`` 1, never
        deduplicated, never shed).  The other admissible members enter
        the queue under one lock with one worker wake-up; when the
        queue cannot hold them all, the prefix that fits is admitted and
        the rest are shed.
        """
        outcomes: list = self.admit(requests)
        for index, outcome in enumerate(outcomes):
            if type(outcome) is ServedEstimate:
                future = Future()
                future.set_result(outcome)
                outcomes[index] = future
        return outcomes

    def admit(
        self,
        requests: "Iterable[tuple[Query | PredicateSet | str, float | None]]",
    ) -> "list[ServedEstimate | Future[ServedEstimate] | ServiceError]":
        """:meth:`submit_many` without the wrapping: a member answered
        on arrival comes back as its :class:`ServedEstimate` itself, not
        as a resolved future.  The TCP server's loop thread admits here
        and writes such a member's line at once, and :meth:`estimate` and
        the in-process client take such a member as it is (DESIGN.md
        §11).  A bare predicate set is probed before it is walked for
        its tables: a hit's are its plan's."""
        if self._closed.is_set() or self._draining.is_set():
            return [
                ServiceClosed(f"{self.name} is shutting down")
                for _ in requests
            ]
        sql = self._sql
        default_timeout = self.config.default_timeout_s
        cache, version = self._live_cache()
        # SQL goes from its literals to the plan whenever a cache is live
        scan_sql = cache is not None
        outcomes: "list[ServedEstimate | Future | ServiceError]" = []
        admissible: list[_Pending] = []
        #: ``outcomes`` index of every admissible member
        slots: list[int] = []
        #: latencies of the members answered on arrival
        arrived: list[float] = []
        for query, timeout in requests:
            hit = sql.scan(query) if scan_sql and type(query) is str else None
            if hit is not None:
                template, fingerprint, ordered = hit
                predicates, tables = None, template.tables
            else:
                try:
                    predicates, tables = coerce_query(query, sql)
                    if cache is not None:
                        fingerprint, ordered = walked(shape_fingerprint, predicates)
                except InvalidRequest as exc:
                    outcomes.append(exc)
                    continue
            now = time.monotonic()
            plan = cache.probe(fingerprint) if cache is not None else None
            if plan is not None:
                answer = self._answer_on_arrival(
                    plan, ordered, plan.tables if tables is None else tables,
                    cache, version, now,
                )
                outcomes.append(answer)
                arrived.append(answer.latency_ms)
                continue
            if predicates is None:  # a shape no worker has compiled
                predicates = scanned_predicates(template, ordered)
            elif tables is None:  # a bare set's, walked on a miss only
                try:
                    tables = walked(tables_of, predicates)
                except InvalidRequest as exc:
                    outcomes.append(exc)
                    continue
            if timeout is None:
                timeout = default_timeout
            pending = _Pending(
                predicates=predicates,
                tables=tables,
                future=Future(),
                submitted_at=now,
                deadline=None if timeout is None else now + timeout,
            )
            slots.append(len(outcomes))
            admissible.append(pending)
            outcomes.append(pending.future)
        if arrived:
            self._count_arrivals(arrived)
        if not admissible:
            return outcomes
        try:
            admitted = self._queue.offer_many(admissible)
        except RuntimeError:
            for slot in slots:
                outcomes[slot] = ServiceClosed(
                    f"{self.name} is shutting down"
                )
            return outcomes
        shed = len(admissible) - admitted
        with self._metrics_lock:
            if admitted:
                self.metrics.counter("service.submitted").inc(admitted)
            if shed:
                self.metrics.counter("service.shed_overload").inc(shed)
        for slot in slots[admitted:]:
            outcomes[slot] = Overloaded(
                f"queue at depth {self.config.queue_depth}; request shed"
            )
        return outcomes

    def _live_cache(self) -> tuple[PlanCache | None, int]:
        """The plan cache a hit may be answered from now, and the
        snapshot version such an answer carries: only one over the pool
        a worker should be on, so a refresh that published another pool
        is honoured (a pool version move is the cache's own probe to
        catch).  The version is read before any probe, so a probe racing
        a notify answers as of before it."""
        cache = self._plan_cache
        pool, version = self._target()
        if cache is None or cache.pool is not pool:
            return None, 0
        return cache, version

    def _answer_on_arrival(
        self, plan: CompiledPlan, ordered, tables: frozenset[str],
        cache: PlanCache, snapshot_version: int, submitted_at: float,
    ) -> ServedEstimate:
        """A hit replayed on the submitting thread (``ordered`` its
        predicates, or an SQL hit's scanned rows), with the staleness
        stamp a session gives its own replay: over the plan's tables,
        the ones ``stamp_staleness`` reads off the predicates.  The
        cardinality is over the request's ``tables``."""
        selectivity = plan.selectivity(ordered)
        staleness_s = None
        tracker = self.staleness_tracker
        if tracker is not None:  # as stamp_staleness
            try:
                staleness_s = tracker.staleness_for(plan.tables)
            except Exception:
                pass
        crosses = cache.crosses
        cross = crosses.get(tables)
        if cross is None:
            cross = crosses[tables] = self.database.cross_product_size(tables)
        latency_ms = (time.monotonic() - submitted_at) * 1000.0
        return ServedEstimate(
            selectivity, selectivity * cross, plan.error, snapshot_version,
            latency_ms, plan_cache_hit=True, staleness_s=staleness_s,
        )

    def _count_arrivals(self, latencies: list[float]) -> None:
        count = len(latencies)
        with self._metrics_lock:
            instruments = self._arrival_instruments
            if instruments is None:
                metrics = self.metrics
                instruments = self._arrival_instruments = (
                    metrics.counter("service.submitted"),
                    metrics.counter("service.served"),
                    metrics.counter("service.answered_on_arrival"),
                    metrics.histogram("service.latency_ms"),
                )
            submitted, served, answered_on_arrival, histogram = instruments
            submitted.inc(count)
            served.inc(count)
            answered_on_arrival.inc(count)
            for latency_ms in latencies:
                histogram.observe(latency_ms)

    def estimate(
        self,
        query: "Query | PredicateSet | str",
        timeout: float | None = None,
    ) -> ServedEstimate:
        """Blocking convenience: admit and wait for the answer.  A hit
        comes back from :meth:`admit` as its answer, with no future."""
        (outcome,) = self.admit(((query, timeout),))
        wait = None
        if timeout is not None:
            # request deadline plus service slack; the worker-side
            # deadline is what actually governs shedding
            wait = timeout + self.config.drain_timeout_s
        return settle(outcome, wait)

    def selectivity(self, query, timeout: float | None = None) -> float:
        return self.estimate(query, timeout=timeout).selectivity

    def cardinality(self, query, timeout: float | None = None) -> float:
        return self.estimate(query, timeout=timeout).cardinality

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        session: EstimationSession | None = None
        try:
            # a worker pins its session before its first batch arrives
            session = self._make_session()
        except Exception:
            pass  # the roll before the first batch pins again
        config = self.config
        while True:
            # whatever backed up while the last batch was being served
            # (a lone request is a batch of one): no timer, see DESIGN.md §11
            batch = self._queue.take_batch(config.max_batch)
            if not batch:
                if self._queue.closed:
                    if session is not None:
                        self._retire_session(session)
                    return
                continue
            try:
                session = self._roll_snapshot(session)
                self._serve_batch(session, batch)
            except BaseException as exc:
                # the one safety net: whatever escaped the ladder, the
                # roll or the batch fails this batch, typed, and the
                # worker serves on (a failed roll is retried next batch)
                for pending in batch:
                    if not pending.future.done():
                        pending.future.set_exception(
                            ServiceError(f"worker failure: {exc}")
                        )

    def attach_staleness(self, tracker) -> None:
        """Join a :class:`repro.obs.StalenessTracker` (fed by the ingest
        pipeline) so every answer carries ``staleness_s`` provenance for
        the tables it touched.  Live worker sessions pick the tracker up
        immediately; new sessions inherit it at construction.  Also
        forwarded to the serving catalog for ``status()`` reporting."""
        self.staleness_tracker = tracker
        with self._sessions_lock:
            sessions = list(self._sessions)
        for session in sessions:
            session.staleness_tracker = tracker
        if self._catalog is not None and hasattr(
            self._catalog, "attach_staleness"
        ):
            self._catalog.attach_staleness(tracker)

    def _roll_snapshot(
        self, session: EstimationSession | None
    ) -> EstimationSession:
        """Between batches: adopt the catalog's latest snapshot.

        In-flight work is untouched — the old session (and its pinned
        pool) stays fully usable; it is simply retired from rotation.
        A worker without a session (its pin failed) pins one here; when
        pinning raises, the old session stays in rotation.
        """
        if session is not None and (
            self._catalog is None
            or session.snapshot_version == self._catalog.version
        ):
            return session
        fresh = self._make_session()
        if session is not None:
            self._retire_session(session)
            with self._metrics_lock:
                self.metrics.counter("service.snapshot_swaps").inc()
        return fresh

    def _serve_batch(
        self, session: EstimationSession, batch: list[_Pending]
    ) -> None:
        session.assert_pinned()
        now = time.monotonic()
        batch_size = len(batch)

        # dedup identical predicate sets (one DP run serves them all,
        # each member scaled by its own FROM tables' cross product), then
        # hand the distinct sets to the session's batched path: one
        # owner-lock hold, each probed by *shape* and replayed from its
        # compiled plan on a hit (repro.core.plancache)
        served = 0
        shed_deadline = 0
        deduplicated = 0
        degraded = 0
        latencies: list[float] = []
        answers: list[tuple[_Pending, ServedEstimate]] = []
        snapshot_version = session.snapshot_version
        order: list[frozenset] = []
        live_groups: dict[frozenset, list[_Pending]] = {}
        for pending in batch:
            pending.batch_size = batch_size
            if pending.expired(now):
                shed_deadline += 1
                pending.future.set_exception(
                    DeadlineExceeded("deadline passed while queued; shedding")
                )
                continue
            members = live_groups.get(pending.predicates)
            if members is None:
                order.append(pending.predicates)
                live_groups[pending.predicates] = [pending]
            else:
                members.append(pending)
        results: "list | None" = None
        if order:
            try:
                results = session.estimate_batch(order)
            except Exception as exc:
                for members in live_groups.values():
                    for pending in members:
                        pending.future.set_exception(
                            ServiceError(f"estimation failed: {exc}")
                        )
        for predicates, result in zip(order, results or ()):
            live = live_groups[predicates]
            if result.degradation_level:
                degraded += len(live)
            done = time.monotonic()
            for index, pending in enumerate(live):
                latency_ms = (done - pending.submitted_at) * 1000.0
                cross = self.database.cross_product_size(pending.tables)
                answer = ServedEstimate(
                    result.selectivity, result.selectivity * cross, result.error,
                    snapshot_version, latency_ms, batch_size, index > 0,
                    result.degradation_level, result.plan_cache_hit,
                    result.backend, result.error_bound, result.staleness_s)
                if index > 0:
                    deduplicated += 1
                served += 1
                latencies.append(latency_ms)
                answers.append((pending, answer))

        # counters, then futures: a client that reads stats right after
        # its answer arrives must see that answer counted (a plan this
        # batch compiled is in the shared cache already, so the caller's
        # next request of its shape is answered on arrival)
        with self._metrics_lock:
            metrics = self.metrics
            latency_histogram = metrics.histogram("service.latency_ms")
            for latency_ms in latencies:
                latency_histogram.observe(latency_ms)
            metrics.counter("service.batches").inc()
            metrics.counter("service.batched_requests").inc(batch_size)
            metrics.counter("service.served").inc(served)
            metrics.counter("service.deduplicated").inc(deduplicated)
            if degraded:
                metrics.counter("service.degraded").inc(degraded)
            if shed_deadline:
                metrics.counter("service.shed_deadline").inc(shed_deadline)
            metrics.histogram("service.batch_size").observe(batch_size)
        for pending, answer in answers:
            pending.future.set_result(answer)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def close(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Stop admission and shut the pool down.

        With ``drain=True`` (default) every already-admitted request is
        still served (or deadline-shed) before the workers exit; with
        ``drain=False`` the backlog is flushed immediately with
        :class:`ServiceClosed`.  Returns ``True`` on a clean shutdown
        within the timeout.  Idempotent.
        """
        if self._closed.is_set():
            return True
        timeout = timeout if timeout is not None else self.config.drain_timeout_s
        self._draining.set()
        clean = True
        if drain:
            clean = self._queue.wait_empty(timeout=timeout)
        self._queue.close()
        if not drain or not clean:
            for pending in self._queue.drain():
                if not pending.future.done():
                    pending.future.set_exception(
                        ServiceClosed("service closed before serving")
                    )
        for worker in self._workers:
            worker.join(timeout=timeout)
            clean = clean and not worker.is_alive()
        self._closed.set()
        return clean

    def __enter__(self) -> "EstimationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def metrics_registry(self) -> MetricsRegistry:
        """Service counters plus the merged telemetry of every session
        the pool has used (active and retired)."""
        registry = MetricsRegistry()
        with self._metrics_lock:
            registry.merge(self.metrics)
        registry.gauge("service.queue_depth").set(float(len(self._queue)))
        alive = sum(1 for worker in self._workers if worker.is_alive())
        registry.gauge("service.workers").set(float(alive))
        with self._sessions_lock:
            sessions = list(self._sessions)
            registry.merge(self._retired_registry)
            current = self._plan_cache
            banked = dict(self._banked_plan_events)
        held = (current, *(session.plan_cache for session in sessions))
        caches = {id(cache): cache for cache in held if cache is not None}
        for session in sessions:
            registry.merge(session.metrics_registry())
        if caches or any(banked.values()):
            self._fold_plan_cache(registry, caches.values(), banked)
        return registry

    @staticmethod
    def _fold_plan_cache(
        registry: MetricsRegistry,
        caches: Iterable[PlanCache],
        banked: dict[str, int],
    ) -> None:
        """The service's ``plan_cache`` block.  Sessions report their
        cache's counts as gauges, which a merge overwrites, so the block
        is summed over the distinct live caches (the current one and any
        a session still holds) — ``plans`` and ``bytes`` are theirs —
        plus, for the event counts, the banked ones: lifetime totals that
        never drop
        when a refresh retires a cache.  A hit answered on arrival
        (``service.answered_on_arrival``) is one no cache counted."""
        totals = dict(banked, plans=0, bytes=0)
        for cache in caches:
            for key in _PLAN_EVENTS:
                totals[key] += getattr(cache, key)
            totals["plans"] += len(cache)
            totals["bytes"] += cache.bytes
        totals["hits"] += registry.counter("service.answered_on_arrival").value
        lookups = totals["hits"] + totals["misses"]
        totals["hit_rate"] = totals["hits"] / lookups if lookups else 0.0
        for key, value in totals.items():
            registry.gauge(f"plan_cache.{key}").set(value)

    def stats_snapshot(self) -> StatsSnapshot:
        """The unified snapshot: request-path state under ``service``,
        worker-session cache/catalog telemetry under the usual
        namespaces."""
        return StatsSnapshot.from_registry(
            self.metrics_registry(),
            meta={
                "subsystem": "service",
                "name": self.name,
                "workers": len(self._workers),
                "queue_depth_limit": self.config.queue_depth,
                "max_batch": self.config.max_batch,
            },
        )


__all__ = ["EstimationService"]
