"""The streaming-ingestion pipeline: update storms → invalidation epochs.

SITs are statistics *on query expressions* (Bruno & Chaudhuri, SIGMOD
2004), so one base-table update can stale a whole fan-out of derived
histograms, compiled plans, BN models and sample reservoirs.  The
:class:`IngestPipeline` is the choke point that makes continuous writes
survivable while the stack serves:

* **One invalidation path.**  Every accepted event ultimately drives the
  target's single ``notify_table_update`` — the same path hot swap
  and plan-cache coherence already ride on.  The target duck-types: a
  :class:`repro.catalog.StatisticsCatalog`, an
  :class:`repro.service.EstimationService`'s catalog or any
  :class:`repro.estimators.Estimator` works.
* **Coalescing.**  N rapid updates to one table collapse into one
  *invalidation epoch* (one ``notify_table_update`` call) per drain
  cycle.  Invalidation cost is per-*epoch*, not per-*event*, so a storm
  of writes to a hot table cannot amplify into a storm of pool
  invalidations.
* **Bounded admission with typed backpressure.**  :meth:`submit` never
  blocks and never buffers beyond ``IngestConfig.queue_depth``; at depth
  it sheds with :class:`IngestOverloaded` — the same shed-on-full
  contract (and ``overloaded`` wire status) the serving layer's
  admission queue speaks, so producers handle one vocabulary.
* **No lost invalidations.**  A fault injected at the ``ingest_apply``
  point (:data:`repro.resilience.POINT_INGEST_APPLY`) is retried up to
  ``IngestConfig.apply_retries`` times per cycle and the epoch is then
  *re-queued* into the next cycle, never dropped: acked writes are
  eventually applied or the pipeline reports them as pending staleness.
* **Staleness + drift accounting.**  Every admission/apply is mirrored
  into a :class:`repro.obs.StalenessTracker`; an optional
  :class:`EstimateDriftProbe` measures served-estimate drift against
  fresh truth on a sampled sub-stream of applied epochs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol, Sequence, runtime_checkable

from repro.ingest.config import IngestConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.snapshot import StatsSnapshot
from repro.obs.staleness import StalenessTracker
from repro.resilience.faults import POINT_INGEST_APPLY, active
from repro.service.protocol import Overloaded
from repro.service.queue import AdmissionQueue

__all__ = [
    "EstimateDriftProbe",
    "IngestOverloaded",
    "IngestPipeline",
    "TableUpdate",
]


class IngestOverloaded(Overloaded):
    """The ingest admission queue is at depth: shed this write now.

    Subclasses the serving layer's typed :class:`Overloaded`, so
    producers that already speak the service's shed-on-full contract
    (retry with backoff, or drop and re-source) need no new handling —
    and the wire status stays ``overloaded``.
    """


@runtime_checkable
class _Invalidatable(Protocol):
    def notify_table_update(self, table: str) -> int: ...


@dataclass(frozen=True)
class TableUpdate:
    """One acked table-update event flowing through the pipeline."""

    table: str
    #: advisory row delta (observability only; the catalog invalidates
    #: by identity, not by magnitude)
    rows_delta: int = 0
    #: admission timestamp (pipeline clock), stamped by :meth:`submit`
    admitted_s: float = field(default=0.0, compare=False)


class _Epoch:
    """Coalesced pending work for one table inside one drain cycle."""

    __slots__ = ("events", "newest")

    def __init__(self) -> None:
        self.events = 0
        self.newest = 0.0

    def fold(self, count: int, newest: float) -> None:
        self.events += count
        if newest > self.newest:
            self.newest = newest


class IngestPipeline:
    """Bounded, coalescing bridge from update events to invalidations."""

    def __init__(
        self,
        target: _Invalidatable,
        *,
        config: IngestConfig | None = None,
        tracker: StalenessTracker | None = None,
        drift_probe: "Callable[[], float | None] | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not hasattr(target, "notify_table_update"):
            raise TypeError(
                "ingest target must expose notify_table_update(table)"
            )
        self.target = target
        self.config = config or IngestConfig()
        self.tracker = tracker or StalenessTracker(clock=clock)
        self.drift_probe = drift_probe
        self._clock = clock
        self._queue: AdmissionQueue[TableUpdate] = AdmissionQueue(
            self.config.queue_depth
        )
        self._metrics = MetricsRegistry()
        #: epochs that exhausted their per-cycle retries, merged into the
        #: next drain cycle (never dropped)
        self._retry: dict[str, _Epoch] = {}
        #: events the apply loop has taken off the queue, and how many of
        #: them (in admission order) are known applied: every one taken
        #: before a cycle that ended with no epoch carried
        self._taken = 0
        self._applied_through = 0
        self._state_lock = threading.Lock()
        self._idle = threading.Condition(self._state_lock)
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="ingest-apply", daemon=True
        )
        self._thread.start()

    # -- producer side ---------------------------------------------------
    def submit(self, table: str, rows_delta: int = 0) -> TableUpdate:
        """Admit one update event; the returned event carries its acked
        admission time.  Raises :class:`IngestOverloaded` at depth."""
        if self._closed:
            raise RuntimeError("ingest pipeline is closed")
        name = str(table)
        # ack the write in the tracker BEFORE it becomes visible to the
        # apply loop, so note_applied can never race ahead of note_write
        # for the same event; a shed retracts the ack
        when = self.tracker.note_write(name)
        event = TableUpdate(
            table=name, rows_delta=int(rows_delta), admitted_s=when
        )
        if not self._queue.offer(event):
            self.tracker.retract_write(name, when)
            self._metrics.counter("ingest.shed").inc()
            raise IngestOverloaded(
                f"ingest queue full (depth {self.config.queue_depth}); "
                f"shed update for table {table!r}"
            )
        self._metrics.counter("ingest.events").inc()
        return event

    def submit_many(self, tables: Iterable[str]) -> int:
        """Admit a burst; returns how many were accepted before the first
        shed (the remainder raises through)."""
        accepted = 0
        for table in tables:
            self.submit(table)
            accepted += 1
        return accepted

    # -- apply loop --------------------------------------------------------
    def _run(self) -> None:
        cfg = self.config
        while True:
            if self._retry:
                # a carried epoch must not wait for fresh traffic: back
                # off briefly, fold in whatever arrived meanwhile, retry
                time.sleep(max(cfg.coalesce_window_s, 0.001))
                batch = self._queue.drain()
            else:
                batch = self._queue.take_batch(
                    cfg.max_batch, cfg.coalesce_window_s
                )
                if not batch and self._queue.closed:
                    return
            self._taken += len(batch)
            try:
                self._apply_cycle(batch)
            finally:
                with self._state_lock:
                    if not self._retry:
                        self._applied_through = self._taken
                    self._idle.notify_all()

    def _apply_cycle(self, batch: Sequence[TableUpdate]) -> None:
        epochs: dict[str, _Epoch] = {}
        for table, carried in self._retry.items():
            epochs.setdefault(table, _Epoch()).fold(
                carried.events, carried.newest
            )
        self._retry.clear()
        for event in batch:
            epochs.setdefault(event.table, _Epoch()).fold(
                1, event.admitted_s
            )
        for table in sorted(epochs):
            self._apply_epoch(table, epochs[table])
        if epochs:
            self._maybe_probe()

    def _apply_epoch(self, table: str, epoch: _Epoch) -> None:
        metrics = self._metrics
        for attempt in range(self.config.apply_retries):
            try:
                plan = active()
                if plan is not None:
                    plan.check(
                        POINT_INGEST_APPLY,
                        detail=f"table={table} attempt={attempt}",
                    )
                self.target.notify_table_update(table)
            except Exception:
                metrics.counter("ingest.apply_faults").inc()
                if attempt + 1 < self.config.apply_retries:
                    metrics.counter("ingest.apply_retries").inc()
                continue
            self.tracker.note_applied(table, through=epoch.newest)
            metrics.counter("ingest.epochs_applied").inc()
            metrics.counter("ingest.events_applied").inc(epoch.events)
            if epoch.events > 1:
                metrics.counter("ingest.coalesced_events").inc(
                    epoch.events - 1
                )
            return
        # retries exhausted this cycle: carry the epoch forward
        self._retry.setdefault(table, _Epoch()).fold(
            epoch.events, epoch.newest
        )
        metrics.counter("ingest.epoch_requeues").inc()

    def _maybe_probe(self) -> None:
        every = self.config.drift_every
        if self.drift_probe is None or every <= 0:
            return
        applied = self._metrics.counter("ingest.epochs_applied").value
        probed = self._metrics.counter("ingest.drift_probes").value
        if applied < (probed + 1) * every:
            return
        try:
            q_error = self.drift_probe()
        except Exception:
            self._metrics.counter("ingest.drift_probe_errors").inc()
            return
        self._metrics.counter("ingest.drift_probes").inc()
        if q_error is not None:
            self.tracker.record_drift(q_error)

    # -- drain / shutdown --------------------------------------------------
    def flush(self, timeout: float = 10.0) -> bool:
        """Apply now, and block until every event acked before the call
        has been applied (none left queued or carried in a re-queued
        epoch).  The apply loop's coalesce window ends as soon as it
        has taken those events; events submitted meanwhile ride along
        or wait for the next cycle.  True on success."""
        target = self._queue.flush_target()
        with self._idle:
            return self._idle.wait_for(
                lambda: self._applied_through >= target, timeout
            )

    def quiesce(self, timeout: float = 10.0) -> bool:
        """Alias of :meth:`flush` — after it returns ``True`` the
        serving snapshot reflects every acked write, which is when the
        smoke suite's bit-identical gate runs."""
        return self.flush(timeout)

    def close(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop admission; by default apply everything already acked."""
        if self._closed:
            return
        self._closed = True
        if not drain:
            dropped = self._queue.drain()
            if dropped:
                self._metrics.counter("ingest.dropped").inc(len(dropped))
        self._queue.close()
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "IngestPipeline":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- observability -----------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def queue_depth(self) -> int:
        return len(self._queue)

    def metrics_registry(self) -> MetricsRegistry:
        """Counters plus the tracker's gauges, as one registry."""
        merged = MetricsRegistry()
        merged.merge(self._metrics)
        events = merged.counter("ingest.events_applied").value
        epochs = merged.counter("ingest.epochs_applied").value
        if epochs:
            merged.gauge("ingest.coalesce_ratio").set(events / epochs)
        merged.gauge("ingest.queue_depth").set(float(len(self._queue)))
        for name, value in self.tracker.metrics().items():
            try:
                merged.gauge(f"ingest.{name}").set(float(value))
            except TypeError:
                # the pipeline already counts this (e.g. drift_probes);
                # the counter is authoritative in the merged view
                continue
        return merged

    def stats_snapshot(self) -> StatsSnapshot:
        return StatsSnapshot.from_registry(
            self.metrics_registry(), meta={"producer": "ingest_pipeline"}
        )

    def status(self) -> dict[str, object]:
        """Compact operational view (mirrors ``catalog status``)."""
        snap = self.stats_snapshot().ingest
        out = {k: v for k, v in snap.items() if not k.startswith("staleness_s.")}
        out["staleness"] = self.tracker.status()
        return out


class EstimateDriftProbe:
    """Measured drift on a sampled sub-stream: served estimate vs. truth.

    ``estimate`` answers with the *served* cardinality (a pinned
    session, a service client, a ``connect()`` handle — anything
    still serving the possibly-stale snapshot); ``truth`` answers with
    fresh ground truth (an :class:`repro.engine.Executor` over live
    data, or a freshly-redrawn guaranteed-sample estimate whose
    distribution-free bound makes it a principled yardstick).  Each
    :meth:`__call__` probes the next query round-robin and returns the
    q-error between the two answers.
    """

    def __init__(
        self,
        estimate: Callable[[object], float],
        truth: Callable[[object], float],
        queries: Sequence[object],
    ):
        if not queries:
            raise ValueError("drift probe needs at least one query")
        self._estimate = estimate
        self._truth = truth
        self._queries = list(queries)
        self._next = 0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            query = self._queries[self._next % len(self._queries)]
            self._next += 1
        served = float(self._estimate(query))
        fresh = float(self._truth(query))
        eps = 1e-9
        high = max(served, fresh) + eps
        low = min(served, fresh) + eps
        return high / low
