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
* **No lost invalidations.**  Each epoch's ``notify_table_update`` runs
  once, and an event counts as applied only after the cycle that took
  it has returned: :meth:`flush` waits on exactly that, and until then
  the tracker reports the write as pending staleness.  A target whose
  ``notify_table_update`` raises stops the apply thread, its cycle still
  pending: :meth:`submit` then raises rather than ack a write nothing
  will apply, and :meth:`flush` returns ``False`` at once.
* **Staleness accounting.**  Every admission/apply is mirrored into a
  :class:`repro.obs.StalenessTracker`, whose gauges this pipeline's
  :meth:`IngestPipeline.metrics_registry` alone exports.
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
from repro.service.protocol import Overloaded
from repro.service.queue import AdmissionQueue

__all__ = [
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
        clock: Callable[[], float] = time.monotonic,
    ):
        if not hasattr(target, "notify_table_update"):
            raise TypeError(
                "ingest target must expose notify_table_update(table)"
            )
        self.target = target
        self.config = config or IngestConfig()
        self.tracker = tracker or StalenessTracker(clock=clock)
        self._queue: AdmissionQueue[TableUpdate] = AdmissionQueue(
            self.config.queue_depth
        )
        # every counter exists from here on, so the registry never grows
        # while a snapshot merges it
        self._metrics = MetricsRegistry()
        self._events = self._metrics.counter("ingest.events")
        self._shed = self._metrics.counter("ingest.shed")
        self._epochs_applied = self._metrics.counter("ingest.epochs_applied")
        self._events_applied = self._metrics.counter("ingest.events_applied")
        #: events (in admission order) the apply loop has applied
        self._applied_through = 0
        self._state_lock = threading.Lock()
        self._idle = threading.Condition(self._state_lock)
        self._closed = False
        self._failure: Exception | None = None  # what stopped the apply thread
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
        if self._failure is not None:
            raise RuntimeError("ingest pipeline stopped") from self._failure
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
            self._shed.inc()
            raise IngestOverloaded(
                f"ingest queue full (depth {self.config.queue_depth}); "
                f"shed update for table {table!r}"
            )
        self._events.inc()
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
            batch = self._queue.take_batch(cfg.max_batch, cfg.coalesce_window_s)
            if not batch and self._queue.closed:
                return
            try:
                self._apply_cycle(batch)
            except Exception as exc:
                with self._state_lock:
                    self._failure = exc
                    self._idle.notify_all()
                return
            with self._state_lock:
                self._applied_through += len(batch)
                self._idle.notify_all()

    def _apply_cycle(self, batch: Sequence[TableUpdate]) -> None:
        epochs: dict[str, _Epoch] = {}
        for event in batch:
            epochs.setdefault(event.table, _Epoch()).fold(
                1, event.admitted_s
            )
        for table in sorted(epochs):
            self._apply_epoch(table, epochs[table])

    def _apply_epoch(self, table: str, epoch: _Epoch) -> None:
        self.target.notify_table_update(table)
        self.tracker.note_applied(table, through=epoch.newest)
        self._epochs_applied.inc()
        self._events_applied.inc(epoch.events)

    # -- drain / shutdown --------------------------------------------------
    def flush(self, timeout: float = 10.0) -> bool:
        """Apply now, and block until every event acked before the call
        has been applied (none left queued or mid-cycle).  The apply
        loop's coalesce window ends as soon as it has taken those events;
        events submitted meanwhile ride along or wait for the next cycle.
        True on success; ``False`` once an apply has raised."""
        target = self._queue.flush_target()
        with self._idle:
            self._idle.wait_for(
                lambda: self._applied_through >= target or self._failure, timeout
            )
            return self._applied_through >= target

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
            self._queue.drain()
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

    def metrics_registry(self) -> MetricsRegistry:
        """Counters plus the tracker's gauges, as one registry: the one
        producer of the ``ingest`` namespace."""
        merged = MetricsRegistry()
        merged.merge(self._metrics)
        epochs = self._epochs_applied.value
        if epochs:
            merged.gauge("ingest.coalesce_ratio").set(
                self._events_applied.value / epochs
            )
        for name, value in self.tracker.metrics().items():
            merged.gauge(f"ingest.{name}").set(value)
        return merged

    def stats_snapshot(self) -> StatsSnapshot:
        return StatsSnapshot.from_registry(
            self.metrics_registry(), meta={"producer": "ingest_pipeline"}
        )

