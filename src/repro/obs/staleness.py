"""Staleness and drift accounting for streaming ingestion.

When base tables churn while the stack serves, two questions decide
whether an answer can be trusted:

* **How old is the serving snapshot?**  :class:`StalenessTracker` keeps,
  per table, the admission times of every *acked but not yet applied*
  write.  ``staleness_s(table)`` is the age of the oldest such write —
  zero once the serving snapshot has absorbed every acked write for the
  table.  The ingest pipeline (:mod:`repro.ingest`) feeds the tracker:
  :meth:`note_write` on admission (*before* the event becomes visible to
  the apply loop, so apply can never race ahead of the ack),
  :meth:`retract_write` when bounded admission sheds the event after
  all, and :meth:`note_applied` when a coalesced invalidation epoch
  lands on the catalog's ``notify_table_update`` path.  The pending set
  is exact, and bounded by the pipeline's admission depth.
* **How wrong are served estimates while stale?**  ``staleness_s`` is an
  upper bound on *exposure*, not on *error* — a table can churn without
  moving any histogram.  :meth:`record_drift` therefore accumulates
  *measured* drift: on a sampled sub-stream of applied epochs the
  pipeline re-estimates a probe query against fresh engine (or
  guaranteed-sample) truth and records the q-error between the served
  estimate and that truth.  ``drift_quantile`` exposes p50/p95 over a
  bounded rolling window.

The tracker is thread-safe and clock-injectable (tests pass a fake
monotonic clock).  Its :meth:`metrics` form is the source of the
``ingest`` :class:`~repro.obs.snapshot.StatsSnapshot` namespace;
:meth:`status` is the compact block ``catalog status`` prints.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import deque
from typing import Callable, Iterable

__all__ = ["StalenessTracker"]


class _TableState:
    __slots__ = ("pending", "writes", "applied")

    def __init__(self) -> None:
        #: sorted admission times of acked-but-unapplied writes
        self.pending: list[float] = []
        self.writes = 0
        self.applied = 0


class StalenessTracker:
    """Per-table serving-snapshot staleness plus measured estimate drift."""

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.monotonic,
        drift_window: int = 256,
    ):
        if drift_window < 1:
            raise ValueError("drift_window must be >= 1")
        self._clock = clock
        self._lock = threading.Lock()
        self._tables: dict[str, _TableState] = {}
        self._drift: deque[float] = deque(maxlen=int(drift_window))
        self._drift_probes = 0

    # -- write/apply bookkeeping ----------------------------------------
    def note_write(self, table: str, when: float | None = None) -> float:
        """Record one acked write for ``table``; returns its admission time."""
        when = self._clock() if when is None else float(when)
        with self._lock:
            state = self._tables.setdefault(table, _TableState())
            state.writes += 1
            bisect.insort(state.pending, when)
        return when

    def retract_write(self, table: str, when: float) -> None:
        """Un-record a write that was shed after :meth:`note_write`
        (bounded admission refused it, so it was never acked)."""
        with self._lock:
            state = self._tables.get(table)
            if state is None:
                return
            index = bisect.bisect_left(state.pending, when)
            if index < len(state.pending) and state.pending[index] == when:
                state.pending.pop(index)
                state.writes -= 1

    def note_applied(self, table: str, through: float) -> None:
        """The serving snapshot now reflects every acked write for
        ``table`` admitted at or before ``through``."""
        with self._lock:
            state = self._tables.get(table)
            if state is None:
                return
            state.applied += 1
            cut = bisect.bisect_right(state.pending, through)
            if cut:
                del state.pending[:cut]

    # -- staleness gauges -----------------------------------------------
    def staleness_s(self, table: str) -> float:
        """Age of the oldest acked write the snapshot does not reflect."""
        now = self._clock()
        with self._lock:
            state = self._tables.get(table)
            if state is None or not state.pending:
                return 0.0
            return max(0.0, now - state.pending[0])

    def staleness_for(self, tables: Iterable[str]) -> float:
        """Worst-case staleness over ``tables`` (answer provenance)."""
        now = self._clock()
        worst = 0.0
        with self._lock:
            for table in tables:
                state = self._tables.get(table)
                if state is None or not state.pending:
                    continue
                worst = max(worst, now - state.pending[0])
        return worst

    def max_staleness_s(self) -> float:
        now = self._clock()
        with self._lock:
            oldest = [
                s.pending[0] for s in self._tables.values() if s.pending
            ]
        if not oldest:
            return 0.0
        return max(0.0, now - min(oldest))

    def tables_pending(self) -> int:
        with self._lock:
            return sum(1 for s in self._tables.values() if s.pending)

    def quiesced(self) -> bool:
        """True when no table has an acked-but-unapplied write."""
        return self.tables_pending() == 0

    # -- measured drift --------------------------------------------------
    def record_drift(self, q_error: float) -> None:
        """Record one probe measurement (q-error ≥ 1 between the served
        estimate and fresh truth on the sampled sub-stream)."""
        value = max(1.0, float(q_error))
        with self._lock:
            self._drift.append(value)
            self._drift_probes += 1

    def drift_quantile(self, q: float) -> float:
        """Rolling-window drift quantile; 1.0 (no drift) when unprobed."""
        with self._lock:
            window = sorted(self._drift)
        if not window:
            return 1.0
        index = min(len(window) - 1, int(q * len(window)))
        return window[index]

    @property
    def drift_probes(self) -> int:
        with self._lock:
            return self._drift_probes

    # -- surfacing --------------------------------------------------------
    def _survey(self):
        """One pass over the tables under the lock, which both
        :meth:`metrics` and :meth:`status` read: per table (sorted) its
        ``(writes, applied epochs, age of its oldest pending write)``,
        then the pending-table count, the worst age, the drift probes
        and the sorted drift window."""
        now = self._clock()
        with self._lock:
            tables: dict[str, tuple[int, int, float]] = {}
            pending = 0
            worst = 0.0
            for table, state in sorted(self._tables.items()):
                age = 0.0
                if state.pending:
                    pending += 1
                    age = max(0.0, now - state.pending[0])
                    worst = max(worst, age)
                tables[table] = (state.writes, state.applied, age)
            return tables, pending, worst, self._drift_probes, sorted(self._drift)

    def metrics(self) -> dict[str, float]:
        """The ``ingest`` namespace entries this tracker contributes."""
        tables, pending, worst, probes, window = self._survey()
        out: dict[str, float] = {
            "tables_tracked": float(len(tables)),
            "drift_probes": float(probes),
        }
        for table, (_, _, age) in tables.items():
            out[f"staleness_s.{table}"] = age
        out["tables_pending"] = float(pending)
        out["staleness_s_max"] = worst
        if window:
            for q, key in ((0.5, "drift_q_error_p50"), (0.95, "drift_q_error_p95")):
                index = min(len(window) - 1, int(q * len(window)))
                out[key] = window[index]
        return out

    def status(self) -> dict[str, object]:
        """Compact block for ``catalog status`` / the service status view."""
        tables, pending, worst, probes, window = self._survey()
        out: dict[str, object] = {
            "tables_pending": pending,
            "staleness_s_max": round(worst, 6),
            "drift_probes": probes,
            "tables": {
                table: {
                    "writes": writes,
                    "applied_epochs": applied,
                    "staleness_s": round(age, 6),
                }
                for table, (writes, applied, age) in tables.items()
            },
        }
        if window:
            index = min(len(window) - 1, int(0.95 * len(window)))
            out["drift_q_error_p95"] = round(window[index], 6)
        return out
