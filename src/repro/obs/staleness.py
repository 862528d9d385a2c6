"""Staleness accounting for streaming ingestion.

When base tables churn while the stack serves, the question that decides
whether an answer can be trusted is **how old the serving snapshot is**.
:class:`StalenessTracker` keeps, per table, the admission times of every
*acked but not yet applied* write.  ``staleness_s(table)`` is the age of
the oldest such write — zero once the serving snapshot has absorbed
every acked write for the table.  The ingest pipeline
(:mod:`repro.ingest`) feeds the tracker: :meth:`note_write` on admission
(*before* the event becomes visible to the apply loop, so apply can
never race ahead of the ack), :meth:`retract_write` when bounded
admission sheds the event after all, and :meth:`note_applied` when a
coalesced invalidation epoch lands on the catalog's ``notify_table_update`` path.  The pending set
is exact, and bounded by the pipeline's admission depth.

The tracker is thread-safe and clock-injectable (tests pass a fake
monotonic clock).  Its :meth:`metrics` gauges join the ``ingest``
:class:`~repro.obs.snapshot.StatsSnapshot` namespace through the ingest
pipeline's registry; :meth:`status` is the per-table block ``catalog
status`` prints.
"""

from __future__ import annotations

import bisect
import threading
import time
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
    """Per-table serving-snapshot staleness."""

    def __init__(self, *, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._lock = threading.Lock()
        self._tables: dict[str, _TableState] = {}

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

    # -- surfacing --------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """The ``ingest`` namespace gauges this tracker contributes."""
        return {
            "tables_pending": float(self.tables_pending()),
            "staleness_s_max": self.max_staleness_s(),
        }

    def status(self) -> dict[str, object]:
        """Compact block for ``catalog status``: the pending-table count,
        the worst age, and per table (sorted) its writes, applied epochs
        and the age of its oldest pending write."""
        now = self._clock()
        with self._lock:
            tables = {}
            pending = 0
            worst = 0.0
            for table, state in sorted(self._tables.items()):
                age = 0.0
                if state.pending:
                    pending += 1
                    age = max(0.0, now - state.pending[0])
                    worst = max(worst, age)
                tables[table] = {
                    "writes": state.writes,
                    "applied_epochs": state.applied,
                    "staleness_s": round(age, 6),
                }
        return {
            "tables_pending": pending,
            "staleness_s_max": round(worst, 6),
            "tables": tables,
        }
