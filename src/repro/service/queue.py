"""The bounded admission queue feeding the worker pool.

``queue.Queue`` cannot express the two things the serving layer needs —
*reject-don't-block* admission and *coalescing* batch pops — so this is
a small condition-variable queue purpose-built for them:

* :meth:`offer` is non-blocking admission control: it returns ``False``
  the instant the queue is at depth (the caller sheds with a typed
  ``Overloaded``), never buffering beyond the bound;
  :meth:`offer_many` admits a whole group under one lock with one
  wake-up — the prefix that fits, never beyond depth;
* :meth:`take_batch` blocks until at least one item arrives and returns
  everything queued (bounded by ``max_batch``).  The estimation service
  calls it exactly so: its worker never waits on a timer while it is
  free, and a micro-batch is whatever backed up while the previous one
  was being served.  The optional ``window_s`` linger is for the ingest
  pipeline, whose coalesce window exists *to* wait — until a
  :meth:`flush_target` cuts it short for the items admitted before it;
* :meth:`wait_empty` is the graceful-drain barrier: a take that
  empties the queue wakes it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from itertools import islice
from typing import Generic, Sequence, TypeVar

T = TypeVar("T")


class AdmissionQueue(Generic[T]):
    """Bounded MPMC queue with shed-on-full and batch dequeue."""

    def __init__(self, depth: int):
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.depth = depth
        self._items: deque[T] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        #: notified by a take that empties the queue while a
        #: :meth:`wait_empty` caller is parked (``_empty_waiters``)
        self._emptied = threading.Condition(self._lock)
        self._empty_waiters = 0
        self._closed = False
        #: items ever admitted; ``_admitted - len(_items)`` were taken
        self._admitted = 0
        #: ``_admitted`` when the last flush was asked for
        self._flush_at = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    def offer(self, item: T) -> bool:
        """Admit ``item`` unless the queue is full or closed.

        Returns ``True`` on admission; ``False`` means *shed now* (the
        queue never blocks a producer and never exceeds its depth).
        Raises ``RuntimeError`` when closed — producers should have
        stopped already.
        """
        return self.offer_many((item,)) == 1

    def offer_many(self, items: Sequence[T]) -> int:
        """Admit the prefix of ``items`` that fits; returns its length.

        One lock acquisition and one wake-up for the whole group: the
        consumer that wakes finds all of it (and wakes the next one if
        it leaves any behind, see :meth:`take_batch`).  ``items[n:]``
        are *shed now*, as :meth:`offer` would have shed each of them.
        Raises ``RuntimeError`` when closed, admitting nothing.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("queue is closed")
            admitted = min(len(items), self.depth - len(self._items))
            if admitted:
                self._items.extend(islice(items, admitted))
                self._admitted += admitted
                self._not_empty.notify()
            return admitted

    def flush_target(self) -> int:
        """Ask a lingering :meth:`take_batch` to stop waiting once it has
        taken every item admitted so far; returns that count (items are
        numbered in admission order, from 1).

        A target, not a flag: a linger whose batch began at or past it
        — the next burst's — keeps its whole window."""
        with self._lock:
            self._flush_at = self._admitted
            self._not_empty.notify_all()
            return self._flush_at

    def take_batch(
        self,
        max_batch: int,
        window_s: float = 0.0,
        poll_s: float = 0.05,
    ) -> list[T]:
        """Dequeue one micro-batch.

        Blocks (in ``poll_s`` slices, so closing wakes us promptly)
        until at least one item is available and takes what is queued,
        up to ``max_batch`` items; with a ``window_s`` it then keeps
        coalescing arrivals for that long, or until it has taken every
        item a :meth:`flush_target` asked for.  Returns ``[]`` only when
        the queue is closed *and* drained.
        """
        batch: list[T] = []
        with self._not_empty:
            while not self._items:
                if self._closed:
                    return batch
                self._not_empty.wait(timeout=poll_s)
            taken_before = self._admitted - len(self._items)
            while self._items and len(batch) < max_batch:
                batch.append(self._items.popleft())
            if self._items:
                # a group larger than one batch was admitted with one
                # wake-up: pass it on to the next free consumer
                self._not_empty.notify()
            elif self._empty_waiters:
                self._emptied.notify_all()
        if window_s <= 0 or len(batch) >= max_batch:
            return batch
        # linger: coalesce stragglers into the same batch, until the
        # window closes or every item a flush waits for is taken
        deadline = time.monotonic() + window_s
        while len(batch) < max_batch:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            with self._not_empty:
                flush_at = self._flush_at
                if (
                    flush_at > taken_before
                    and self._admitted - len(self._items) >= flush_at
                ):
                    break
                if not self._items:
                    if self._closed:
                        break
                    self._not_empty.wait(timeout=remaining)
                while self._items and len(batch) < max_batch:
                    batch.append(self._items.popleft())
                if not self._items and self._empty_waiters:
                    self._emptied.notify_all()
        return batch

    # ------------------------------------------------------------------
    def drain(self) -> list[T]:
        """Remove and return everything queued (used on hard shutdown)."""
        with self._lock:
            items = list(self._items)
            self._items.clear()
            if self._empty_waiters:
                self._emptied.notify_all()
            return items

    def close(self) -> None:
        """Stop admission and wake every blocked consumer."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    def wait_empty(self, timeout: float | None = None) -> bool:
        """Block until the queue is empty (the graceful-drain barrier);
        ``False`` when ``timeout`` passes first."""
        with self._emptied:
            self._empty_waiters += 1
            try:
                return self._emptied.wait_for(lambda: not self._items, timeout)
            finally:
                self._empty_waiters -= 1


__all__ = ["AdmissionQueue"]
