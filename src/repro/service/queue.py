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
  pipeline, whose coalesce window exists *to* wait.
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
        self._closed = False

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
                self._not_empty.notify()
            return admitted

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
        coalescing arrivals for that long.  Returns ``[]`` only when
        the queue is closed *and* drained.
        """
        batch: list[T] = []
        with self._not_empty:
            while not self._items:
                if self._closed:
                    return batch
                self._not_empty.wait(timeout=poll_s)
            while self._items and len(batch) < max_batch:
                batch.append(self._items.popleft())
            if self._items:
                # a group larger than one batch was admitted with one
                # wake-up: pass it on to the next free consumer
                self._not_empty.notify()
        if window_s <= 0 or len(batch) >= max_batch:
            return batch
        # linger: coalesce stragglers into the same batch
        deadline = time.monotonic() + window_s
        while len(batch) < max_batch:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            with self._not_empty:
                if not self._items:
                    if self._closed:
                        break
                    self._not_empty.wait(timeout=remaining)
                while self._items and len(batch) < max_batch:
                    batch.append(self._items.popleft())
        return batch

    # ------------------------------------------------------------------
    def drain(self) -> list[T]:
        """Remove and return everything queued (used on hard shutdown)."""
        with self._lock:
            items = list(self._items)
            self._items.clear()
            return items

    def close(self) -> None:
        """Stop admission and wake every blocked consumer."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    def wait_empty(self, timeout: float | None = None) -> bool:
        """Block until the queue is empty (the graceful-drain barrier)."""
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            with self._lock:
                if not self._items:
                    return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.001)


__all__ = ["AdmissionQueue"]
