"""AdmissionQueue: shed-on-full, group admission, batch pops (with and
without the linger, and a flush target cutting the linger short), the
drain barrier, close semantics."""

from __future__ import annotations

import threading
import time

import pytest

from repro.service.queue import AdmissionQueue


class TestAdmission:
    def test_offer_admits_until_depth_then_sheds(self):
        queue: AdmissionQueue[int] = AdmissionQueue(3)
        assert all(queue.offer(i) for i in range(3))
        assert queue.offer(99) is False  # shed, not blocked
        assert len(queue) == 3

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)

    def test_offer_after_close_raises(self):
        queue: AdmissionQueue[int] = AdmissionQueue(2)
        queue.close()
        with pytest.raises(RuntimeError):
            queue.offer(1)


class TestGroupAdmission:
    def test_whole_group_is_admitted_in_order(self):
        queue: AdmissionQueue[int] = AdmissionQueue(8)
        assert queue.offer_many([1, 2, 3]) == 3
        assert queue.take_batch(max_batch=8) == [1, 2, 3]

    def test_prefix_is_admitted_at_depth_and_nothing_beyond(self):
        queue: AdmissionQueue[int] = AdmissionQueue(4)
        queue.offer(0)
        assert queue.offer_many([1, 2, 3, 4, 5]) == 3
        assert len(queue) == 4
        assert queue.offer_many([6, 7]) == 0  # full: the whole group is shed
        assert queue.offer_many([]) == 0
        assert queue.take_batch(max_batch=8) == [0, 1, 2, 3]

    def test_closed_queue_raises_and_admits_nothing(self):
        queue: AdmissionQueue[int] = AdmissionQueue(4)
        queue.close()
        with pytest.raises(RuntimeError):
            queue.offer_many([1, 2])
        assert len(queue) == 0

    def test_a_group_is_one_wake_up(self, monkeypatch):
        queue: AdmissionQueue[int] = AdmissionQueue(8)
        wakes: list[int] = []
        real_notify = queue._not_empty.notify
        monkeypatch.setattr(
            queue._not_empty,
            "notify",
            lambda n=1: (wakes.append(n), real_notify(n))[1],
        )
        queue.offer_many([1, 2, 3, 4, 5])
        assert wakes == [1]
        queue.offer_many([])  # nothing admitted, nobody woken
        assert wakes == [1]

    def test_consumer_that_leaves_items_behind_wakes_the_next(self):
        """One wake-up per group is enough for any number of consumers:
        whoever cannot take it all passes the wake-up on."""
        queue: AdmissionQueue[int] = AdmissionQueue(8)
        taken: list[list[int]] = []
        lock = threading.Lock()

        def consumer():
            batch = queue.take_batch(max_batch=2, poll_s=30.0)
            with lock:
                taken.append(batch)

        consumers = [threading.Thread(target=consumer) for _ in range(3)]
        for thread in consumers:
            thread.start()
        queue.offer_many([1, 2, 3, 4, 5, 6])
        for thread in consumers:
            thread.join(timeout=5.0)  # far below poll_s: woken, not polled
            assert not thread.is_alive()
        assert sorted(taken) == [[1, 2], [3, 4], [5, 6]]


class TestTakeBatch:
    def test_no_window_takes_what_is_there_without_waiting(self):
        queue: AdmissionQueue[int] = AdmissionQueue(16)
        queue.offer(0)
        started = time.monotonic()
        assert queue.take_batch(max_batch=8) == [0]
        assert time.monotonic() - started < 0.5

    def test_batch_respects_max_batch(self):
        queue: AdmissionQueue[int] = AdmissionQueue(16)
        for i in range(10):
            queue.offer(i)
        batch = queue.take_batch(max_batch=4, window_s=0.0)
        assert batch == [0, 1, 2, 3]
        assert len(queue) == 6

    def test_window_coalesces_stragglers(self):
        queue: AdmissionQueue[int] = AdmissionQueue(16)
        queue.offer(0)

        def straggler():
            time.sleep(0.02)
            queue.offer(1)

        thread = threading.Thread(target=straggler)
        thread.start()
        batch = queue.take_batch(max_batch=8, window_s=0.5)
        thread.join()
        assert batch == [0, 1]

    def test_take_batch_blocks_until_item(self):
        queue: AdmissionQueue[int] = AdmissionQueue(4)
        result: list[list[int]] = []

        def consumer():
            result.append(queue.take_batch(max_batch=4, window_s=0.0))

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.02)
        assert thread.is_alive()  # still waiting
        queue.offer(7)
        thread.join(timeout=5.0)
        assert result == [[7]]

    def test_close_wakes_blocked_consumer_with_empty_batch(self):
        queue: AdmissionQueue[int] = AdmissionQueue(4)
        result: list[list[int]] = []

        def consumer():
            result.append(queue.take_batch(max_batch=4, window_s=0.5))

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.01)
        queue.close()
        thread.join(timeout=5.0)
        assert result == [[]]

    def test_closed_queue_still_drains_backlog(self):
        queue: AdmissionQueue[int] = AdmissionQueue(4)
        queue.offer(1)
        queue.offer(2)
        queue.close()
        assert queue.take_batch(max_batch=4, window_s=0.0) == [1, 2]
        assert queue.take_batch(max_batch=4, window_s=0.0) == []


class TestLifecycle:
    def test_drain_empties_queue(self):
        queue: AdmissionQueue[int] = AdmissionQueue(4)
        queue.offer(1)
        queue.offer(2)
        assert queue.drain() == [1, 2]
        assert len(queue) == 0

    def test_wait_empty(self):
        queue: AdmissionQueue[int] = AdmissionQueue(4)
        assert queue.wait_empty(timeout=0.1) is True
        queue.offer(1)
        assert queue.wait_empty(timeout=0.05) is False

        def consume():
            time.sleep(0.02)
            queue.take_batch(max_batch=4, window_s=0.0)

        thread = threading.Thread(target=consume)
        thread.start()
        assert queue.wait_empty(timeout=5.0) is True
        thread.join()

    def test_drain_barrier_is_woken_by_the_take_that_empties(self, monkeypatch):
        """``wait_empty`` parks on a condition: the worker's take of the
        last item wakes it, and nothing polls."""
        import repro.service.queue as queue_module

        def no_polling(_seconds):
            raise AssertionError("wait_empty polled")

        monkeypatch.setattr(queue_module.time, "sleep", no_polling)
        queue: AdmissionQueue[int] = AdmissionQueue(4)
        taken: list[list[int]] = []
        worker = threading.Thread(
            target=lambda: taken.append(queue.take_batch(max_batch=4, poll_s=30.0))
        )
        worker.start()  # parked: nothing queued yet
        queue.offer_many([1, 2])
        assert queue.wait_empty(timeout=30.0) is True
        worker.join(timeout=30.0)
        assert taken == [[1, 2]]
        assert len(queue) == 0


class TestFlushTarget:
    def test_flush_ends_the_linger_once_its_items_are_taken(self):
        queue: AdmissionQueue[int] = AdmissionQueue(16)
        queue.offer_many([0, 1, 2])
        assert queue.flush_target() == 3
        started = time.monotonic()
        assert queue.take_batch(max_batch=8, window_s=30.0) == [0, 1, 2]
        assert time.monotonic() - started < 5.0

    def test_a_flush_target_is_not_sticky(self):
        """A linger whose batch begins past the target keeps its window:
        the straggler admitted during it joins the batch."""
        queue: AdmissionQueue[int] = AdmissionQueue(16)
        queue.offer(0)
        queue.flush_target()
        assert queue.take_batch(max_batch=8, window_s=30.0) == [0]
        queue.offer(1)
        result: list[list[int]] = []

        def consumer():
            result.append(queue.take_batch(max_batch=2, window_s=30.0))

        thread = threading.Thread(target=consumer)
        thread.start()
        assert queue.wait_empty(timeout=30.0)  # 1 taken: now lingering
        queue.offer(2)  # max_batch reached: the linger ends on it
        thread.join(timeout=30.0)
        assert result == [[1, 2]]
