"""IngestPipeline semantics over a fake invalidation target: coalescing,
bounded admission with typed backpressure, drain and shutdown."""

from __future__ import annotations

import threading
import time

import pytest

from repro.ingest import IngestConfig, IngestOverloaded, IngestPipeline
from repro.obs import StalenessTracker
from repro.service.protocol import Overloaded


class FakeCatalog:
    """An invalidation target double: versioned, call-logging."""

    def __init__(self) -> None:
        self.version = 0
        self.calls: list[str] = []
        self._lock = threading.Lock()

    def notify_table_update(self, table: str) -> int:
        with self._lock:
            self.version += 1
            self.calls.append(table)
            return self.version

    def calls_for(self, table: str) -> int:
        with self._lock:
            return self.calls.count(table)


class GatedCatalog(FakeCatalog):
    """Blocks inside ``notify_table_update`` until released, so tests
    can deterministically pile writes up behind an in-flight apply."""

    def __init__(self) -> None:
        super().__init__()
        self.entered = threading.Event()
        self.gate = threading.Event()
        self.gate.set()

    def notify_table_update(self, table: str) -> int:
        self.entered.set()
        assert self.gate.wait(timeout=10.0)
        return super().notify_table_update(table)


class TestCoalescing:
    def test_storm_collapses_into_few_epochs(self):
        """Writes that arrive while one apply is in flight coalesce into
        a single follow-up invalidation epoch, not one call each."""
        catalog = GatedCatalog()
        catalog.gate.clear()
        with IngestPipeline(catalog, config=IngestConfig()) as pipeline:
            pipeline.submit("R")
            assert catalog.entered.wait(timeout=5.0)
            for _ in range(30):
                pipeline.submit("R")
            catalog.gate.set()
            assert pipeline.flush(timeout=10.0)
            # 31 events, at most the in-flight call plus one coalesced
            # follow-up epoch (a straggler batch split adds one more)
            assert catalog.calls_for("R") <= 3
            ingest = pipeline.stats_snapshot().ingest
            assert ingest["events"] == 31.0
            assert ingest["events_applied"] == 31.0
            assert ingest["epochs_applied"] == catalog.calls_for("R")
            assert ingest["coalesce_ratio"] > 10.0

    def test_distinct_tables_each_get_their_epoch(self):
        catalog = FakeCatalog()
        with IngestPipeline(catalog, config=IngestConfig()) as pipeline:
            for table in ("R", "S", "T"):
                pipeline.submit(table)
            assert pipeline.flush(timeout=10.0)
        assert sorted(set(catalog.calls)) == ["R", "S", "T"]

    def test_max_batch_bounds_what_one_cycle_folds(self):
        """A held apply lets a burst queue up: by default the next cycle
        folds it into one epoch, at ``max_batch=1`` every event is an
        epoch of its own."""
        epochs = {}
        for max_batch in (256, 1):
            catalog = GatedCatalog()
            catalog.gate.clear()
            config = IngestConfig(max_batch=max_batch)
            with IngestPipeline(catalog, config=config) as pipeline:
                pipeline.submit("R")
                assert catalog.entered.wait(timeout=5.0)
                for _ in range(6):
                    pipeline.submit("R")
                catalog.gate.set()
                assert pipeline.flush(timeout=10.0)
                epochs[max_batch] = pipeline.stats_snapshot().ingest["epochs_applied"]
        assert epochs[256] <= 3.0
        assert epochs[1] == 7.0


class TestFlush:
    """A flush ends the coalesce window for the events admitted before
    it — and only for those."""

    WINDOW = IngestConfig(coalesce_window_s=5.0)

    def test_flush_applies_a_burst_now_as_one_epoch(self):
        catalog = FakeCatalog()
        with IngestPipeline(catalog, config=self.WINDOW) as pipeline:
            for _ in range(64):
                pipeline.submit("R")
            started = time.monotonic()
            assert pipeline.flush(timeout=2.0)
            assert time.monotonic() - started < 1.0
            snapshot = pipeline.stats_snapshot().ingest
        assert catalog.calls_for("R") == 1
        assert snapshot["epochs_applied"] == 1.0
        assert snapshot["events_applied"] == 64.0

    def test_a_burst_after_a_flush_still_coalesces(self):
        catalog = FakeCatalog()
        with IngestPipeline(catalog, config=self.WINDOW) as pipeline:
            pipeline.submit("R")
            assert pipeline.flush(timeout=2.0)
            pipeline.submit("S")
            # the apply loop took it and lingers: the last flush's target
            # is behind it, so no cut
            assert pipeline._queue.wait_empty(timeout=2.0)
            for _ in range(9):
                pipeline.submit("S")
            assert catalog.calls_for("S") == 0
            assert pipeline.flush(timeout=2.0)
            snapshot = pipeline.stats_snapshot().ingest
        assert catalog.calls == ["R", "S"]
        assert snapshot["epochs_applied"] == 2.0
        assert snapshot["events_applied"] == 11.0

    def test_events_submitted_during_a_flush_are_applied_by_the_next(self):
        catalog = GatedCatalog()
        catalog.gate.clear()
        with IngestPipeline(catalog, config=self.WINDOW) as pipeline:
            pipeline.submit("R")
            flushed = []
            flusher = threading.Thread(
                target=lambda: flushed.append(pipeline.flush(timeout=10.0))
            )
            flusher.start()
            assert catalog.entered.wait(timeout=5.0)  # the apply is held
            producer = threading.Thread(
                target=lambda: [pipeline.submit("S") for _ in range(20)]
            )
            producer.start()
            producer.join(timeout=10.0)
            catalog.gate.set()
            flusher.join(timeout=10.0)
            assert flushed == [True]
            started = time.monotonic()
            assert pipeline.flush(timeout=2.0)
            assert time.monotonic() - started < 1.0
            snapshot = pipeline.stats_snapshot().ingest
        assert catalog.calls_for("R") == 1
        assert catalog.calls_for("S") >= 1
        assert snapshot["events_applied"] == 21.0
        assert pipeline.tracker.quiesced()


class TestBackpressure:
    def test_sheds_typed_overloaded_at_depth(self):
        catalog = GatedCatalog()
        catalog.gate.clear()
        config = IngestConfig(queue_depth=4)
        pipeline = IngestPipeline(catalog, config=config)
        try:
            pipeline.submit("R")
            assert catalog.entered.wait(timeout=5.0)
            for _ in range(4):
                pipeline.submit("R")
            with pytest.raises(IngestOverloaded, match="queue full"):
                pipeline.submit("R")
            # the shed speaks the serving layer's backpressure vocabulary
            with pytest.raises(Overloaded):
                pipeline.submit("R")
            snapshot = pipeline.stats_snapshot().ingest
            assert snapshot["shed"] == 2.0
            assert snapshot["events"] == 5.0
            # shed writes were retracted: exactly 5 acked writes pending
            assert pipeline.tracker.status()["tables"]["R"]["writes"] == 5
            catalog.gate.set()
            assert pipeline.flush(timeout=10.0)
            assert pipeline.tracker.quiesced()
        finally:
            catalog.gate.set()
            pipeline.close()

    def test_staleness_visible_while_pending_and_zero_after(self):
        now = [100.0]
        tracker = StalenessTracker(clock=lambda: now[0])
        catalog = GatedCatalog()
        catalog.gate.clear()
        pipeline = IngestPipeline(
            catalog, config=IngestConfig(), tracker=tracker
        )
        try:
            pipeline.submit("R")
            assert catalog.entered.wait(timeout=5.0)
            now[0] = 107.5
            assert tracker.staleness_s("R") == pytest.approx(7.5)
            assert tracker.max_staleness_s() == pytest.approx(7.5)
            assert not tracker.quiesced()
            catalog.gate.set()
            assert pipeline.flush(timeout=10.0)
            assert tracker.staleness_s("R") == 0.0
            assert tracker.quiesced()
        finally:
            catalog.gate.set()
            pipeline.close()


class TestLifecycle:
    def test_close_without_drain_drops_the_backlog(self):
        catalog = GatedCatalog()
        catalog.gate.clear()
        pipeline = IngestPipeline(catalog, config=IngestConfig(queue_depth=8))
        pipeline.submit("R")
        assert catalog.entered.wait(timeout=5.0)
        for _ in range(5):
            pipeline.submit("S")
        # release the in-flight apply shortly after close starts draining
        threading.Timer(0.05, catalog.gate.set).start()
        pipeline.close(drain=False)
        assert pipeline.closed
        assert pipeline.stats_snapshot().ingest["events"] == 6.0
        assert pipeline.stats_snapshot().ingest["events_applied"] == 1.0
        assert catalog.calls_for("S") == 0

    def test_submit_after_close_raises(self):
        pipeline = IngestPipeline(FakeCatalog())
        pipeline.close()
        with pytest.raises(RuntimeError, match="closed"):
            pipeline.submit("R")

    def test_an_apply_that_raises_stops_acking_at_once(self):
        """A target that raises once kills the apply thread: the write it
        took stays pending, ``flush`` says so without waiting out its
        timeout, and later writes are refused rather than acked."""

        class RaisesOnce(FakeCatalog):
            raised = False

            def notify_table_update(self, table: str) -> int:
                if not self.raised:
                    self.raised = True
                    raise OSError("the catalog's disk went away")
                return super().notify_table_update(table)

        catalog = RaisesOnce()
        pipeline = IngestPipeline(catalog)
        pipeline.submit("R")
        started = time.monotonic()
        assert pipeline.flush(timeout=30.0) is False
        assert time.monotonic() - started < 10.0  # woken, not timed out
        assert pipeline.flush(timeout=30.0) is False
        with pytest.raises(RuntimeError, match="stopped") as raised:
            pipeline.submit("S")
        assert isinstance(raised.value.__cause__, OSError)
        snapshot = pipeline.metrics_registry().snapshot()["ingest"]
        assert (snapshot["events"], snapshot["events_applied"]) == (1.0, 0.0)
        assert pipeline.tracker.status()["tables_pending"] == 1  # R, never applied
        assert catalog.calls == []
        pipeline.close()

    def test_rejects_targets_without_the_invalidation_path(self):
        with pytest.raises(TypeError, match="notify_table_update"):
            IngestPipeline(object())

    def test_ingest_block_and_tracker_status_are_json_ready(self):
        import json

        catalog = FakeCatalog()
        with IngestPipeline(catalog) as pipeline:
            pipeline.submit("R")
            assert pipeline.flush(timeout=10.0)
            ingest = dict(pipeline.stats_snapshot().ingest)
            staleness = pipeline.tracker.status()
        json.dumps([ingest, staleness])
        assert ingest["events_applied"] == 1
        assert staleness["tables"]["R"]["writes"] == 1
        assert not any(key.startswith("staleness_s.") for key in ingest)

    def test_real_catalog_version_advances(self, two_table_db, two_table_pool):
        from repro.catalog import StatisticsCatalog

        catalog = StatisticsCatalog.from_pool(
            two_table_pool, database=two_table_db
        )
        before = catalog.version
        tracker = StalenessTracker()
        catalog.attach_staleness(tracker)
        with IngestPipeline(catalog, tracker=tracker) as pipeline:
            for _ in range(10):
                pipeline.submit("R")
            assert pipeline.flush(timeout=10.0)
        assert catalog.version > before
        # coalesced: far fewer version bumps than events
        assert catalog.version - before < 10
        assert "ingest" in catalog.status()

    def test_the_pipeline_alone_exports_the_ingest_namespace(
        self, two_table_db, two_table_pool
    ):
        """The catalog and a service joined to the same tracker print it
        (``catalog status``) and stamp answers with it, but only the
        pipeline's registry carries its gauges."""
        from repro.catalog import StatisticsCatalog
        from repro.service import EstimationService, ServiceConfig

        catalog = StatisticsCatalog.from_pool(two_table_pool, database=two_table_db)
        tracker = StalenessTracker()
        with EstimationService(catalog, config=ServiceConfig(workers=1)) as service:
            service.attach_staleness(tracker)
            with IngestPipeline(catalog, tracker=tracker) as pipeline:
                pipeline.submit("R")
                assert pipeline.flush(timeout=10.0)
                ingest = pipeline.stats_snapshot().ingest
            assert not service.stats_snapshot().ingest
        assert not catalog.stats_snapshot().ingest
        assert catalog.status()["ingest"]["tables"]["R"]["writes"] == 1
        assert (ingest["staleness_s_max"], ingest["tables_pending"]) == (0.0, 0.0)
        assert ingest["events_applied"] == 1.0
