"""IngestPipeline semantics over a fake invalidation target: coalescing,
bounded admission with typed backpressure, fault-injected apply with
epoch requeue (never dropped), drift probing, drain and shutdown."""

from __future__ import annotations

import threading
import time

import pytest

from repro.ingest import (
    EstimateDriftProbe,
    IngestConfig,
    IngestOverloaded,
    IngestPipeline,
)
from repro.obs import StalenessTracker
from repro.resilience.faults import (
    POINT_INGEST_APPLY,
    FaultPlan,
    FaultRule,
    armed,
)
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


def wait_until(predicate, timeout_s: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


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
            snapshot = pipeline.stats_snapshot().ingest
            assert snapshot["events"] == 31.0
            assert snapshot["events_applied"] == 31.0
            assert snapshot["epochs_applied"] == catalog.calls_for("R")
            assert snapshot["coalesced_events"] >= 28.0
            assert snapshot["coalesce_ratio"] > 10.0

    def test_distinct_tables_each_get_their_epoch(self):
        catalog = FakeCatalog()
        with IngestPipeline(catalog, config=IngestConfig()) as pipeline:
            for table in ("R", "S", "T"):
                pipeline.submit(table)
            assert pipeline.flush(timeout=10.0)
        assert sorted(set(catalog.calls)) == ["R", "S", "T"]


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


class TestFaultedApply:
    def test_transient_fault_retries_within_the_cycle(self):
        catalog = FakeCatalog()
        plan = FaultPlan([FaultRule(point=POINT_INGEST_APPLY)], seed=7)
        with armed(plan):
            with IngestPipeline(catalog, config=IngestConfig()) as pipeline:
                pipeline.submit("R")
                assert pipeline.flush(timeout=10.0)
        assert catalog.calls_for("R") == 1
        snapshot = pipeline.stats_snapshot().ingest
        assert snapshot["apply_faults"] == 1.0
        assert snapshot["apply_retries"] == 1.0
        assert "epoch_requeues" not in snapshot

    def test_exhausted_retries_requeue_the_epoch_never_drop(self):
        """A cycle's retries can all fault — the epoch then carries into
        the next cycle and still lands: no lost invalidations."""
        catalog = FakeCatalog()
        config = IngestConfig(apply_retries=3)
        plan = FaultPlan(
            [
                FaultRule(
                    point=POINT_INGEST_APPLY, match="table=R", max_fires=3
                )
            ],
            seed=7,
        )
        with armed(plan):
            with IngestPipeline(catalog, config=config) as pipeline:
                pipeline.submit("R")
                pipeline.submit("S")
                assert pipeline.flush(timeout=10.0)
        assert catalog.calls_for("R") == 1
        assert catalog.calls_for("S") == 1
        snapshot = pipeline.stats_snapshot().ingest
        assert snapshot["apply_faults"] == 3.0
        assert snapshot["epoch_requeues"] == 1.0
        assert pipeline.tracker.quiesced()


class TestDriftProbe:
    def test_probe_samples_applied_epochs(self):
        catalog = FakeCatalog()
        readings = iter([4.0, 2.0, 8.0, 1.5, 3.0, 2.5, 1.0, 5.0])
        pipeline = IngestPipeline(
            catalog,
            config=IngestConfig(drift_every=1),
            drift_probe=lambda: next(readings),
        )
        with pipeline:
            for table in ("R", "S", "T"):
                pipeline.submit(table)
            assert pipeline.flush(timeout=10.0)
            assert wait_until(lambda: pipeline.tracker.drift_probes >= 1)
        assert pipeline.tracker.drift_quantile(0.5) >= 1.0
        snapshot = pipeline.stats_snapshot().ingest
        assert snapshot["drift_probes"] >= 1.0
        assert snapshot["drift_q_error_p95"] >= snapshot["drift_q_error_p50"]

    def test_probe_failure_is_counted_not_fatal(self):
        catalog = FakeCatalog()

        def broken() -> float:
            raise RuntimeError("engine down")

        pipeline = IngestPipeline(
            catalog, config=IngestConfig(drift_every=1), drift_probe=broken
        )
        with pipeline:
            pipeline.submit("R")
            assert pipeline.flush(timeout=10.0)
        assert catalog.calls_for("R") == 1
        snapshot = pipeline.metrics_registry().snapshot()["ingest"]
        assert snapshot["drift_probe_errors"] >= 1.0

    def test_estimate_drift_probe_round_robins_q_error(self):
        served = {"q1": 100.0, "q2": 50.0}
        truth = {"q1": 25.0, "q2": 50.0}
        probe = EstimateDriftProbe(
            estimate=served.__getitem__,
            truth=truth.__getitem__,
            queries=["q1", "q2"],
        )
        assert probe() == pytest.approx(4.0)
        assert probe() == pytest.approx(1.0)
        assert probe() == pytest.approx(4.0)

    def test_probe_requires_queries(self):
        with pytest.raises(ValueError, match="at least one query"):
            EstimateDriftProbe(float, float, [])


class TestLifecycle:
    def test_close_without_drain_drops_and_counts(self):
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
        snapshot = pipeline.metrics_registry().snapshot()["ingest"]
        assert snapshot["dropped"] == 5.0
        assert catalog.calls_for("S") == 0

    def test_submit_after_close_raises(self):
        pipeline = IngestPipeline(FakeCatalog())
        pipeline.close()
        with pytest.raises(RuntimeError, match="closed"):
            pipeline.submit("R")

    def test_rejects_targets_without_the_invalidation_path(self):
        with pytest.raises(TypeError, match="notify_table_update"):
            IngestPipeline(object())

    def test_status_is_compact_and_json_ready(self):
        import json

        catalog = FakeCatalog()
        with IngestPipeline(catalog) as pipeline:
            pipeline.submit("R")
            assert pipeline.flush(timeout=10.0)
            status = pipeline.status()
        json.dumps(status)
        assert status["staleness"]["tables"]["R"]["writes"] == 1
        assert not any(key.startswith("staleness_s.") for key in status)

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
