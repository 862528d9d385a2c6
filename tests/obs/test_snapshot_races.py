"""A snapshot taken while its producer writes.

``stats_snapshot()`` merges the producer's own registry into a fresh
one.  An owner that created an instrument on its first use grew that
registry under the merge's iteration, and the snapshot raised
``RuntimeError: dictionary changed size during iteration``.  Each test
pauses a snapshot inside its merge (an ``Event``, no sleep), lets the
owner write for the first time, then lets the merge go on."""

from __future__ import annotations

import threading

from repro.catalog import StatisticsCatalog
from repro.ingest import IngestPipeline
from repro.obs.metrics import MetricsRegistry


class PausedMerge:
    """Holds the first instrument a merge into a fresh registry creates,
    on the snapshotting thread only, until :meth:`release`."""

    def __init__(self, monkeypatch) -> None:
        self.inside = threading.Event()
        self._release = threading.Event()
        self._thread: threading.Thread | None = None
        self.result: list = []
        real = MetricsRegistry.counter

        def counter(registry, name, **labels):
            if threading.current_thread() is self._thread and not self.inside.is_set():
                self.inside.set()
                assert self._release.wait(timeout=30.0)
            return real(registry, name, **labels)

        monkeypatch.setattr(MetricsRegistry, "counter", counter)

    def snapshot(self, producer) -> None:
        def run() -> None:
            try:
                self.result.append(producer.stats_snapshot())
            except Exception as exc:  # the race, reported to the test
                self.result.append(exc)

        self._thread = threading.Thread(target=run)
        self._thread.start()
        assert self.inside.wait(timeout=30.0), "the merge was never entered"

    def release(self):
        self._release.set()
        self._thread.join(timeout=30.0)
        (result,) = self.result
        if isinstance(result, Exception):
            raise result
        return result


def test_a_catalog_snapshot_survives_the_first_notify(
    monkeypatch, two_table_pool, two_table_db
):
    catalog = StatisticsCatalog.from_pool(two_table_pool, database=two_table_db)
    catalog.refresh()  # some lifecycle counters have values to merge
    paused = PausedMerge(monkeypatch)
    paused.snapshot(catalog)
    catalog.notify_table_update("S")  # the catalog's first invalidation
    snapshot = paused.release()
    assert snapshot.catalog["invalidations"] in (0.0, 1.0)
    assert catalog.stats_snapshot().catalog["invalidations"] == 1.0


class _HeldTarget:
    def __init__(self) -> None:
        self.entered = threading.Event()
        self.gate = threading.Event()

    def notify_table_update(self, table: str) -> int:
        self.entered.set()
        assert self.gate.wait(timeout=30.0)
        return 1


def test_a_pipeline_snapshot_survives_the_first_apply(monkeypatch):
    target = _HeldTarget()
    with IngestPipeline(target) as pipeline:
        pipeline.submit("R")
        assert target.entered.wait(timeout=30.0)  # admitted, not applied
        paused = PausedMerge(monkeypatch)
        paused.snapshot(pipeline)
        target.gate.set()
        assert pipeline.flush(timeout=30.0)  # the first apply's counters
        snapshot = paused.release()
    assert snapshot.ingest["events"] == 1.0
    assert pipeline.stats_snapshot().ingest["epochs_applied"] == 1.0

