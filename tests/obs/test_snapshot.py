"""Unit tests for the unified ``StatsSnapshot`` schema."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.snapshot import NAMESPACES, StatsSnapshot


def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.gauge("timings.analysis_seconds").set(0.25)
    registry.counter("counters.matcher_calls").inc(7)
    registry.gauge("caches.memo_entries").set(12)
    registry.counter("caches.match_cache_hits").inc(3)
    return registry


class TestStatsSnapshot:
    def test_namespaces(self):
        assert NAMESPACES == (
            "timings",
            "counters",
            "caches",
            "catalog",
            "service",
            "resilience",
            "plan_cache",
            "ingest",
        )

    def test_from_registry_groups_namespaces(self):
        snapshot = StatsSnapshot.from_registry(
            _sample_registry(), meta={"engine": "bitmask"}
        )
        assert snapshot.timings == {"analysis_seconds": 0.25}
        assert snapshot.counters == {"matcher_calls": 7.0}
        assert snapshot.caches == {
            "memo_entries": 12.0,
            "match_cache_hits": 3.0,
        }
        assert snapshot.meta["engine"] == "bitmask"

    def test_immutable(self):
        snapshot = StatsSnapshot(timings={"analysis_seconds": 1.0})
        with pytest.raises(TypeError):
            snapshot.timings["analysis_seconds"] = 2.0  # type: ignore[index]

    def test_namespace_accessor(self):
        snapshot = StatsSnapshot(counters={"matcher_calls": 1.0})
        assert snapshot.namespace("counters") == {"matcher_calls": 1.0}
        with pytest.raises(KeyError):
            snapshot.namespace("meta")

    def test_to_dict_and_json(self):
        snapshot = StatsSnapshot(
            timings={"analysis_seconds": 0.5}, meta={"engine": "legacy"}
        )
        payload = json.loads(snapshot.to_json())
        assert payload["timings"] == {"analysis_seconds": 0.5}
        assert payload["meta"] == {"engine": "legacy"}
        assert set(snapshot.to_dict()) == {
            "timings",
            "counters",
            "caches",
            "catalog",
            "service",
            "resilience",
            "plan_cache",
            "ingest",
            "meta",
        }

    def test_service_namespace_round_trips(self):
        registry = _sample_registry()
        registry.gauge("service.queue_depth").set(3)
        registry.counter("service.served").inc(10)
        snapshot = StatsSnapshot.from_registry(registry)
        assert snapshot.service == {"queue_depth": 3.0, "served": 10.0}
        assert snapshot.namespace("service")["served"] == 10.0
        assert snapshot.to_dict()["service"]["queue_depth"] == 3.0
