"""The unified ``StatsSnapshot`` schema for every observability surface.

A :class:`StatsSnapshot` is the one documented shape, with these
namespaces:

``timings``
    wall-clock accumulators, in seconds (``analysis_seconds``,
    ``estimation_seconds``, plus per-stage trace timings when tracing is
    enabled — see :mod:`repro.obs.trace`);
``counters``
    monotone event counts since the producer was built — or since its
    explicit ``reset()``, which only the per-query figure harness and
    the bench gates call (``matcher_calls``, ``pruned_decompositions``,
    ``explored_decompositions``, ``universe_size``, ...; a session adds
    ``queries``);
``caches``
    cache sizes and hit/miss counts (``memo_entries``,
    ``estimate_cache_entries``; ``join_memo_entries``
    is the pool's derived-histogram count, shared by every DP over the
    pool, while ``join_memo_hits`` / ``join_memo_misses`` count only
    this DP's own lookups);
``catalog``
    statistics-lifecycle state: a catalog's ``sit_count``,
    ``stale_sits`` and lifecycle counters (``invalidations``,
    ``refreshes``, ``sits_rebuilt``, ...), a session's ``current`` —
    empty below the catalog layer;
``service``
    request-path state of the estimation-serving subsystem
    (:mod:`repro.service`): ``queue_depth``, ``workers``, ``submitted``,
    ``served``, ``answered_on_arrival``, ``shed_overload`` /
    ``shed_deadline``, ``batches``, ``batched_requests``,
    ``deduplicated``, ``degraded``, ``snapshot_swaps`` and the
    ``latency_ms`` / ``batch_size`` histograms with p50/p95/p99 — empty
    for producers below the serving layer;
``resilience``
    degradation state (:mod:`repro.resilience`): the ``degraded_level3``
    outcome counter and ``faults_<kind>`` per handled failure
    (``faults_no_statistics`` counts attributes no statistic covered,
    ``faults_error`` a level-3 fallback estimator that raised) — empty
    when nothing ever degraded;
``plan_cache``
    compiled-plan cache state (:mod:`repro.core.plancache`): ``plans``,
    ``hits``, ``misses``, ``compiles``, ``evictions``, ``bytes`` and
    ``hit_rate`` — empty for producers that run without the cache;
``ingest``
    streaming-ingestion state, produced by
    :class:`repro.ingest.IngestPipeline` alone: admission counters
    (``events``, ``shed``), coalescing (``epochs_applied``,
    ``events_applied``, ``coalesce_ratio``) and its
    :class:`repro.obs.staleness.StalenessTracker`'s gauges
    (``staleness_s_max``, ``tables_pending``).

Every name a producer registers has a reader (a test, a bench metric, a
script or CI step); ``tests/obs/test_metric_readers.py`` collects the
names at run time and fails on any without one.

``meta`` carries identification (engine, estimator name, error function,
session name) and is not a namespace.  Snapshots are plain
data: build one from a :class:`repro.obs.metrics.MetricsRegistry` with
:meth:`from_registry`, read a namespace as an attribute
(``snapshot.ingest["events"]``), serialise with :meth:`to_dict` /
:meth:`to_json`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.obs.metrics import MetricsRegistry

#: the namespaces a snapshot exposes, in rendering order
NAMESPACES = (
    "timings",
    "counters",
    "caches",
    "catalog",
    "service",
    "resilience",
    "plan_cache",
    "ingest",
)


def _freeze(mapping: Mapping[str, object] | None) -> Mapping[str, object]:
    return MappingProxyType(dict(mapping or {}))


@dataclass(frozen=True)
class StatsSnapshot:
    """Immutable, documented observability snapshot."""

    timings: Mapping[str, float] = field(default_factory=dict)
    counters: Mapping[str, float] = field(default_factory=dict)
    caches: Mapping[str, float] = field(default_factory=dict)
    catalog: Mapping[str, float] = field(default_factory=dict)
    service: Mapping[str, object] = field(default_factory=dict)
    resilience: Mapping[str, float] = field(default_factory=dict)
    plan_cache: Mapping[str, float] = field(default_factory=dict)
    ingest: Mapping[str, float] = field(default_factory=dict)
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in (*NAMESPACES, "meta"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    # ------------------------------------------------------------------
    @classmethod
    def from_registry(
        cls, registry: MetricsRegistry, meta: Mapping[str, object] | None = None
    ) -> "StatsSnapshot":
        """Group a registry's instruments into the documented namespaces
        (every producer names its instruments inside one of them)."""
        nested = registry.snapshot()
        return cls(
            **{namespace: nested.get(namespace, {}) for namespace in NAMESPACES},
            meta=meta or {},
        )

    def accumulate_into(self, registry: MetricsRegistry) -> None:
        """Add this snapshot's ledger (``timings``, ``counters``,
        ``caches``) to ``registry``: timings and event counts sum, sizes
        keep the latest value.  One snapshot into an empty registry
        reproduces it; many roll up a workload."""
        for name, value in self.timings.items():
            registry.gauge(f"timings.{name}").add(float(value))
        for name, value in self.counters.items():
            if not isinstance(value, (int, float)):
                continue
            if name == "universe_size":  # a size, not an event count
                registry.gauge(f"counters.{name}").set(float(value))
            else:
                registry.counter(f"counters.{name}").inc(float(value))
        for name, value in self.caches.items():
            if name.endswith(("_hits", "_misses")):
                registry.counter(f"caches.{name}").inc(float(value))
            else:
                registry.gauge(f"caches.{name}").set(float(value))

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """Nested plain-dict form (JSON-ready)."""
        return {name: dict(getattr(self, name)) for name in (*NAMESPACES, "meta")}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def namespace(self, name: str) -> Mapping[str, object]:
        if name not in NAMESPACES:
            raise KeyError(f"unknown namespace {name!r}; expected {NAMESPACES}")
        return getattr(self, name)
