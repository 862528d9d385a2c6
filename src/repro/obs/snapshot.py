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
    statistics-lifecycle state (``snapshot_version``, ``current``,
    ``sit_count``, ``stale_sits``, ``invalidations``, ``sits_rebuilt``,
    ...)
    — populated when the producer serves from a
    :class:`repro.catalog.StatisticsCatalog` / snapshot / session,
    empty otherwise;
``service``
    request-path state of the estimation-serving subsystem
    (:mod:`repro.service`): ``queue_depth``, ``workers``, ``served``,
    ``shed_overload`` / ``shed_deadline``, ``batches``,
    ``batched_requests``, ``snapshot_swaps`` and the ``latency_ms``
    histogram with p50/p95/p99 — empty for producers below the serving
    layer;
``resilience``
    degradation state (:mod:`repro.resilience`): the ``degraded_level3``
    outcome counter and ``faults_<kind>`` per handled failure
    (``faults_no_statistics`` counts attributes no statistic covered,
    ``faults_error`` a level-3 fallback estimator that raised) — empty
    when nothing ever degraded;
``plan_cache``
    compiled-plan cache state (:mod:`repro.core.plancache`): ``plans``,
    ``hits``, ``misses``, ``compiles``, ``evictions``, ``bytes``,
    ``hit_rate`` and the pinned ``pool_version``; a service adds
    ``caches``, its distinct live caches (one per served pool) — empty
    for producers that run without the cache;
``ingest``
    streaming-ingestion state (:mod:`repro.ingest` +
    :class:`repro.obs.staleness.StalenessTracker`): admission counters
    (``events``, ``shed``, ``dropped``), coalescing
    (``epochs_applied``, ``coalesced_events``, ``coalesce_ratio``), the
    staleness gauges (``staleness_s_max``, per-table
    ``staleness_s.<table>``, ``tables_pending``) and measured drift on
    the probe sub-stream (``drift_probes``, ``drift_q_error_p50``,
    ``drift_q_error_p95``) — empty when nothing streams writes.

``meta`` carries identification (engine, estimator name, error function,
session name) and is excluded from numeric views.  Snapshots are plain
data: build one from a :class:`repro.obs.metrics.MetricsRegistry` with
:meth:`from_registry`, serialise with :meth:`to_dict` / :meth:`to_json`.
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
        """Group a registry's instruments into the documented namespaces.

        Instruments outside the conventional namespaces are folded into
        ``counters`` under their full dotted name, so nothing is lost.
        """
        nested = registry.snapshot()
        extra: dict[str, object] = {}
        for namespace, entries in nested.items():
            if namespace not in NAMESPACES:
                for name, value in entries.items():
                    extra[f"{namespace}.{name}"] = value
        counters = dict(nested.get("counters", {}))
        counters.update(extra)
        return cls(
            timings=nested.get("timings", {}),
            counters=counters,
            caches=nested.get("caches", {}),
            catalog=nested.get("catalog", {}),
            service=nested.get("service", {}),
            resilience=nested.get("resilience", {}),
            plan_cache=nested.get("plan_cache", {}),
            ingest=nested.get("ingest", {}),
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
        return {
            "timings": dict(self.timings),
            "counters": dict(self.counters),
            "caches": dict(self.caches),
            "catalog": dict(self.catalog),
            "service": dict(self.service),
            "resilience": dict(self.resilience),
            "plan_cache": dict(self.plan_cache),
            "ingest": dict(self.ingest),
            "meta": dict(self.meta),
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def namespace(self, name: str) -> Mapping[str, object]:
        if name not in NAMESPACES:
            raise KeyError(f"unknown namespace {name!r}; expected {NAMESPACES}")
        return getattr(self, name)

    # ------------------------------------------------------------------
    def flat(self, keys: Mapping[str, str] | None = None) -> dict[str, float]:
        """A flattened numeric view (a generic utility, not a schema).

        With ``keys`` (a ``{flat_key: "namespace.entry"}`` mapping) the
        result contains exactly those keys.  Without ``keys`` every
        numeric entry is flattened as ``namespace`` is dropped (colliding
        names keep the namespaced form).
        """
        if keys is not None:
            out: dict[str, float] = {}
            for flat_key, path in keys.items():
                namespace, _, entry = path.partition(".")
                out[flat_key] = getattr(self, namespace)[entry]
            return out
        out = {}
        for namespace in NAMESPACES:
            for entry, value in getattr(self, namespace).items():
                if entry in out:
                    entry = f"{namespace}.{entry}"
                if isinstance(value, (int, float)):
                    out[entry] = float(value)
        return out
