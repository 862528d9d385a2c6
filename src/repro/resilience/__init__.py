"""``repro.resilience`` — fault injection, degradation, self-healing.

Four pieces, each usable alone:

* :mod:`repro.resilience.faults` — typed faults, named injection
  points, and the seeded :class:`FaultPlan` that arms them (the chaos
  layer is *deterministic*: same seed + request content → same faults);
* :mod:`repro.resilience.ladder` — the graceful-degradation ladder
  levels and the :class:`ResilienceTelemetry` counters behind the
  ``resilience`` StatsSnapshot namespace;
* :mod:`repro.resilience.retry` — client-side exponential backoff with
  full jitter under a bounded per-call retry budget;
* :mod:`repro.resilience.breaker` — the per-snapshot circuit breaker
  the service uses to roll back to a last-known-good snapshot.
"""

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import (
    EstimationFault,
    FAULTS_BY_KIND,
    FaultPlan,
    FaultRule,
    HistogramCorrupt,
    INJECTION_POINTS,
    POINT_CATALOG_LOAD,
    POINT_CATALOG_SAVE,
    POINT_HISTOGRAM_JOIN,
    POINT_INGEST_APPLY,
    POINT_REFRESH_DURING_STORM,
    POINT_SIT_MATCH,
    POINT_SNAPSHOT_PIN,
    POINT_WORKER_BATCH,
    SITUnavailable,
    StorageTorn,
    WorkerCrash,
    active,
    arm,
    armed,
    disarm,
    inject,
)
from repro.resilience.ladder import (
    LEVELS,
    LEVEL_BASE_INDEPENDENCE,
    LEVEL_MAGIC,
    LEVEL_NAMES,
    LEVEL_NORMAL,
    LEVEL_REPLAN,
    MAGIC_FILTER_SELECTIVITY,
    MAGIC_JOIN_SELECTIVITY,
    ResilienceTelemetry,
    magic_result,
    magic_selectivity,
)
from repro.resilience.retry import (
    NO_RETRIES,
    RetryPolicy,
    RetryTelemetry,
    call_with_retries,
)

__all__ = [
    "CircuitBreaker",
    "EstimationFault",
    "FAULTS_BY_KIND",
    "FaultPlan",
    "FaultRule",
    "HistogramCorrupt",
    "INJECTION_POINTS",
    "LEVELS",
    "LEVEL_BASE_INDEPENDENCE",
    "LEVEL_MAGIC",
    "LEVEL_NAMES",
    "LEVEL_NORMAL",
    "LEVEL_REPLAN",
    "MAGIC_FILTER_SELECTIVITY",
    "MAGIC_JOIN_SELECTIVITY",
    "NO_RETRIES",
    "POINT_CATALOG_LOAD",
    "POINT_CATALOG_SAVE",
    "POINT_HISTOGRAM_JOIN",
    "POINT_INGEST_APPLY",
    "POINT_REFRESH_DURING_STORM",
    "POINT_SIT_MATCH",
    "POINT_SNAPSHOT_PIN",
    "POINT_WORKER_BATCH",
    "ResilienceTelemetry",
    "RetryPolicy",
    "RetryTelemetry",
    "SITUnavailable",
    "StorageTorn",
    "WorkerCrash",
    "active",
    "arm",
    "armed",
    "call_with_retries",
    "disarm",
    "inject",
    "magic_result",
    "magic_selectivity",
]
