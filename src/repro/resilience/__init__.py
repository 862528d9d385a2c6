"""``repro.resilience`` — fault injection, degradation, client retry.

Three pieces, each usable alone:

* :mod:`repro.resilience.faults` — the one injected fault
  (:class:`HistogramCorrupt`), three named injection points, and the
  seeded :class:`FaultPlan` that arms them (the chaos layer is
  *deterministic*: same seed + request content → same faults);
* :mod:`repro.resilience.ladder` — the graceful-degradation ladder
  levels and the :class:`ResilienceTelemetry` counters behind the
  ``resilience`` StatsSnapshot namespace;
* :mod:`repro.resilience.retry` — client-side exponential backoff with
  full jitter under a bounded per-call retry budget.

The service adds no healing of its own: a failure the ladder cannot
absorb fails its batch with a typed error, and the worker serves on.
"""

from repro.resilience.faults import (
    EstimationFault,
    FaultPlan,
    FaultRule,
    HistogramCorrupt,
    INJECTION_POINTS,
    POINT_HISTOGRAM_JOIN,
    POINT_INGEST_APPLY,
    POINT_REFRESH_DURING_STORM,
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
    "EstimationFault",
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
    "POINT_HISTOGRAM_JOIN",
    "POINT_INGEST_APPLY",
    "POINT_REFRESH_DURING_STORM",
    "ResilienceTelemetry",
    "RetryPolicy",
    "RetryTelemetry",
    "active",
    "arm",
    "armed",
    "call_with_retries",
    "disarm",
    "inject",
    "magic_result",
    "magic_selectivity",
]
