"""``repro.resilience`` — degradation and client retry.

Two pieces, each usable alone:

* :mod:`repro.resilience.ladder` — the graceful-degradation ladder
  levels and the :class:`ResilienceTelemetry` counters behind the
  ``resilience`` StatsSnapshot namespace;
* :mod:`repro.resilience.retry` — client-side exponential backoff with
  full jitter under a bounded per-call retry budget.

The service adds no healing of its own: a failure the ladder cannot
absorb fails its batch with a typed error, and the worker serves on.
"""

from repro.resilience.ladder import (
    LEVELS,
    LEVEL_BASE_INDEPENDENCE,
    LEVEL_MAGIC,
    LEVEL_NAMES,
    LEVEL_NORMAL,
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
    "LEVELS",
    "LEVEL_BASE_INDEPENDENCE",
    "LEVEL_MAGIC",
    "LEVEL_NAMES",
    "LEVEL_NORMAL",
    "MAGIC_FILTER_SELECTIVITY",
    "MAGIC_JOIN_SELECTIVITY",
    "NO_RETRIES",
    "ResilienceTelemetry",
    "RetryPolicy",
    "RetryTelemetry",
    "call_with_retries",
    "magic_result",
    "magic_selectivity",
]
