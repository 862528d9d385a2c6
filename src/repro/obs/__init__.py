"""Estimation observability: tracing, metrics and the decomposition explainer.

This subsystem makes the estimation stack introspectable without touching
its numeric behaviour:

* :mod:`repro.obs.trace` — a zero-dependency :class:`Trace`/:class:`Span`
  recorder with per-stage timers (parse/bind → DP enumeration → factor
  matching → histogram join → error scoring) and counters (decompositions
  explored, Section 3.4 prunes, cache hits/misses, SIT candidates filtered
  vs. matched).  Tracing is *opt-in*: a disabled trace is literally
  ``None``, so every instrumented call site costs one ``is not None``
  branch (the acceptance budget is <5% overhead on the ``BENCH_core.json``
  steady-state workload).
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with labeled
  counter/gauge/histogram primitives, snapshot-able to dict/JSON; the
  single substrate behind every observability surface.
* :mod:`repro.obs.snapshot` — the documented :class:`StatsSnapshot`
  schema (nested ``timings`` / ``counters`` / ``caches`` / ``catalog``
  namespaces) shared by ``GetSelectivity``, ``SITEstimator``,
  ``MemoCoupledEstimator``, the :class:`repro.catalog.StatisticsCatalog`
  and :class:`repro.catalog.EstimationSession`; the ``catalog`` namespace
  carries statistics-lifecycle state (snapshot/catalog versions, stale
  counts, refresh and invalidation metrics).
* :mod:`repro.obs.staleness` — :class:`StalenessTracker`: per-table
  serving-snapshot staleness (age of acked-but-unapplied writes) and
  measured estimate drift vs. fresh truth on a sampled probe stream;
  the source of the ``ingest`` StatsSnapshot namespace fed by
  :mod:`repro.ingest`.
* :mod:`repro.obs.explain` — ``EXPLAIN ESTIMATE``: a structured
  :class:`ExplainResult` capturing the winning decomposition, the SIT
  matched per conditional factor ``Sel(P|Q)`` (or the independence
  fallback), each factor's error contribution and selectivity; renderable
  as a text tree and as JSON (``python -m repro explain``).
"""

from repro.obs.metrics import Counter, Gauge, HistogramMetric, MetricsRegistry
from repro.obs.snapshot import StatsSnapshot
from repro.obs.staleness import StalenessTracker
from repro.obs.trace import Span, Trace

#: explainer names resolved lazily (PEP 562): ``repro.obs.explain`` imports
#: :mod:`repro.core.matching`, which itself depends on modules that import
#: ``repro.obs.snapshot`` — an eager import here would close that cycle.
_EXPLAIN_EXPORTS = (
    "AttributeExplanation",
    "ExplainResult",
    "FactorExplanation",
    "build_explain",
)


def __getattr__(name: str):
    if name in _EXPLAIN_EXPORTS:
        from repro.obs import explain

        value = getattr(explain, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AttributeExplanation",
    "Counter",
    "ExplainResult",
    "FactorExplanation",
    "Gauge",
    "HistogramMetric",
    "MetricsRegistry",
    "Span",
    "StalenessTracker",
    "StatsSnapshot",
    "Trace",
    "build_explain",
]
