"""``repro.ingest`` — streaming ingestion for a stack built on SITs.

Statistics on query expressions are uniquely exposed to base-table
churn: one update can stale a whole fan-out of derived histograms,
compiled plans, BN models and sample reservoirs.  This package makes
continuous concurrent writes survivable:

* :class:`IngestPipeline` — bounded, coalescing bridge from a stream of
  :class:`TableUpdate` events to the catalog's single
  ``notify_table_update`` invalidation path.  Admission is
  reject-don't-block (typed :class:`IngestOverloaded`, the serving
  layer's shed-on-full contract); N rapid updates to one table collapse
  into one invalidation epoch; faulted applies retry and re-queue but
  never drop an acked write.
* :class:`IngestConfig` — the layered-config knobs (queue depth,
  coalescing window, retry and drift-probe budgets).
* :class:`EstimateDriftProbe` — served estimate vs. fresh truth on a
  sampled sub-stream, feeding the :class:`repro.obs.StalenessTracker`'s
  measured ``estimate_drift``.

Observability rides the ``ingest`` StatsSnapshot namespace
(:mod:`repro.obs.snapshot`) and the staleness tracker in
:mod:`repro.obs.staleness`; chaos coverage rides the
``ingest_apply`` / ``refresh_during_storm`` injection points in
:mod:`repro.resilience`.
"""

from repro.ingest.config import IngestConfig
from repro.ingest.pipeline import (
    EstimateDriftProbe,
    IngestOverloaded,
    IngestPipeline,
    TableUpdate,
)

__all__ = [
    "EstimateDriftProbe",
    "IngestConfig",
    "IngestOverloaded",
    "IngestPipeline",
    "TableUpdate",
]
