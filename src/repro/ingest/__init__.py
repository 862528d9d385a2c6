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
  into one invalidation epoch, applied with one ``notify_table_update``.
* :class:`IngestConfig` — the layered-config knobs (queue depth,
  coalescing window and batch size).

Observability rides the ``ingest`` StatsSnapshot namespace
(:mod:`repro.obs.snapshot`) and the staleness tracker in
:mod:`repro.obs.staleness`.
"""

from repro.ingest.config import IngestConfig
from repro.ingest.pipeline import IngestOverloaded, IngestPipeline, TableUpdate

__all__ = [
    "IngestConfig",
    "IngestOverloaded",
    "IngestPipeline",
    "TableUpdate",
]
