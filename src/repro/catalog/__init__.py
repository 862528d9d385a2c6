"""The statistics catalog: one versioned, snapshot-isolated subsystem
unifying the SIT lifecycle — build → serve → feedback → invalidate →
refresh.

Layering:

* :mod:`repro.catalog.catalog` — the :class:`StatisticsCatalog` registry
  (per-SIT provenance metadata, table versions, the single
  ``notify_table_update`` invalidation event path) and the immutable
  :class:`CatalogSnapshot` it publishes;
* :mod:`repro.catalog.refresh` — :class:`RefreshPolicy` /
  :func:`execute_refresh`: incremental full-scan rebuild of exactly the
  stale SITs, plus static SIT selection — ``max_sits`` / ``min_diff``
  keep the best of the pool in :func:`repro.stats.pool.rank_sits` order;
* :mod:`repro.catalog.session` — :class:`EstimationSession`: many
  queries against one pinned snapshot, sharing the memo and the
  pool-pure estimate cache across queries.

The underlying statistics structures (pools, builders, SITs, the v2
persistence format) stay in :mod:`repro.stats`; this package owns their
*lifecycle*.
"""

from repro.catalog.catalog import (
    BUILD_FULL,
    BUILD_SAMPLED,
    CatalogSnapshot,
    RefreshConflict,
    SITKey,
    SITMetadata,
    StatisticsCatalog,
    sit_key,
)
from repro.catalog.refresh import RefreshPolicy, RefreshReport, execute_refresh
from repro.catalog.session import EstimationSession

__all__ = [
    "BUILD_FULL",
    "BUILD_SAMPLED",
    "CatalogSnapshot",
    "EstimationSession",
    "RefreshConflict",
    "RefreshPolicy",
    "RefreshReport",
    "SITKey",
    "SITMetadata",
    "StatisticsCatalog",
    "execute_refresh",
    "sit_key",
]
