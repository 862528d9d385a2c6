"""Statistics on query expressions (SITs): definitions, construction from a
database, ``diff_H`` computation, workload-driven pool generation and the
one ``diff_H`` ranking (:func:`rank_sits`) every SIT selection uses.  The
SIT lifecycle (budgeted selection, refresh) is :mod:`repro.catalog`."""

from repro.stats.builder import SITBuilder
from repro.stats.diff import approximate_diff, exact_diff
from repro.stats.io import (
    CatalogDocument,
    PoolFormatError,
    atomic_write_text,
    load_document,
    load_pool,
    save_document,
    save_pool,
)
from repro.stats.sampling import SamplingSITBuilder
from repro.stats.pool import (
    SITPool,
    build_workload_pool,
    connected_join_subsets,
    rank_sits,
    workload_sit_requests,
)
from repro.stats.sit import SIT

__all__ = [
    "CatalogDocument",
    "SIT",
    "SITBuilder",
    "SITPool",
    "SamplingSITBuilder",
    "approximate_diff",
    "atomic_write_text",
    "PoolFormatError",
    "build_workload_pool",
    "connected_join_subsets",
    "exact_diff",
    "load_document",
    "load_pool",
    "rank_sits",
    "save_document",
    "save_pool",
    "workload_sit_requests",
]
