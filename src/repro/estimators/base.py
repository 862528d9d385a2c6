"""The ``Estimator`` protocol: one contract, several backends.

The paper's SIT/DP path (:mod:`repro.estimators.sit`) is one of several
credible ways to answer a ``GetSelectivity`` request.  This module
defines the abstract contract every backend implements so the catalog
session, the estimation service, the optimizer coupling and the CLI
can dispatch through one interface:

* :meth:`Estimator.estimate` / :meth:`Estimator.estimate_predicates` —
  answer a query (or bare predicate set) with an
  :class:`~repro.core.get_selectivity.EstimationResult` tagged with the
  producing :attr:`Estimator.backend` (and, for backends with
  distribution-free guarantees, an ``error_bound``);
* :meth:`Estimator.explain` — the structured ``EXPLAIN ESTIMATE`` view;
* :meth:`Estimator.stats_snapshot` — the unified
  :class:`~repro.obs.snapshot.StatsSnapshot` observability surface;
* :meth:`Estimator.notify_table_update` — the single invalidation entry
  point.  When the estimator serves from a
  :class:`~repro.catalog.StatisticsCatalog` the call is forwarded to the
  catalog's own ``notify_table_update`` (the one event path hot swap
  already rides on); backends version-gate their derived models
  against the catalog's per-table versions, so an invalidation issued
  *anywhere* (directly on the catalog or through the service) is
  observed lazily on the next estimate.

Sessions and services read a backend's counters through its
:meth:`Estimator.stats_snapshot` only.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.obs.snapshot import StatsSnapshot
from repro.resilience import ResilienceTelemetry
from repro.stats.pool import SITPool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.catalog.catalog import CatalogSnapshot
    from repro.core.get_selectivity import EstimationResult
    from repro.core.plancache import PlanCache
    from repro.engine.database import Database
    from repro.engine.expressions import Query
    from repro.obs.explain import ExplainResult
    from repro.obs.trace import Trace

#: the statistics argument estimators accept (duck-typed to avoid a
#: core -> catalog import cycle)
Statistics = "SITPool | StatisticsCatalog | CatalogSnapshot"


def resolve_statistics(statistics) -> "tuple[SITPool, CatalogSnapshot | None]":
    """Resolve any statistics source into ``(pool, snapshot)``.

    A :class:`~repro.catalog.StatisticsCatalog` is pinned to its current
    snapshot; a :class:`~repro.catalog.CatalogSnapshot` is used as-is; a
    bare :class:`~repro.stats.pool.SITPool` carries no snapshot.  Duck
    typing (``refresh`` marks a catalog, ``pool`` marks a snapshot)
    keeps :mod:`repro.estimators` importable without :mod:`repro.catalog`.
    """
    if isinstance(statistics, SITPool):
        return statistics, None
    if hasattr(statistics, "refresh") and hasattr(statistics, "snapshot"):
        snapshot = statistics.snapshot()
        return snapshot.pool, snapshot
    if hasattr(statistics, "pool") and isinstance(
        getattr(statistics, "pool"), SITPool
    ):
        return statistics.pool, statistics
    raise TypeError(
        "statistics must be a SITPool, StatisticsCatalog or "
        f"CatalogSnapshot, got {type(statistics).__name__}"
    )


class Estimator(abc.ABC):
    """Abstract base of every cardinality-estimation backend.

    Concrete backends set :attr:`backend` (the wire-visible identifier)
    and implement :meth:`estimate_predicates`, :meth:`stats_snapshot`
    and :meth:`_invalidate_table`; everything else has a protocol-level
    default.
    """

    #: wire-visible backend identifier (``"sit"``, ``"bn"``, ``"sample"``)
    backend: str = "abstract"

    def __init__(
        self,
        database: "Database | None",
        statistics=None,
        error_function=None,
        name: str | None = None,
    ):
        if statistics is None:
            pool, snapshot = None, None
        else:
            pool, snapshot = resolve_statistics(statistics)
        self.database = database
        self.pool = pool
        #: the pinned :class:`~repro.catalog.CatalogSnapshot`, or ``None``
        #: when built from a bare pool (or no statistics at all)
        self.snapshot = snapshot
        self.error_function = error_function
        self.name = name if name is not None else type(self).__name__
        #: degradation/fault counters (the ``resilience`` snapshot namespace)
        self.resilience = ResilienceTelemetry()
        #: per-table invalidation counters for estimators running without
        #: a catalog (with one, the catalog's versions are authoritative)
        self._local_table_versions: dict[str, int] = {}

    # -- the estimation contract ----------------------------------------
    @abc.abstractmethod
    def estimate_predicates(self, predicates) -> "EstimationResult":
        """Estimate ``Sel(P)`` for a bare predicate set."""

    def estimate(self, query: "Query") -> "EstimationResult":
        """Full estimation result for a bound query."""
        return self.estimate_predicates(frozenset(query.predicates))

    def explain(self, query: "Query | str") -> "ExplainResult":
        """``EXPLAIN ESTIMATE``: the structured explanation view of a
        bound :class:`Query` or SQL text.  The SIT backend explains from
        the DP's memo, so ``explain(q).selectivity`` equals
        ``estimate(q).selectivity`` exactly."""
        from repro.obs.explain import build_explain

        if isinstance(query, str):
            query = self.parse_sql(query)
        return build_explain(self, query)

    @abc.abstractmethod
    def stats_snapshot(self) -> StatsSnapshot:
        """The unified observability snapshot for this backend."""

    # -- invalidation: the one event path --------------------------------
    def notify_table_update(self, table: str) -> int:
        """Record that ``table``'s data changed; returns the new version.

        Drops this backend's derived state for the table, then forwards
        to the owning catalog when one is pinned — keeping the catalog's
        ``notify_table_update`` the single invalidation event path that
        refresh and plan caches already share.
        """
        self._local_table_versions[table] = (
            self._local_table_versions.get(table, 0) + 1
        )
        self._invalidate_table(table)
        catalog = self.snapshot.catalog if self.snapshot is not None else None
        if catalog is not None:
            return catalog.notify_table_update(table)
        return self._local_table_versions[table]

    def _invalidate_table(self, table: str) -> None:
        """Backend hook: drop derived state for one table (default no-op)."""

    def table_version(self, table: str) -> int:
        """The version gate for derived per-table models.

        Catalog-backed estimators read the *live* catalog version (so an
        invalidation issued through the service is observed lazily);
        bare estimators use the local counters bumped by
        :meth:`notify_table_update`.
        """
        catalog = self.snapshot.catalog if self.snapshot is not None else None
        if catalog is not None:
            return catalog.table_version(table)
        return self._local_table_versions.get(table, 0)

    # -- conveniences shared by all backends -----------------------------
    def selectivity(self, query: "Query") -> float:
        """Most accurate ``Sel_R(P)`` for the query's predicate set."""
        return self.estimate(query).selectivity

    def cardinality(self, query: "Query") -> float:
        """Estimated output cardinality: ``Sel_R(P) * |R^x|``."""
        return self.selectivity(query) * self.database.cross_product_size(
            query.tables
        )

    def cardinality_sql(self, sql: str) -> float:
        """Estimate the output cardinality of a SQL SELECT statement."""
        return self.cardinality(self.parse_sql(sql))

    def parse_sql(self, sql: str) -> "Query":
        """Parse + bind SQL against this estimator's schema."""
        from repro.sql import parse_query

        trace = self.trace
        if trace is not None:
            with trace.span("parse_bind"):
                return parse_query(sql, self.database.schema)
        return parse_query(sql, self.database.schema)

    def reset(self) -> None:
        """The explicit cold start: clear memoization and zero the
        counters (default no-op).  Nothing in the serving path calls it."""

    def space_bytes(self) -> float:
        """Approximate bytes of statistics/models this backend holds."""
        return 0.0

    # -- protocol-level identity (defaults) -------------------------------
    @property
    def engine(self) -> str:
        """The execution engine label (backends default to their name)."""
        return self.backend

    @property
    def snapshot_version(self) -> int:
        """The catalog version of the pinned snapshot (0 for bare pools)."""
        return self.snapshot.version if self.snapshot is not None else 0

    #: the compiled-plan cache, for backends that support one (a plain
    #: class attribute so implementations can assign an instance cache)
    plan_cache: "PlanCache | None" = None

    # -- tracing (optional capability) -----------------------------------
    @property
    def trace(self) -> "Trace | None":
        return None

    def enable_tracing(self, trace: "Trace | None" = None) -> "Trace | None":
        return None

    def disable_tracing(self) -> None:
        return None


__all__ = ["Estimator", "Statistics", "resolve_statistics"]
