"""The versioned SIT catalog: build → serve → invalidate → refresh.

The paper treats SITs as build-once statistics and studies how to best
*use* a pool (Section 3); a production estimator must also own the
companion lifecycle.  :class:`StatisticsCatalog` is that subsystem:

* a **versioned registry** of SITs with per-SIT provenance
  (:class:`SITMetadata`: build timestamp/cost, build method full-scan or
  sampled, ``diff_H``, and the source-table versions the SIT was built
  against);
* **immutable snapshots** (:class:`CatalogSnapshot`) handed to
  estimators: a pool's membership is fixed when it is built, so every
  change of membership publishes a *new* pool object (copy-on-write), a
  refresh never mutates a pool mid-estimation and an in-flight session
  keeps answering off exactly the statistics it started with;
* **one invalidation event path**: :meth:`notify_table_update` bumps the
  table version, moves the published pool's version counter (which the
  plan cache over it reads) and bumps the catalog version so
  version-keyed caches above cannot be reused;
* an **incremental refresh** (:meth:`refresh`, see
  :mod:`repro.catalog.refresh`) that rebuilds only stale SITs and
  optionally keeps the best of the pool under a space budget, in
  :func:`~repro.stats.pool.rank_sits` order.

The catalog is **safe under concurrent writers**: every mutation
(:meth:`notify_table_update`, :meth:`add`, :meth:`remove`, the refresh
apply) runs under one internal re-entrant lock, so invalidation storms
from many threads (see :mod:`repro.ingest`) keep table and catalog
versions strictly monotone with no lost bumps, and :meth:`snapshot`
always observes a consistent (pool, version, metadata) triple.  A
refresh that raced a concurrent *membership* change detects the
conflict at apply time and rolls back (:class:`RefreshConflict`) rather
than clobbering the other writer; concurrent *invalidations* are
harmless because refresh records the table versions it read at entry,
so a table bumped mid-rebuild simply stays stale for the next round.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from repro.core.predicates import Attribute, PredicateSet
from repro.engine.database import Database
from repro.engine.expressions import Query
from repro.obs.metrics import MetricsRegistry
from repro.obs.snapshot import StatsSnapshot
from repro.stats.builder import SITBuilder
from repro.stats.io import (
    CatalogDocument,
    load_document,
    save_document,
)
from repro.stats.pool import SITPool, build_workload_pool
from repro.stats.sit import SIT

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.catalog.refresh import RefreshPolicy, RefreshReport

#: the identity of a SIT inside the catalog (``SIT`` itself hashes on its
#: histogram contents too; the registry keys on *what* the SIT describes)
SITKey = tuple[Attribute, PredicateSet]

#: the catalog's lifecycle counters, registered when it is built
_LIFECYCLE_COUNTERS = (
    "catalog.invalidations",
    "catalog.quarantined_sits",
    "catalog.refresh_aborts",
    "catalog.refresh_conflicts",
    "catalog.refreshes",
    "catalog.sits_built",
    "catalog.sits_dropped",
    "catalog.sits_rebuilt",
)

#: recognised build methods
BUILD_FULL = "full"
BUILD_SAMPLED = "sampled"


def sit_key(sit: SIT) -> SITKey:
    """The registry key of a SIT: (attribute, generating expression)."""
    return (sit.attribute, sit.expression)


class RefreshConflict(RuntimeError):
    """A refresh raced a concurrent membership change and rolled back.

    Raised by the refresh apply when the set of registered SIT keys
    moved between refresh entry and publish (an ``add``/``remove`` won
    the race).  The catalog is left exactly as the concurrent writer
    made it — the refresh's work is discarded, never merged torn.
    Re-running the refresh picks up the new membership.
    """


@dataclass(frozen=True)
class SITMetadata:
    """Provenance of one registered SIT."""

    #: ``time.time()`` at build completion (0.0 == unknown)
    built_at: float = 0.0
    #: wall-clock seconds the build took
    build_seconds: float = 0.0
    #: ``"full"`` (exact expression scan) or ``"sampled"`` (Chao1-scaled)
    build_method: str = BUILD_FULL
    #: table -> table version the SIT was built against
    source_versions: Mapping[str, int] = field(default_factory=dict)
    #: the SIT's ``diff_H`` (duplicated from the SIT for cheap reporting)
    diff: float = 0.0

    def __post_init__(self) -> None:
        if self.build_method not in (BUILD_FULL, BUILD_SAMPLED):
            raise ValueError(
                f"build_method must be {BUILD_FULL!r} or {BUILD_SAMPLED!r}, "
                f"got {self.build_method!r}"
            )
        object.__setattr__(
            self, "source_versions", dict(self.source_versions)
        )

    def is_stale(self, table_versions: Mapping[str, int], tables: Iterable[str]) -> bool:
        """True when any source table moved past the recorded version."""
        recorded = self.source_versions
        for table in tables:
            if table_versions.get(table, 0) > recorded.get(table, 0):
                return True
        return False

    def to_dict(self) -> dict:
        return {
            "built_at": self.built_at,
            "build_seconds": self.build_seconds,
            "build_method": self.build_method,
            "source_versions": dict(self.source_versions),
        }

    @classmethod
    def from_dict(cls, data: Mapping, diff: float = 0.0) -> "SITMetadata":
        return cls(
            built_at=float(data.get("built_at", 0.0)),
            build_seconds=float(data.get("build_seconds", 0.0)),
            build_method=str(data.get("build_method", BUILD_FULL)),
            source_versions=dict(data.get("source_versions", {})),
            diff=diff,
        )


@dataclass(frozen=True)
class CatalogSnapshot:
    """An immutable, consistent view of the catalog at one version.

    The snapshot's :attr:`pool` is the pool object *published* at snapshot
    time; the catalog never mutates a published pool's membership (every
    mutation publishes a fresh pool), so estimators holding a snapshot are
    isolated from concurrent refreshes.  ``metadata`` is keyed by
    :func:`sit_key`.
    """

    pool: SITPool
    version: int
    table_versions: Mapping[str, int]
    metadata: Mapping[SITKey, SITMetadata]
    created_at: float
    catalog: "StatisticsCatalog | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def database(self) -> Database | None:
        return self.catalog.database if self.catalog is not None else None

    @property
    def is_current(self) -> bool:
        """False once the owning catalog has moved past this version."""
        return self.catalog is not None and self.catalog.version == self.version

    def metadata_for(self, sit: SIT) -> SITMetadata:
        return self.metadata[sit_key(sit)]

    def stale_sits(self) -> list[SIT]:
        """SITs of this snapshot stale against the *catalog's current*
        table versions (empty when the snapshot has no owning catalog)."""
        if self.catalog is None:
            return []
        current = self.catalog.table_versions
        return [
            sit
            for sit in self.pool
            if self.metadata[sit_key(sit)].is_stale(current, sit.tables)
        ]

    def __len__(self) -> int:
        return len(self.pool)

    def __iter__(self) -> Iterator[SIT]:
        return iter(self.pool)


class StatisticsCatalog:
    """The one owner of the SIT lifecycle for a database.

    Reads go through :meth:`snapshot`; every mutation (``add``,
    ``remove``, :meth:`notify_table_update`, :meth:`refresh`) bumps
    :attr:`version`, and membership changes publish a brand-new
    :class:`~repro.stats.pool.SITPool` so previously handed-out snapshots
    stay frozen.
    """

    def __init__(
        self,
        database: Database | None = None,
        builder: SITBuilder | None = None,
    ):
        if builder is None and database is not None:
            builder = SITBuilder(database)
        if builder is not None and database is None:
            database = builder.database
        self.database = database
        self.builder = builder
        #: guards every mutation and consistent multi-field reads, so
        #: concurrent ``notify_table_update`` storms never lose a bump
        self._lock = threading.RLock()
        #: monotonically increasing; bumped on every catalog mutation
        self.version = 0
        self._table_versions: dict[str, int] = {}
        self._metadata: dict[SITKey, SITMetadata] = {}
        self._pool = SITPool()
        #: lifecycle metrics (refresh/invalidation counters; see
        #: :meth:`metrics_registry`).  Every instrument exists from here
        #: on, so the registry never grows while a snapshot merges it
        self.metrics = MetricsRegistry()
        for name in _LIFECYCLE_COUNTERS:
            self.metrics.counter(name)
        self.metrics.gauge("catalog.refresh_seconds")
        #: records skipped by a quarantining :meth:`load` (see
        #: :mod:`repro.stats.io`); empty for healthy files
        self.quarantined: list[dict] = []
        #: optional :class:`repro.obs.StalenessTracker` joined by the
        #: ingest pipeline (see :meth:`attach_staleness`)
        self._staleness = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_pool(
        cls,
        pool: SITPool,
        database: Database | None = None,
        builder: SITBuilder | None = None,
    ) -> "StatisticsCatalog":
        """Wrap an existing pool (serve-only unless a database is given).

        Metadata is synthesized: every SIT is recorded as built *now*
        against the current (all-zero) table versions, so nothing starts
        stale.
        """
        catalog = cls(database, builder)
        now = time.time()
        for sit in pool:
            catalog._register(
                sit,
                SITMetadata(
                    built_at=now,
                    source_versions=catalog._source_versions_of(sit),
                    diff=sit.diff,
                ),
            )
        catalog._publish([sit for sit in pool])
        return catalog

    @classmethod
    def build(
        cls,
        database: Database,
        queries: Iterable[Query],
        max_joins: int = 2,
        builder: SITBuilder | None = None,
    ) -> "StatisticsCatalog":
        """Build the paper's ``J_{max_joins}`` workload pool into a catalog."""
        catalog = cls(database, builder)
        assert catalog.builder is not None
        sampling = hasattr(catalog.builder, "sample_fraction")
        method = BUILD_SAMPLED if sampling else BUILD_FULL
        started = time.time()
        pool = build_workload_pool(catalog.builder, queries, max_joins)
        elapsed = time.time() - started
        per_sit = elapsed / max(1, len(pool))
        now = time.time()
        for sit in pool:
            catalog._register(
                sit,
                SITMetadata(
                    built_at=now,
                    build_seconds=per_sit,
                    build_method=method,
                    source_versions=catalog._source_versions_of(sit),
                    diff=sit.diff,
                ),
            )
        catalog._publish(list(pool))
        catalog.metrics.counter("catalog.sits_built").inc(len(pool))
        return catalog

    @classmethod
    def load(
        cls,
        path,
        database: Database | None = None,
        builder: SITBuilder | None = None,
        *,
        quarantine: bool = True,
    ) -> "StatisticsCatalog":
        """Load a catalog from a v2 file.

        ``quarantine=True`` (the default) makes the load *crash-safe*:
        torn or corrupt SIT records — a truncated save, a flipped bit
        caught by the per-record checksum — are skipped instead of
        failing the whole catalog.  Every skipped record is kept in
        :attr:`quarantined` and counted under
        ``catalog.quarantined_sits`` so the loss is observable; the
        estimator degrades gracefully over the surviving statistics.
        Pass ``quarantine=False`` to demand a pristine file.
        """
        document = load_document(path, quarantine=quarantine)
        catalog = cls(database, builder)
        catalog._table_versions = dict(document.table_versions)
        metas = document.sit_meta or [{} for _ in document.sits]
        for sit, meta in zip(document.sits, metas):
            catalog._register(sit, SITMetadata.from_dict(meta, diff=sit.diff))
        catalog._publish(list(document.sits))
        # the stored version is a floor: loading itself published once
        catalog.version = max(catalog.version, int(document.catalog_version))
        catalog.quarantined = list(document.quarantined)
        if catalog.quarantined:
            catalog.metrics.counter("catalog.quarantined_sits").inc(
                len(catalog.quarantined)
            )
        return catalog

    def save(self, path) -> None:
        """Persist the catalog (v2 format) to ``path``."""
        with self._lock:
            sits = list(self._pool)
            document = CatalogDocument(
                sits=sits,
                sit_meta=[self._metadata[sit_key(s)].to_dict() for s in sits],
                table_versions=dict(self._table_versions),
                catalog_version=self.version,
            )
        save_document(document, path)

    # ------------------------------------------------------------------
    # Registry internals
    # ------------------------------------------------------------------
    def _source_versions_of(self, sit: SIT) -> dict[str, int]:
        return {
            table: self._table_versions.get(table, 0) for table in sit.tables
        }

    def _register(self, sit: SIT, metadata: SITMetadata) -> None:
        self._metadata[sit_key(sit)] = metadata

    def _publish(self, sits: list[SIT]) -> None:
        """Install a fresh pool (copy-on-write) and bump the version."""
        with self._lock:
            self._pool = SITPool(sits)
            self.version += 1

    # ------------------------------------------------------------------
    # Read surface
    # ------------------------------------------------------------------
    @property
    def pool(self) -> SITPool:
        """The currently published pool (frozen membership; prefer
        :meth:`snapshot` so callers also get version + metadata)."""
        return self._pool

    def current(self) -> tuple[SITPool, int]:
        """The published pool and the catalog version, read together:
        what :meth:`snapshot` would pin, without building one."""
        with self._lock:
            return self._pool, self.version

    @property
    def table_versions(self) -> Mapping[str, int]:
        with self._lock:
            return dict(self._table_versions)

    def table_version(self, table: str) -> int:
        return self._table_versions.get(table, 0)

    def metadata_for(self, sit: SIT) -> SITMetadata:
        return self._metadata[sit_key(sit)]

    def snapshot(self) -> CatalogSnapshot:
        """An immutable view of the catalog at its current version."""
        with self._lock:
            return CatalogSnapshot(
                pool=self._pool,
                version=self.version,
                table_versions=dict(self._table_versions),
                metadata=dict(self._metadata),
                created_at=time.time(),
                catalog=self,
            )

    def stale_sits(self) -> list[SIT]:
        """Registered SITs whose source tables moved since their build."""
        with self._lock:
            return [
                sit
                for sit in self._pool
                if self._metadata[sit_key(sit)].is_stale(
                    self._table_versions, sit.tables
                )
            ]

    def __len__(self) -> int:
        return len(self._pool)

    def __iter__(self) -> Iterator[SIT]:
        return iter(self._pool)

    # ------------------------------------------------------------------
    # Mutation surface
    # ------------------------------------------------------------------
    def add(self, sit: SIT, metadata: SITMetadata | None = None) -> None:
        """Register (or replace) one SIT; publishes a new pool."""
        with self._lock:
            if metadata is None:
                metadata = SITMetadata(
                    built_at=time.time(),
                    source_versions=self._source_versions_of(sit),
                    diff=sit.diff,
                )
            key = sit_key(sit)
            sits = [s for s in self._pool if sit_key(s) != key]
            sits.append(sit)
            self._register(sit, metadata)
            self._publish(sits)
            self.metrics.counter("catalog.sits_built").inc()

    def add_missing_base_histograms(self) -> int:
        """Build a base histogram for every schema attribute without one.

        A workload-built catalog only covers the attributes its build
        queries touched; ad-hoc SQL needs a base histogram on *every*
        attribute or unrelated filters degrade to level 3 (a strict
        estimator raises
        :class:`~repro.core.get_selectivity.NoApplicableStatisticsError`).
        Returns how many were added (each :meth:`add` publishes a new
        version).
        """
        if self.builder is None or self.database is None:
            raise ValueError("adding base histograms requires a database")
        present = {sit.attribute for sit in self._pool if sit.is_base}
        added = 0
        for table in self.database.schema.tables.values():
            for attribute in table.attributes:
                if attribute not in present:
                    self.add(self.builder.build_base(attribute))
                    added += 1
        return added

    def remove(self, sit: SIT) -> bool:
        """Drop one SIT by key; returns whether anything was removed."""
        with self._lock:
            key = sit_key(sit)
            sits = [s for s in self._pool if sit_key(s) != key]
            if len(sits) == len(self._pool):
                return False
            self._metadata.pop(key, None)
            self._publish(sits)
            self.metrics.counter("catalog.sits_dropped").inc()
            return True

    # ------------------------------------------------------------------
    # Invalidation: the one event path
    # ------------------------------------------------------------------
    def attach_staleness(self, tracker) -> None:
        """Join a :class:`repro.obs.StalenessTracker` so ``status()``
        prints the ingest pipeline's staleness block beside the
        lifecycle fields.  The tracker is fed by
        :class:`repro.ingest.IngestPipeline`, not by the catalog —
        attaching is pure observability plumbing."""
        self._staleness = tracker

    def notify_table_update(self, table: str) -> int:
        """Record that ``table``'s data changed; returns the new table
        version.

        One call flows through the whole invalidation path:

        1. the table version is bumped (making dependent SITs *stale*);
        2. the builder evicts its memoized base histograms / counts for
           the table, so a later refresh reads current data;
        3. the published pool's derived-state version is bumped so the
           plan cache over it drops its plans (membership and histograms
           are unchanged: a refresh publishes a new pool);
        4. the catalog version is bumped so version-keyed caches and
           sessions observe the change.
        """
        with self._lock:
            version = self._table_versions.get(table, 0) + 1
            self._table_versions[table] = version
            if self.builder is not None:
                self.builder.invalidate_table(table)
            self._pool.invalidate_derived()
            self.version += 1
            self.metrics.counter("catalog.invalidations").inc()
            return version

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------
    def refresh(
        self,
        policy: "RefreshPolicy | None" = None,
        queries: Iterable[Query] | None = None,
    ) -> "RefreshReport":
        """Rebuild stale SITs under ``policy`` (see
        :func:`repro.catalog.refresh.execute_refresh`)."""
        from repro.catalog.refresh import RefreshPolicy, execute_refresh

        return execute_refresh(
            self, policy if policy is not None else RefreshPolicy(), queries
        )

    def _apply_refresh(
        self,
        sits: list[SIT],
        metadata: dict[SITKey, SITMetadata],
        expected_keys: "frozenset[SITKey] | None" = None,
    ) -> None:
        """Install a refresh outcome (called by the refresh engine).

        ``expected_keys`` is the registry membership the refresh read at
        entry.  When given and the membership moved meanwhile (a
        concurrent ``add``/``remove`` won the race), the apply raises
        :class:`RefreshConflict` and leaves the catalog exactly as the
        concurrent writer made it — complete coherently or roll back,
        never publish a torn merge.  Concurrent *invalidations* do not
        conflict: the refresh recorded the table versions it read at
        entry, so a table bumped mid-rebuild stays stale.
        """
        with self._lock:
            if expected_keys is not None:
                current = frozenset(sit_key(s) for s in self._pool)
                if current != expected_keys:
                    self.metrics.counter("catalog.refresh_conflicts").inc()
                    raise RefreshConflict(
                        "catalog membership changed during refresh "
                        f"({len(current ^ expected_keys)} keys moved); "
                        "refresh rolled back — re-run to pick up the "
                        "new membership"
                    )
            self._metadata = metadata
            self._publish(sits)
            self.metrics.counter("catalog.refreshes").inc()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def status(self) -> dict:
        """A JSON-ready lifecycle summary (the CLI's ``status`` output)."""
        with self._lock:
            stale = self.stale_sits()
            by_method: dict[str, int] = {}
            for metadata in self._metadata.values():
                by_method[metadata.build_method] = (
                    by_method.get(metadata.build_method, 0) + 1
                )
            pool = self._pool
            out = {
                "version": self.version,
                "sits": len(pool),
                "base_histograms": sum(1 for s in pool if s.is_base),
                "conditioned_sits": sum(1 for s in pool if not s.is_base),
                "stale_sits": len(stale),
                "table_versions": dict(self._table_versions),
                "build_methods": by_method,
            }
        if self._staleness is not None:
            out["ingest"] = self._staleness.status()
        return out

    def metrics_registry(self) -> MetricsRegistry:
        """Lifecycle metrics under the ``catalog.*`` namespace: the
        counters, and the published pool's size and stale count."""
        registry = MetricsRegistry()
        registry.merge(self.metrics)
        registry.gauge("catalog.sit_count").set(float(len(self._pool)))
        registry.gauge("catalog.stale_sits").set(float(len(self.stale_sits())))
        return registry

    def stats_snapshot(self) -> StatsSnapshot:
        """The catalog's lifecycle state as a ``StatsSnapshot`` (the
        ``catalog`` namespace carries versions, counts and refresh /
        invalidation counters)."""
        return StatsSnapshot.from_registry(
            self.metrics_registry(),
            meta={"subsystem": "catalog", "version": self.version},
        )


def refreshed_metadata(
    sit: SIT,
    build_seconds: float,
    table_versions: Mapping[str, int],
) -> SITMetadata:
    """Fresh provenance for a just-rebuilt SIT (a refresh rebuilds by
    full scan).

    ``table_versions`` are the versions the refresh *read at entry*:
    recording the versions current at rebuild time would mark a SIT
    fresh against an update that arrived mid-rebuild — a lost
    invalidation under a write storm.
    """
    return SITMetadata(
        built_at=time.time(),
        build_seconds=build_seconds,
        source_versions={
            table: table_versions.get(table, 0) for table in sit.tables
        },
        diff=sit.diff,
    )


__all__ = [
    "BUILD_FULL",
    "BUILD_SAMPLED",
    "CatalogSnapshot",
    "RefreshConflict",
    "SITKey",
    "SITMetadata",
    "StatisticsCatalog",
    "refreshed_metadata",
    "sit_key",
]
