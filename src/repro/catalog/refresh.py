"""Incremental catalog refresh: rebuild only what table updates staled.

A refresh is the lifecycle's write path.  Given a
:class:`~repro.catalog.catalog.StatisticsCatalog` whose table versions
have moved past some SITs' recorded source versions, ``execute_refresh``

1. partitions the registered SITs into *fresh* (kept as-is, same objects)
   and *stale* (source table updated since build);
2. rebuilds the stale ones by full scan, grouped by generating
   expression so each expression executes exactly once;
3. optionally keeps only the best of the *rebuilt* pool under a space
   budget (``max_sits``) and a benefit floor (``min_diff``), in the
   order of :func:`~repro.stats.pool.rank_sits` with applicability
   taken from the optional workload — this is static SIT selection:
   ``StatisticsCatalog.build(...)`` then
   ``refresh(RefreshPolicy(max_sits=, min_diff=), queries)``;
4. atomically publishes the new pool (snapshot isolation: sessions pinned
   to older snapshots are untouched) and returns a
   :class:`RefreshReport`.

A refresh is **storm-hardened**: it either completes coherently or
rolls back.  Membership, metadata and table versions are read in one
consistent snapshot at entry; rebuilt SITs record the *entry* table
versions, so an invalidation that lands mid-rebuild leaves them stale
for the next round instead of being silently absorbed (no lost
invalidations).  A concurrent ``add``/``remove`` is detected at publish
and raises :class:`~repro.catalog.catalog.RefreshConflict` with the
catalog left untouched by the refresh.  The seeded
``refresh_during_storm`` injection point
(:data:`repro.resilience.POINT_REFRESH_DURING_STORM`) fires inside the
rebuild loop, before anything is published — an injected fault aborts
the whole round with the catalog exactly as it was (counted under
``catalog.refresh_aborts``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.predicates import PredicateSet
from repro.engine.expressions import Query
from repro.resilience.faults import POINT_REFRESH_DURING_STORM, inject
from repro.stats.builder import SITBuilder
from repro.stats.pool import rank_sits
from repro.stats.sit import SIT

from repro.catalog.catalog import (
    SITKey,
    SITMetadata,
    StatisticsCatalog,
    refreshed_metadata,
    sit_key,
)


@dataclass(frozen=True)
class RefreshPolicy:
    """What a refresh keeps (it always rebuilds by full scan).

    ``max_sits``
        space budget: after rebuilding, keep at most this many
        *conditioned* SITs (base histograms are always kept), best
        first by :func:`~repro.stats.pool.rank_sits`.  ``None`` keeps
        everything.
    ``min_diff``
        conditioned SITs whose rebuilt ``diff_H`` fell below this provide
        no benefit over the base histogram (Section 3.5 / Example 4) and
        are dropped.
    ``keep_keys``
        an explicit allow-list of *conditioned* :data:`SITKey` to retain
        (base histograms are always kept); everything conditioned outside
        it is dropped.  This is the apply path of the self-tuning loop
        (:mod:`repro.advisor`), which decides membership by measured
        q-error rather than the score heuristic.  ``None`` (the default)
        disables the filter.
    """

    max_sits: int | None = None
    min_diff: float = 0.0
    keep_keys: frozenset | None = None

    def __post_init__(self) -> None:
        if self.max_sits is not None and self.max_sits < 0:
            raise ValueError("max_sits must be non-negative")
        if self.keep_keys is not None:
            object.__setattr__(self, "keep_keys", frozenset(self.keep_keys))


@dataclass
class RefreshReport:
    """What one :meth:`StatisticsCatalog.refresh` call did."""

    policy: RefreshPolicy
    #: catalog version before / after the refresh
    version_before: int = 0
    version_after: int = 0
    #: keys rebuilt this round (stale at entry)
    rebuilt: list[SITKey] = field(default_factory=list)
    #: keys kept untouched (fresh at entry; same SIT objects)
    kept: list[SITKey] = field(default_factory=list)
    #: keys dropped by the space budget / min_diff filter
    dropped: list[SITKey] = field(default_factory=list)
    #: wall-clock seconds spent rebuilding
    build_seconds: float = 0.0

    @property
    def rebuilt_count(self) -> int:
        return len(self.rebuilt)

    def to_dict(self) -> dict:
        return {
            "version_before": self.version_before,
            "version_after": self.version_after,
            "rebuilt": len(self.rebuilt),
            "kept": len(self.kept),
            "dropped": len(self.dropped),
            "build_seconds": self.build_seconds,
        }


def _refresh_builder(catalog: StatisticsCatalog) -> SITBuilder:
    """A full-scan builder bound to the catalog's database (the
    catalog's own, unless that one samples)."""
    if catalog.database is None:
        raise RuntimeError(
            "catalog has no database attached; refresh requires one "
            "(construct the catalog with a Database or SITBuilder)"
        )
    if catalog.builder is not None and not hasattr(
        catalog.builder, "sample_fraction"
    ):
        return catalog.builder
    return SITBuilder(catalog.database)


def execute_refresh(
    catalog: StatisticsCatalog,
    policy: RefreshPolicy,
    queries: Iterable[Query] | None = None,
) -> RefreshReport:
    """Run one refresh round against ``catalog`` (see module docstring)."""
    # One consistent read of (pool, metadata, table versions) at entry.
    # Rebuilt SITs record *these* versions: an invalidation landing
    # mid-rebuild keeps them stale for the next round (never lost).
    entry = catalog.snapshot()
    entry_versions = dict(entry.table_versions)
    report = RefreshReport(policy=policy, version_before=entry.version)
    stale = [
        sit
        for sit in entry.pool
        if entry.metadata[sit_key(sit)].is_stale(entry_versions, sit.tables)
    ]
    stale_keys = {sit_key(sit) for sit in stale}
    entry_keys = frozenset(sit_key(sit) for sit in entry.pool)

    kept_sits: list[SIT] = []
    metadata: dict[SITKey, SITMetadata] = {}
    for sit in entry.pool:
        key = sit_key(sit)
        if key in stale_keys:
            continue
        kept_sits.append(sit)  # same object: provably untouched
        metadata[key] = entry.metadata[key]
        report.kept.append(key)

    rebuilt_sits: list[SIT] = []
    if stale:
        builder = _refresh_builder(catalog)
        # One execution per distinct generating expression (the builder's
        # build_many contract), exactly like the initial pool build.
        by_expression: dict[PredicateSet, list[SIT]] = {}
        for sit in stale:
            by_expression.setdefault(sit.expression, []).append(sit)
        started = time.perf_counter()
        try:
            for expression in sorted(
                by_expression, key=lambda e: (len(e), sorted(map(str, e)))
            ):
                inject(
                    POINT_REFRESH_DURING_STORM,
                    detail=f"expression={expression} "
                    f"version={entry.version}",
                    sits=by_expression[expression],
                )
                attributes = sorted(
                    sit.attribute for sit in by_expression[expression]
                )
                expression_started = time.perf_counter()
                fresh = builder.build_many(expression, attributes)
                per_sit = (time.perf_counter() - expression_started) / max(
                    1, len(fresh)
                )
                for sit in fresh:
                    rebuilt_sits.append(sit)
                    metadata[sit_key(sit)] = refreshed_metadata(
                        sit, per_sit, entry_versions
                    )
                    report.rebuilt.append(sit_key(sit))
        except Exception:
            # nothing was published: the catalog is exactly as the
            # storm left it — a clean rollback, counted
            catalog.metrics.counter("catalog.refresh_aborts").inc()
            raise
        report.build_seconds = time.perf_counter() - started

    sits = kept_sits + rebuilt_sits

    # ------------------------------------------------------------------
    # Space budget / benefit filter (static SIT selection)
    # ------------------------------------------------------------------
    if (
        policy.max_sits is not None
        or policy.min_diff > 0.0
        or policy.keep_keys is not None
    ):
        keep = policy.keep_keys
        eligible = [
            sit
            for sit in sits
            if sit.diff >= policy.min_diff
            and (keep is None or sit_key(sit) in keep)
        ]
        ranked = rank_sits(eligible, (query.joins for query in queries or ()))
        survivors = {sit_key(sit) for sit, _, _ in ranked[: policy.max_sits]}
        filtered: list[SIT] = []
        for sit in sits:
            key = sit_key(sit)
            if sit.is_base or key in survivors:
                filtered.append(sit)
            else:
                report.dropped.append(key)
                metadata.pop(key, None)
        sits = filtered
        if report.dropped:
            catalog.metrics.counter("catalog.sits_dropped").inc(
                len(report.dropped)
            )

    catalog.metrics.gauge("catalog.refresh_seconds").set(report.build_seconds)
    catalog._apply_refresh(sits, metadata, expected_keys=entry_keys)
    catalog.metrics.counter("catalog.sits_rebuilt").inc(len(report.rebuilt))
    report.version_after = catalog.version
    return report


__all__ = ["RefreshPolicy", "RefreshReport", "execute_refresh"]
