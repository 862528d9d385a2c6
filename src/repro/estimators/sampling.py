"""The guaranteed-sample backend: uniform reservoirs with VC bounds.

Estimates ``Sel(P)`` by evaluating the predicate set *exactly* (with the
same vectorized :class:`~repro.engine.executor.Executor` the ground
truth uses) over per-table uniform samples instead of the full tables.
Following Riondato et al. (arXiv:1101.5805), the class of conjunctive
SPJ selection predicates over ``d`` ranges has bounded VC dimension, so
a uniform sample of size ``s >= (c / eps^2) * (d + ln(1/delta))`` is an
*eps-approximation*: with probability at least ``1 - delta`` the sample
selectivity is within additive ``eps`` of the true selectivity,
**regardless of the data distribution**.  The bound is solved for
``eps`` and surfaced on every result as ``EstimationResult.error_bound``
— the honest statement the SIT path cannot make.

Reservoirs are deterministic (seeded per ``(table, version)``), rebuilt
lazily when the catalog's single ``notify_table_update`` invalidation
path bumps a table version, and cheap: estimation cost is
``O(sample_size)`` per referenced table, independent of the base data.
This is also the degradation ladder's level-3 backend (see
:mod:`repro.estimators.sit`): when every histogram is faulted, sampling
still answers from raw rows.
"""

from __future__ import annotations

import math
import time
import zlib

import numpy as np

from repro.core.get_selectivity import EstimationResult
from repro.core.predicates import PredicateSet, tables_of
from repro.core.selectivity import Decomposition
from repro.engine.database import Database, Table
from repro.engine.executor import Executor
from repro.estimators.base import Estimator
from repro.obs.metrics import MetricsRegistry
from repro.obs.snapshot import StatsSnapshot

#: the VC-dimension constant ``c`` of the sample-size bound (0.5 is the
#: classical constant for eps-approximations of range spaces)
VC_CONSTANT = 0.5

_EMPTY = Decomposition(())


def sample_error_bound(
    sample_size: int, predicate_count: int, delta: float
) -> float:
    """``eps`` such that ``s >= (c/eps^2)(d + ln(1/delta))`` holds.

    ``d`` (the VC-dimension proxy) is the number of predicates: each
    range/join predicate contributes one dimension to the range space
    the sample must approximate.
    """
    d = max(1, int(predicate_count))
    s = max(1, int(sample_size))
    return min(
        1.0, math.sqrt(VC_CONSTANT * (d + math.log(1.0 / delta)) / s)
    )


class GuaranteedSampleEstimator(Estimator):
    """Uniform per-table reservoirs with a distribution-free guarantee."""

    backend = "sample"

    def __init__(
        self,
        database: Database,
        statistics=None,
        *,
        sample_size: int = 512,
        delta: float = 0.05,
        seed: int = 0,
        name: str | None = None,
    ):
        if sample_size <= 0:
            raise ValueError("sample_size must be positive")
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        super().__init__(
            database,
            statistics,
            None,
            name if name is not None else "GS-Sample",
        )
        self.sample_size = int(sample_size)
        self.delta = float(delta)
        self.seed = int(seed)
        #: table -> (table version, sampled Table)
        self._samples: dict[str, tuple[int, Table]] = {}
        self._sampled_db: Database | None = None
        self._executor: Executor | None = None
        self._estimates = 0
        self._samples_built = 0
        self._estimation_seconds = 0.0

    # -- reservoir maintenance -------------------------------------------
    def _draw_sample(self, table: str, version: int) -> Table:
        """A deterministic uniform row sample of one table.

        The seed mixes the table identity and its catalog version, so a
        rebuild after ``notify_table_update`` draws a *fresh* reservoir
        over the updated data while staying reproducible.
        """
        source = self.database.table(table)
        rows = source.row_count
        size = min(rows, self.sample_size)
        rng = np.random.default_rng(
            (self.seed, zlib.crc32(table.encode("utf-8")), version)
        )
        picked = (
            np.sort(rng.choice(rows, size=size, replace=False))
            if rows > 0
            else np.empty(0, dtype=np.intp)
        )
        data = {
            column: source.data[column][picked]
            for column in source.schema.columns
        }
        self._samples_built += 1
        return Table(source.schema, data)

    def _ensure(self, tables) -> Executor:
        """Refresh stale reservoirs and return an executor over them."""
        dirty = False
        for table in sorted(tables):
            version = self.table_version(table)
            cached = self._samples.get(table)
            if cached is None or cached[0] != version:
                self._samples[table] = (version, self._draw_sample(table, version))
                dirty = True
        if dirty or self._sampled_db is None:
            sampled = Database(self.database.schema)
            for _, sample in self._samples.values():
                sampled.add_table(sample)
            self._sampled_db = sampled
            self._executor = Executor(sampled)
        return self._executor

    def _invalidate_table(self, table: str) -> None:
        self._samples.pop(table, None)
        self._sampled_db = None
        self._executor = None

    # -- estimation -------------------------------------------------------
    def estimate_predicates(self, predicates: PredicateSet) -> EstimationResult:
        predicates = frozenset(predicates)
        self._estimates += 1
        if not predicates:
            return EstimationResult(
                1.0, 0.0, _EMPTY, (), backend=self.backend, error_bound=0.0
            )
        started = time.perf_counter()
        tables = tables_of(predicates)
        executor = self._ensure(tables)
        selectivity = executor.selectivity(predicates, tables)
        smallest = min(
            self._samples[table][1].row_count for table in tables
        )
        bound = sample_error_bound(smallest, len(predicates), self.delta)
        self._estimation_seconds += time.perf_counter() - started
        return EstimationResult(
            selectivity=float(selectivity),
            error=bound,
            decomposition=_EMPTY,
            matches=(),
            coverage=0.0,
            backend=self.backend,
            error_bound=bound,
        )

    # -- observability ----------------------------------------------------
    def reset(self) -> None:
        """Zero the timing accumulator (the explicit cold start);
        the reservoirs themselves survive."""
        self._estimation_seconds = 0.0

    def space_bytes(self) -> float:
        return float(
            sum(
                array.nbytes
                for _, sample in self._samples.values()
                for array in sample.data.values()
            )
        )

    def stats_snapshot(self) -> StatsSnapshot:
        registry = MetricsRegistry()
        registry.gauge("timings.estimation_seconds").set(
            self._estimation_seconds
        )
        registry.counter("counters.estimates").inc(self._estimates)
        registry.counter("counters.samples_built").inc(self._samples_built)
        registry.gauge("caches.sampled_tables").set(float(len(self._samples)))
        meta = {
            "estimator": self.name,
            "backend": self.backend,
            "sample_size": self.sample_size,
            "delta": self.delta,
        }
        if self.snapshot is not None:
            meta["snapshot_version"] = self.snapshot_version
        snapshot = StatsSnapshot.from_registry(registry, meta=meta)
        resilience = dict(snapshot.resilience)
        resilience.update(self.resilience.as_dict())
        return StatsSnapshot(
            timings=snapshot.timings,
            counters=snapshot.counters,
            caches=snapshot.caches,
            catalog=snapshot.catalog,
            service=snapshot.service,
            resilience=resilience,
            plan_cache=snapshot.plan_cache,
            meta=meta,
        )


__all__ = ["GuaranteedSampleEstimator", "sample_error_bound", "VC_CONSTANT"]
