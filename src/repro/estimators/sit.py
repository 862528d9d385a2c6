"""The SIT/DP backend: the paper's ``getSelectivity`` estimator.

:class:`SITEstimator` wires a database, a statistics source and an error
function into the ``getSelectivity`` DP, exposing the operations an
optimizer (or an experiment harness) needs: selectivity and cardinality
of a query and of all its sub-queries.  It is the first (and reference)
implementation of the :class:`~repro.estimators.base.Estimator`
protocol; the peer backends live in :mod:`repro.estimators.bn` and
:mod:`repro.estimators.sampling`.

The statistics source may be a bare :class:`~repro.stats.pool.SITPool`,
a :class:`~repro.catalog.StatisticsCatalog` (the estimator pins the
catalog's current snapshot at construction — refreshes never mutate a
running estimator's statistics) or a
:class:`~repro.catalog.CatalogSnapshot` directly.

Factory helpers build the estimator variants the paper evaluates:
``noSit`` (base statistics only, the traditional optimizer), ``GS-nInd``,
``GS-Diff`` and ``GS-Opt``.

Degradation ladder (:mod:`repro.resilience`): when level 0 finds no
decomposition it can score, the answer drops to level 3, which prefers a
real *fallback estimator* (pass ``fallback_estimator=``, typically a
:class:`~repro.estimators.sampling.GuaranteedSampleEstimator`;
:func:`repro.estimators.create_estimator` wires one automatically) over
the classical 1/3-1/10 magic constants, which remain the terminal rung
when no fallback is configured or the fallback itself fails.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.errors import DiffError, ErrorFunction, NIndError, OptError
from repro.core.get_selectivity import (
    EstimationResult,
    GetSelectivity,
    NoApplicableStatisticsError,
)
from repro.core.plancache import PlanCache
from repro.core.predicates import PredicateSet
from repro.engine.database import Database
from repro.engine.executor import Executor
from repro.engine.expressions import Query
from repro.estimators.base import Estimator, resolve_statistics
from repro.obs.snapshot import StatsSnapshot
from repro.obs.trace import Trace
from repro.resilience import LEVEL_MAGIC, magic_result


class SITEstimator(Estimator):
    """Estimates selectivities/cardinalities of SPJ queries using SITs."""

    backend = "sit"

    def __init__(
        self,
        database: Database,
        statistics,
        error_function: ErrorFunction | None = None,
        sit_driven_pruning: bool = False,
        name: str | None = None,
        strict: bool = False,
        plan_cache: "bool | PlanCache" = False,
        fallback_estimator: Estimator | None = None,
    ):
        super().__init__(database, statistics, error_function, name)
        pool = self.pool
        if self.error_function is None:
            self.error_function = DiffError(pool)
        self.algorithm = GetSelectivity.create(
            pool,
            self.error_function,
            sit_driven_pruning=sit_driven_pruning,
        )
        if name is None:
            self.name = f"GS-{self.error_function.name}"
        #: fail-fast semantics: ``strict=True`` propagates
        #: :class:`~repro.core.get_selectivity.NoApplicableStatisticsError`
        #: to the caller instead of walking the degradation ladder
        self.strict = strict
        #: the level-3 peer estimator (usually the guaranteed-sampling
        #: backend); ``None`` keeps the classical magic constants
        self.fallback_estimator = fallback_estimator
        #: compiled-plan cache (:mod:`repro.core.plancache`), or ``None``.
        #: Opt-in, and only used when it is provably safe: the error
        #: function declares ``plan_stable`` (the compiler itself refuses
        #: any algorithm but the bitmask DP, whose memo it walks).
        #: ``plan_cache=True`` builds a private cache; a :class:`PlanCache`
        #: over this pool is shared with whoever else holds it.
        self.plan_cache: PlanCache | None = None
        if plan_cache is True:
            plan_cache = PlanCache(pool)
        elif isinstance(plan_cache, PlanCache) and plan_cache.pool is not pool:
            raise ValueError("a shared plan cache must pin this pool")
        # (``isinstance``, not truth: an empty cache has length 0)
        if isinstance(plan_cache, PlanCache) and getattr(
            self.error_function, "plan_stable", False
        ):
            self.plan_cache = plan_cache

    # ------------------------------------------------------------------
    def estimate(self, query: Query) -> EstimationResult:
        """Full ``getSelectivity`` result (selectivity, error, decomposition)."""
        return self.estimate_predicates(query.predicates)

    def estimate_predicates(self, predicates: PredicateSet) -> EstimationResult:
        """``getSelectivity`` over a bare predicate set, ladder-protected
        (the sessions' entry point): the compiled-plan replay on a
        template hit, else the full path."""
        predicates = frozenset(predicates)
        cache = self.plan_cache
        if cache is not None:
            result = cache.estimate(predicates)
            if result is not None:
                return result
        return self._run_uncached(predicates)

    # -- the graceful-degradation ladder (repro.resilience) -------------
    def _run_uncached(self, predicates: PredicateSet) -> EstimationResult:
        """Level 0, or walk the ladder when no statistic covers an
        attribute.

        The happy path returns the DP's result object untouched (the
        ``try`` frame is the entire overhead), which is what makes the
        zero-fault path bit-identical to the pre-resilience estimator.
        Successful level-0 results are compiled into the plan cache;
        degraded results never are (the ladder bypasses the cache).
        """
        try:
            result = self.algorithm(predicates)
        except NoApplicableStatisticsError as fault:
            if self.strict:
                raise
            return self._degrade(frozenset(predicates), fault)
        cache = self.plan_cache
        if cache is not None:
            cache.compile(predicates, self.algorithm, result)
        return result

    def _degrade(
        self, predicates: frozenset, fault: NoApplicableStatisticsError
    ) -> EstimationResult:
        """Level 3: the fallback estimator, else the magic constants."""
        telemetry = self.resilience
        telemetry.record_fault(fault)
        fallback = self.fallback_estimator
        if fallback is not None:
            try:
                result = fallback.estimate_predicates(predicates)
            except Exception as exc:  # the ladder must always answer
                telemetry.record_fault(exc)
            else:
                telemetry.record_level(LEVEL_MAGIC)
                return replace(result, degradation_level=LEVEL_MAGIC)
        result = magic_result(predicates)
        telemetry.record_level(result.degradation_level)
        return result

    def subquery_selectivity(self, query: Query, predicates: PredicateSet) -> float:
        """Selectivity of one sub-query; free after :meth:`estimate` thanks
        to the DP's memo table."""
        return self.estimate_predicates(predicates).selectivity

    def subquery_cardinality(self, query: Query, predicates: PredicateSet) -> float:
        predicates = frozenset(predicates)
        sub = query.subquery(predicates)
        return self.subquery_selectivity(query, predicates) * (
            self.database.cross_product_size(sub.tables)
        )

    # -- invalidation ----------------------------------------------------
    def _invalidate_table(self, table: str) -> None:
        """Move the bare pool's version so its plan cache re-derives.

        With an owning catalog the forwarded ``notify_table_update``
        already bumps the versions every cache above keys on; this hook
        covers the bare-pool configuration.  The DP keeps its memo: a
        notify changes no histogram and no membership.
        """
        self.pool.invalidate_derived()
        fallback = self.fallback_estimator
        if fallback is not None and fallback.snapshot is None:
            fallback.notify_table_update(table)

    # ------------------------------------------------------------------
    @property
    def engine(self) -> str:
        """The DP engine in use (``"bitmask"`` or ``"legacy"``)."""
        return self.algorithm.engine

    @property
    def view_matching_calls(self) -> int:
        return self.algorithm.matcher.calls

    @property
    def analysis_seconds(self) -> float:
        return self.algorithm.analysis_seconds

    @property
    def estimation_seconds(self) -> float:
        return self.algorithm.estimation_seconds

    def space_bytes(self) -> float:
        """Bytes held by the pool's histograms (the SIT footprint)."""
        return sum(sit.space_bytes for sit in self.pool)

    # -- observability --------------------------------------------------
    @property
    def trace(self) -> Trace | None:
        """The attached trace, or ``None`` when tracing is disabled."""
        return self.algorithm.trace

    def enable_tracing(self, trace: Trace | None = None) -> Trace:
        """Turn on per-stage tracing for this estimator's whole path."""
        return self.algorithm.enable_tracing(trace)

    def disable_tracing(self) -> None:
        self.algorithm.disable_tracing()

    def stats_snapshot(self) -> StatsSnapshot:
        """The unified observability snapshot (``StatsSnapshot`` schema),
        tagged with this estimator's identity (and pinned snapshot
        version, when serving from a catalog)."""
        snapshot = self.algorithm.stats_snapshot()
        meta = dict(snapshot.meta)
        meta.update(
            {
                "estimator": self.name,
                "error_function": self.error_function.name,
                "backend": self.backend,
            }
        )
        if self.snapshot is not None:
            meta["snapshot_version"] = self.snapshot_version
        resilience = dict(snapshot.resilience)
        resilience.update(self.resilience.as_dict())
        plan_cache = dict(snapshot.plan_cache)
        if self.plan_cache is not None:
            for key, value in self.plan_cache.status().items():
                plan_cache[key] = float(value)
        return StatsSnapshot(
            timings=snapshot.timings,
            counters=snapshot.counters,
            caches=snapshot.caches,
            catalog=snapshot.catalog,
            service=snapshot.service,
            resilience=resilience,
            plan_cache=plan_cache,
            meta=meta,
        )

    def reset(self) -> None:
        """The explicit cold start: clear memoization and counters (e.g.
        between workload queries when measuring per-query costs)."""
        self.algorithm.reset()


# ----------------------------------------------------------------------
# The paper's estimator variants
# ----------------------------------------------------------------------
def make_gs_nind(database: Database, statistics, **kwargs) -> SITEstimator:
    """GS-nInd: getSelectivity counting independence assumptions."""
    return SITEstimator(
        database, statistics, NIndError(), name="GS-nInd", **kwargs
    )


def make_gs_diff(database: Database, statistics, **kwargs) -> SITEstimator:
    """GS-Diff: getSelectivity with the distribution-aware error function."""
    pool, _ = resolve_statistics(statistics)
    return SITEstimator(
        database, statistics, DiffError(pool), name="GS-Diff", **kwargs
    )


def make_gs_opt(
    database: Database, statistics, executor: Executor | None = None, **kwargs
) -> SITEstimator:
    """GS-Opt: the theoretical optimum (true per-factor errors)."""
    executor = executor if executor is not None else Executor(database)
    return SITEstimator(
        database, statistics, OptError(executor), name="GS-Opt", **kwargs
    )


def make_nosit(database: Database, statistics, **kwargs) -> SITEstimator:
    """noSit: the traditional optimizer — base-table histograms only."""
    pool, _ = resolve_statistics(statistics)
    return SITEstimator(
        database, pool.base_only(), NIndError(), name="noSit", **kwargs
    )


__all__ = [
    "SITEstimator",
    "make_gs_diff",
    "make_gs_nind",
    "make_gs_opt",
    "make_nosit",
]
