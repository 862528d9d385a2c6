"""Coupling ``getSelectivity`` with the optimizer's search (Section 4.2).

Every memo entry ``E`` in a group representing ``Sel_R(P)`` splits ``P``
into the entry's parameter ``p_E`` and the predicates of its inputs
``Q_E = P - p_E``, inducing the atomic decomposition

    Sel_R(P) = Sel_R(p_E | Q_E) * Sel_R(Q_E)

where ``Sel_R(Q_E)`` separates into the entry's input groups (which have
already been estimated — groups are processed inputs-first).  Instead of
the full ``O(3^n)`` enumeration, only these memo-induced decompositions
are scored; the paper notes this may miss the globally most accurate
decomposition but imposes almost no overhead on the optimizer.

The pass is a group loop over one :class:`GetSelectivity`: each entry's
``Sel(p_E | Q_E)`` is priced by the DP's own line 12
(:meth:`~GetSelectivity.price_factor` — its universe and scorer), entries are compared by error, and only a group's winner
is materialised and estimated, by the DP's line 16
(:meth:`~GetSelectivity.estimate_winner` — its estimate cache and the
pool's join store).  Matcher calls, cache sizes, timings and the trace
are the DP's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import INFINITE_ERROR, ErrorFunction, merge
from repro.core.get_selectivity import GetSelectivity
from repro.core.matching import ViewMatcher
from repro.engine.database import Database
from repro.engine.expressions import Query
from repro.obs.snapshot import StatsSnapshot
from repro.obs.trace import Trace
from repro.optimizer.explorer import ExplorationResult, explore
from repro.optimizer.memo import Entry, GroupKey
from repro.stats.pool import SITPool


@dataclass
class GroupEstimate:
    """Best estimate found for one memo group."""

    key: GroupKey
    selectivity: float
    error: float
    best_entry: Entry | None


@dataclass
class MemoCoupledEstimator:
    """The Section 4.2 estimator: getSelectivity restricted to the
    decompositions the optimizer's own search induces.

    ``pool`` accepts any statistics source — a bare
    :class:`~repro.stats.pool.SITPool`, a
    :class:`~repro.catalog.StatisticsCatalog` (pinned to its current
    snapshot in ``__post_init__``) or a
    :class:`~repro.catalog.CatalogSnapshot`; the pinned snapshot, if any,
    is kept on :attr:`snapshot`.
    """

    database: Database
    pool: SITPool
    error_function: ErrorFunction
    #: the pinned catalog snapshot (``None`` when built from a bare pool)
    snapshot: object = field(default=None, repr=False)
    #: the DP whose line 12 and line 16 score every entry
    algorithm: GetSelectivity = field(init=False, repr=False)
    entries_scored: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.pool, SITPool):
            from repro.estimators import resolve_statistics

            self.pool, self.snapshot = resolve_statistics(self.pool)
        self.algorithm = GetSelectivity(self.pool, self.error_function)

    @property
    def matcher(self) -> ViewMatcher:
        return self.algorithm.matcher

    @property
    def trace(self) -> Trace | None:
        return self.algorithm.trace

    # ------------------------------------------------------------------
    def enable_tracing(self, trace: Trace | None = None) -> Trace:
        """Attach a :class:`Trace` to the DP and return it."""
        return self.algorithm.enable_tracing(trace)

    def stats_snapshot(self) -> StatsSnapshot:
        """The DP's ledger plus ``counters.entries_scored``."""
        registry = self.algorithm.metrics_registry()
        registry.counter("counters.entries_scored").inc(self.entries_scored)
        meta = {
            "estimator": "MemoCoupled",
            "error_function": self.error_function.name,
            "tracing": self.trace is not None,
        }
        if self.snapshot is not None:
            meta["snapshot_version"] = self.snapshot.version
        return StatsSnapshot.from_registry(registry, meta=meta)

    # ------------------------------------------------------------------
    def estimate(self, query: Query) -> dict[GroupKey, GroupEstimate]:
        """Explore ``query`` and estimate every memo group bottom-up."""
        exploration = explore(query)
        return self.estimate_memo(exploration)

    def estimate_memo(
        self, exploration: ExplorationResult
    ) -> dict[GroupKey, GroupEstimate]:
        memo = exploration.memo
        estimates: dict[GroupKey, GroupEstimate] = {}
        # Inputs always have strictly fewer predicates, so ordering groups
        # by |predicates| processes every entry after its inputs.
        for key in sorted(memo.groups, key=lambda k: (len(k.predicates), str(k))):
            if not key.predicates:  # a GET leaf
                estimates[key] = GroupEstimate(key, 1.0, 0.0, None)
                continue
            best_error = INFINITE_ERROR
            best = None
            for entry in memo.groups[key].entries:
                priced = self._price_entry(entry, estimates)
                if priced is not None and priced[0] < best_error:
                    best_error = priced[0]
                    best = entry, priced
            if best is None:
                estimates[key] = GroupEstimate(key, 1.0, INFINITE_ERROR, None)
                continue
            entry, (error, pair, input_selectivity) = best
            _, factor_selectivity = self.algorithm.estimate_winner(*pair)
            estimates[key] = GroupEstimate(
                key, factor_selectivity * input_selectivity, error, entry
            )
        return estimates

    def selectivity(self, query: Query) -> float:
        """Explore ``query`` and return the root group's selectivity."""
        exploration = explore(query)
        estimates = self.estimate_memo(exploration)
        return estimates[exploration.root].selectivity

    def cardinality(self, query: Query) -> float:
        """Estimated output cardinality via the memo-coupled search."""
        return self.selectivity(query) * self.database.cross_product_size(
            query.tables
        )

    # ------------------------------------------------------------------
    def _price_entry(
        self, entry: Entry, estimates: dict[GroupKey, GroupEstimate]
    ) -> tuple[float, tuple, float] | None:
        """``(error, pair, Sel(Q_E))`` of ``entry``'s decomposition, with
        ``pair`` what line 16 needs should it win; ``None`` when an input
        has no estimate or ``p_E`` no SIT."""
        self.entries_scored += 1
        q_predicates = frozenset()
        input_selectivity = 1.0
        input_error = 0.0
        for input_key in entry.inputs:
            estimate = estimates.get(input_key)
            if estimate is None or estimate.error == INFINITE_ERROR:
                return None
            q_predicates |= input_key.predicates
            input_selectivity *= estimate.selectivity
            input_error = merge(input_error, estimate.error)
        factor_error, pair = self.algorithm.price_factor(
            frozenset((entry.parameter,)), q_predicates
        )
        if pair is None:
            return None
        return merge(factor_error, input_error), pair, input_selectivity
