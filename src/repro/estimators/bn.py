"""The Bayesian-network backend: per-table dependency trees.

Models each table as a tree-shaped Bayesian network over its attributes
(a Chow-Liu tree: the maximum spanning tree of pairwise mutual
information over discretized columns), after Halford et al.
(arXiv:1907.06295): intra-table correlations are captured by the tree's
conditional probability tables, while tables are combined under the
cross-table independence assumption with join selectivities taken from
exact value-frequency overlap of the join columns.

Filters are pushed into the network as soft evidence — a per-attribute
weight vector giving, for every discretized bin, the fraction of the
bin's mass the filter keeps (with a ``1/distinct`` floor for point
predicates and zero weight on the NULL bin) — and the filtered mass is
read out with one leaf-to-root message pass, which is exact on the tree.

Models are built per table from a bounded uniform row sample (bin edges
reuse the base-SIT histogram boundaries when a statistics pool is
supplied, so the network derives from the same scans as the SIT path)
and are version-gated: ``notify_table_update`` bumps the table version
through the catalog's single invalidation path, and the next estimate
lazily rebuilds only the stale table's model.
"""

from __future__ import annotations

import time
import zlib

import numpy as np

from repro.core.get_selectivity import EstimationResult
from repro.core.predicates import (
    Attribute,
    FilterPredicate,
    JoinPredicate,
    PredicateSet,
    tables_of,
)
from repro.core.selectivity import Decomposition
from repro.engine.database import Database
from repro.estimators.base import Estimator
from repro.obs.metrics import MetricsRegistry
from repro.obs.snapshot import StatsSnapshot

_EMPTY = Decomposition(())

#: Laplace smoothing mass added to every CPT cell
ALPHA = 0.5


class _TableModel:
    """One table's Chow-Liu tree: bins, CPTs and per-bin distinct counts."""

    __slots__ = (
        "version",
        "columns",
        "edges",
        "distinct",
        "parent",
        "order",
        "cpt",
        "rows",
    )

    def __init__(self, version: int, columns: list[str], rows: int):
        self.version = version
        self.columns = columns
        self.rows = rows
        #: column -> ascending bin boundaries (k bins -> k+1 edges); the
        #: state space of a column is its k value bins plus one NULL bin
        self.edges: dict[str, np.ndarray] = {}
        #: column -> per-value-bin distinct counts (point-predicate floor)
        self.distinct: dict[str, np.ndarray] = {}
        #: column -> parent column (tree edges; roots map to None)
        self.parent: dict[str, str | None] = {}
        #: children-before-parents evaluation order for message passing
        self.order: list[str] = []
        #: column -> CPT; roots hold the marginal ``P(x)`` (1-d), others
        #: ``P(x | parent)`` as a ``(parent_states, states)`` matrix
        self.cpt: dict[str, np.ndarray] = {}

    def states(self, column: str) -> int:
        return len(self.edges[column])  # k value bins + the NULL bin

    def space_bytes(self) -> float:
        arrays = [*self.edges.values(), *self.distinct.values(), *self.cpt.values()]
        return float(sum(array.nbytes for array in arrays))


class BayesianNetworkEstimator(Estimator):
    """Per-table Chow-Liu trees + exact join-column overlap."""

    backend = "bn"

    def __init__(
        self,
        database: Database,
        statistics=None,
        *,
        max_bins: int = 12,
        build_rows: int = 4096,
        seed: int = 0,
        name: str | None = None,
    ):
        if max_bins < 2:
            raise ValueError("max_bins must be at least 2")
        if build_rows <= 0:
            raise ValueError("build_rows must be positive")
        super().__init__(
            database, statistics, None, name if name is not None else "GS-BN"
        )
        self.max_bins = int(max_bins)
        self.build_rows = int(build_rows)
        self.seed = int(seed)
        self._models: dict[str, _TableModel] = {}
        #: (left, right, left version, right version) -> join selectivity
        self._join_cache: dict[tuple, float] = {}
        self._estimates = 0
        self._models_built = 0
        self._estimation_seconds = 0.0

    # -- model construction ----------------------------------------------
    def _base_edges(self, attribute: Attribute) -> np.ndarray | None:
        """Bin boundaries from the pool's base SIT over ``attribute``.

        Reusing the SIT histogram boundaries keeps the BN derived from
        the same builder scans; boundaries are thinned to ``max_bins``.
        """
        if self.pool is None:
            return None
        for sit in self.pool:
            if sit.is_base and sit.attribute == attribute:
                lows, highs, _, _ = sit.histogram.bucket_arrays()
                if len(lows) == 0:
                    return None
                edges = np.unique(np.concatenate([lows, highs[-1:]]))
                if len(edges) < 2:
                    return None
                if len(edges) > self.max_bins + 1:
                    keep = np.linspace(
                        0, len(edges) - 1, self.max_bins + 1
                    ).round().astype(int)
                    edges = edges[np.unique(keep)]
                return edges
        return None

    def _quantile_edges(self, values: np.ndarray) -> np.ndarray:
        finite = values[~np.isnan(values)]
        if finite.size == 0:
            return np.array([0.0, 1.0])
        quantiles = np.linspace(0.0, 1.0, self.max_bins + 1)
        edges = np.unique(np.quantile(finite, quantiles))
        if len(edges) < 2:  # a constant column still needs one bin
            edges = np.array([edges[0], edges[0] + 1.0])
        return edges

    def _codes(self, values: np.ndarray, edges: np.ndarray) -> np.ndarray:
        """Discretize ``values``; NULLs land in the trailing NULL bin."""
        bins = len(edges) - 1
        null = np.isnan(values)
        codes = np.searchsorted(edges, np.nan_to_num(values), side="right") - 1
        codes = np.clip(codes, 0, bins - 1)
        codes[null] = bins
        return codes.astype(np.intp)

    def _mutual_information(
        self, a: np.ndarray, ka: int, b: np.ndarray, kb: int
    ) -> float:
        joint = np.bincount(a * kb + b, minlength=ka * kb).reshape(ka, kb)
        n = joint.sum()
        if n == 0:
            return 0.0
        pxy = joint / n
        px = pxy.sum(axis=1, keepdims=True)
        py = pxy.sum(axis=0, keepdims=True)
        mask = pxy > 0
        return float(np.sum(pxy[mask] * np.log(pxy[mask] / (px @ py)[mask])))

    def _build_model(self, table: str, version: int) -> _TableModel:
        source = self.database.table(table)
        columns = list(source.schema.columns)
        rows = source.row_count
        model = _TableModel(version, columns, rows)
        self._models_built += 1
        if rows > self.build_rows:
            rng = np.random.default_rng(
                (self.seed, zlib.crc32(table.encode("utf-8")), version)
            )
            picked = np.sort(
                rng.choice(rows, size=self.build_rows, replace=False)
            )
        else:
            picked = slice(None)
        codes: dict[str, np.ndarray] = {}
        for column in columns:
            values = source.data[column][picked]
            edges = self._base_edges(Attribute(table, column))
            if edges is None:
                edges = self._quantile_edges(values)
            model.edges[column] = edges
            codes[column] = self._codes(values, edges)
            bins = len(edges) - 1
            distinct = np.zeros(bins)
            finite = values[~np.isnan(values)]
            if finite.size:
                finite_codes = codes[column][~np.isnan(values)]
                for b in range(bins):
                    distinct[b] = np.unique(finite[finite_codes == b]).size
            model.distinct[column] = distinct
        # -- Chow-Liu: maximum spanning tree of pairwise MI (Prim) --------
        if columns:
            in_tree = {columns[0]}
            model.parent[columns[0]] = None
            remaining = [c for c in columns[1:]]
            mi: dict[tuple[str, str], float] = {}
            for i, a in enumerate(columns):
                for b in columns[i + 1 :]:
                    mi[(a, b)] = mi[(b, a)] = self._mutual_information(
                        codes[a],
                        model.states(a),
                        codes[b],
                        model.states(b),
                    )
            while remaining:
                best, best_parent, best_mi = None, None, -1.0
                for candidate in remaining:  # column order breaks ties
                    for inside in columns:
                        if inside not in in_tree:
                            continue
                        weight = mi[(inside, candidate)]
                        if weight > best_mi:
                            best, best_parent, best_mi = candidate, inside, weight
                in_tree.add(best)
                remaining.remove(best)
                model.parent[best] = best_parent
        # children-before-parents order = reversed BFS from the root
        children: dict[str, list[str]] = {c: [] for c in columns}
        for child, parent in model.parent.items():
            if parent is not None:
                children[parent].append(child)
        frontier = [c for c, p in model.parent.items() if p is None]
        bfs: list[str] = []
        while frontier:
            node = frontier.pop(0)
            bfs.append(node)
            frontier.extend(children[node])
        model.order = bfs[::-1]
        # -- CPTs with Laplace smoothing ----------------------------------
        n = codes[columns[0]].size if columns else 0
        for column in columns:
            states = model.states(column)
            parent = model.parent[column]
            if parent is None:
                counts = np.bincount(codes[column], minlength=states).astype(float)
                model.cpt[column] = (counts + ALPHA) / (n + ALPHA * states)
            else:
                pstates = model.states(parent)
                joint = np.bincount(
                    codes[parent] * states + codes[column],
                    minlength=pstates * states,
                ).reshape(pstates, states).astype(float)
                joint += ALPHA
                model.cpt[column] = joint / joint.sum(axis=1, keepdims=True)
        return model

    def _model(self, table: str) -> _TableModel:
        version = self.table_version(table)
        model = self._models.get(table)
        if model is None or model.version != version:
            model = self._build_model(table, version)
            self._models[table] = model
        return model

    def _invalidate_table(self, table: str) -> None:
        self._models.pop(table, None)
        self._join_cache = {
            key: value
            for key, value in self._join_cache.items()
            if key[0].table != table and key[1].table != table
        }

    # -- inference ---------------------------------------------------------
    def _filter_weights(
        self, model: _TableModel, filters: list[FilterPredicate]
    ) -> dict[str, np.ndarray]:
        """Soft-evidence vectors: kept mass fraction per bin, 0 on NULL."""
        weights: dict[str, np.ndarray] = {}
        for predicate in filters:
            column = predicate.attribute.column
            edges = model.edges[column]
            bins = len(edges) - 1
            weight = np.zeros(bins + 1)  # NULL bin stays 0: NaN fails filters
            distinct = model.distinct[column]
            for b in range(bins):
                low, high = edges[b], edges[b + 1]
                if predicate.low == predicate.high:
                    inside = low <= predicate.low <= high
                    weight[b] = 1.0 / max(1.0, distinct[b]) if inside else 0.0
                elif high > low:
                    overlap = min(predicate.high, high) - max(predicate.low, low)
                    weight[b] = min(1.0, max(0.0, overlap / (high - low)))
                else:
                    weight[b] = 1.0 if predicate.low <= low <= predicate.high else 0.0
            existing = weights.get(column)
            weights[column] = weight if existing is None else existing * weight
        return weights

    def _table_probability(
        self, model: _TableModel, filters: list[FilterPredicate]
    ) -> float:
        """P(all filters) by one upward message pass over the tree."""
        if model.rows == 0:
            return 0.0
        weights = self._filter_weights(model, filters)
        #: node -> product of evidence and incoming child messages
        belief: dict[str, np.ndarray] = {
            column: weights.get(column, np.ones(model.states(column)))
            for column in model.columns
        }
        probability = 1.0
        for column in model.order:  # children before parents
            parent = model.parent[column]
            if parent is None:
                probability *= float(model.cpt[column] @ belief[column])
            else:
                belief[parent] = belief[parent] * (
                    model.cpt[column] @ belief[column]
                )
        return min(1.0, max(0.0, probability))

    def _join_selectivity(self, join: JoinPredicate) -> float:
        """Exact value-frequency overlap of the two join columns."""
        left, right = join.left, join.right
        key = (
            left,
            right,
            self.table_version(left.table),
            self.table_version(right.table),
        )
        cached = self._join_cache.get(key)
        if cached is not None:
            return cached
        lvalues = self.database.column(left)
        rvalues = self.database.column(right)
        denominator = float(lvalues.size) * float(rvalues.size)
        if denominator == 0:
            self._join_cache[key] = 0.0
            return 0.0
        lvalues = lvalues[~np.isnan(lvalues)]
        rvalues = rvalues[~np.isnan(rvalues)]
        luniq, lcounts = np.unique(lvalues, return_counts=True)
        runiq, rcounts = np.unique(rvalues, return_counts=True)
        _, il, ir = np.intersect1d(
            luniq, runiq, assume_unique=True, return_indices=True
        )
        matches = float((lcounts[il] * rcounts[ir]).sum())
        selectivity = matches / denominator
        self._join_cache[key] = selectivity
        return selectivity

    # -- estimation --------------------------------------------------------
    def estimate_predicates(self, predicates: PredicateSet) -> EstimationResult:
        predicates = frozenset(predicates)
        self._estimates += 1
        if not predicates:
            return EstimationResult(1.0, 0.0, _EMPTY, (), backend=self.backend)
        started = time.perf_counter()
        filters: dict[str, list[FilterPredicate]] = {}
        joins: list[JoinPredicate] = []
        for predicate in predicates:
            if predicate.is_join:
                joins.append(predicate)
            else:
                filters.setdefault(predicate.attribute.table, []).append(predicate)
        selectivity = 1.0
        for table in sorted(filters):
            selectivity *= self._table_probability(
                self._model(table), sorted(filters[table], key=str)
            )
        for join in sorted(joins, key=str):
            selectivity *= self._join_selectivity(join)
        self._estimation_seconds += time.perf_counter() - started
        # the error is the count of cross-table independence assumptions
        # (each join factor multiplies two independently-modeled tables)
        assumptions = float(len(joins)) + max(0.0, float(len(filters) - 1))
        return EstimationResult(
            selectivity=float(min(1.0, max(0.0, selectivity))),
            error=assumptions if len(tables_of(predicates)) > 1 else 0.0,
            decomposition=_EMPTY,
            matches=(),
            coverage=0.0,
            backend=self.backend,
        )

    # -- observability ----------------------------------------------------
    def reset(self) -> None:
        """Zero the timing accumulator (the explicit cold start);
        models and the join cache survive."""
        self._estimation_seconds = 0.0

    def space_bytes(self) -> float:
        return float(sum(model.space_bytes() for model in self._models.values()))

    def stats_snapshot(self) -> StatsSnapshot:
        registry = MetricsRegistry()
        registry.gauge("timings.estimation_seconds").set(self._estimation_seconds)
        registry.counter("counters.estimates").inc(self._estimates)
        registry.counter("counters.models_built").inc(self._models_built)
        registry.gauge("caches.table_models").set(float(len(self._models)))
        registry.gauge("caches.join_cache_entries").set(
            float(len(self._join_cache))
        )
        meta = {
            "estimator": self.name,
            "backend": self.backend,
            "max_bins": self.max_bins,
            "build_rows": self.build_rows,
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


__all__ = ["BayesianNetworkEstimator", "ALPHA"]
