"""SIT pools: the sets of available statistics an estimator may use.

The paper's experiments use pools ``J_i`` containing every SIT of the form
``SIT_R(a | Q)`` where ``Q`` is a (connected) set of at most ``i`` join
predicates syntactically present in some workload query and ``a`` is an
attribute of that query whose table participates in ``Q``.  ``J_0``
contains all and only base-table histograms; every ``J_i`` includes them
too ("at most i join predicates").

Separable expressions are excluded per Assumption 1 (minimality of
histograms): a SIT over a cross-product expression is dominated by SITs
over its connected parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator

from repro.core.predicates import (
    Attribute,
    PredicateSet,
    attributes_of,
    connected_components,
    tables_of,
)
from repro.engine.expressions import Query
from repro.stats.builder import SITBuilder
from repro.stats.sit import SIT


@dataclass
class SITPool:
    """A queryable collection of SITs, indexed by attribute.

    Membership is fixed when the pool is built: the SITs are given at
    construction and :attr:`sits` is a tuple.  Every answer over a pool
    is therefore a pure function of the pool and the predicates, and a
    change of membership is a new pool (the catalog publishes one per
    ``add`` / ``remove`` / refresh; :meth:`restrict_joins` and
    :meth:`base_only` build one).
    """

    sits: tuple[SIT, ...] = ()
    _by_attribute: dict[Attribute, list[SIT]] = field(
        init=False, default_factory=dict, repr=False
    )
    _by_member: dict = field(init=False, default_factory=dict, repr=False)
    _expressions_by_attribute: dict[Attribute, list[PredicateSet]] = field(
        init=False, default_factory=dict, repr=False
    )
    #: bumped by :meth:`invalidate_derived` only; its one reader is the
    #: plan cache (:class:`repro.core.plancache.PlanCache`), which drops
    #: its plans when it moves.
    version: int = field(init=False, default=0, repr=False)
    #: derived histograms by operand identity — ``(id(left), id(right),
    #: max_buckets) -> (result, left, right)`` — filled through every
    #: :class:`~repro.core.matching.JoinMemo` over this pool.  A join is
    #: a pure function of two histograms that never change, so the store
    #: lives exactly as long as the pool, across version moves.
    derived_joins: dict = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.sits = tuple(self.sits)
        for sit in self.sits:
            self._by_attribute.setdefault(sit.attribute, []).append(sit)
            for predicate in sit.expression:
                self._by_member.setdefault(predicate, []).append(sit)
            if sit.expression:
                expressions = self._expressions_by_attribute.setdefault(
                    sit.attribute, []
                )
                if sit.expression not in expressions:
                    expressions.append(sit.expression)

    # -- the unified query API -----------------------------------------
    def find(
        self,
        attribute: Attribute | None = None,
        *,
        expression_superset: PredicateSet | None = None,
        expression_member=None,
        base_only: bool = False,
    ) -> list[SIT]:
        """The single SIT-query entry point.

        All criteria are optional and conjunctive:

        * ``attribute`` — SITs built over this attribute;
        * ``expression_superset`` — SITs applicable under a conditioning
          ``Q``: generating expression ``⊆ expression_superset``
          (Section 3.3's candidate condition);
        * ``expression_member`` — SITs whose generating expression
          contains this predicate (Section 3.5's dependence probes);
        * ``base_only`` — restrict to base-table histograms.

        Results preserve pool order.
        """
        if attribute is not None:
            candidates = self._by_attribute.get(attribute, [])
        elif expression_member is not None:
            candidates = self._by_member.get(expression_member, [])
        else:
            candidates = self.sits
        out = []
        for sit in candidates:
            if base_only and not sit.is_base:
                continue
            if (
                expression_member is not None
                and expression_member not in sit.expression
            ):
                continue
            if (
                expression_superset is not None
                and not sit.expression <= expression_superset
            ):
                continue
            out.append(sit)
        return out

    def find_expressions(self, attribute: Attribute) -> list[PredicateSet]:
        """Distinct non-empty generating expressions of SITs on ``attribute``.

        This is the (attribute -> expressions) index Section 3.4's pruning
        needs: a decomposition ``Sel(P'|Q)`` is worth exploring iff some
        attribute of ``P'`` has one of these expressions contained in ``Q``.
        """
        return self._expressions_by_attribute.get(attribute, [])

    def find_base(self, attribute: Attribute) -> SIT | None:
        """The base-table histogram on ``attribute``, if present."""
        for sit in self.find(attribute, base_only=True):
            return sit
        return None

    # -- derived-state invalidation ------------------------------------
    def invalidate_derived(self) -> None:
        """Bump :attr:`version`; membership and histograms are unchanged.

        The catalog's table-update event path calls this, and the plan
        cache over the pool drops its plans on the move.  Nothing else
        reads the version: a DP's memo, its prune masks and
        :attr:`derived_joins` are pure functions of the (fixed) SITs.
        """
        self.version += 1

    def base_only(self) -> "SITPool":
        """The ``J_0`` restriction of this pool (base histograms only)."""
        return SITPool([sit for sit in self.sits if sit.is_base])

    def restrict_joins(self, max_joins: int) -> "SITPool":
        """The ``J_i`` restriction: SITs with at most ``max_joins`` joins."""
        return SITPool([sit for sit in self.sits if sit.join_count <= max_joins])

    def __len__(self) -> int:
        return len(self.sits)

    def __iter__(self) -> Iterator[SIT]:
        return iter(self.sits)

    def __contains__(self, sit: SIT) -> bool:
        return sit in self.sits


def connected_join_subsets(
    joins: PredicateSet, max_size: int
) -> list[PredicateSet]:
    """All non-empty, table-connected subsets of ``joins`` up to ``max_size``."""
    join_list = sorted(joins, key=str)
    subsets: list[PredicateSet] = []
    for size in range(1, min(max_size, len(join_list)) + 1):
        for combo in combinations(join_list, size):
            candidate = frozenset(combo)
            if len(connected_components(candidate)) == 1:
                subsets.append(candidate)
    return subsets


def workload_sit_requests(
    queries: Iterable[Query], max_joins: int
) -> dict[PredicateSet, set[Attribute]]:
    """The (expression -> attributes) map a ``J_{max_joins}`` pool needs.

    An empty-expression entry collects every attribute syntactically present
    in the workload (those get base histograms).
    """
    requests: dict[PredicateSet, set[Attribute]] = {frozenset(): set()}
    for query in queries:
        query_attributes = attributes_of(query.predicates)
        requests[frozenset()].update(query_attributes)
        for expression in connected_join_subsets(query.joins, max_joins):
            expression_tables = tables_of(expression)
            matching = {
                attribute
                for attribute in query_attributes
                if attribute.table in expression_tables
            }
            if matching:
                requests.setdefault(expression, set()).update(matching)
    return requests


def rank_sits(
    sits: Iterable[SIT], join_sets: Iterable[PredicateSet] = ()
) -> list[tuple[SIT, float, int]]:
    """The one ranking of conditioned SITs by expected benefit.

    The score is ``diff_H`` times applicability over one plus the join
    count: a SIT matters only as far as its expression reshapes the
    attribute's distribution (Section 3.5; at ``diff = 0`` it "provides
    no benefit over the base histogram", Example 4), matters more the
    more of the workload can apply it, and small expressions deliver
    most of the accuracy (Section 5.2).  ``join_sets`` holds one
    join-predicate set per workload query or served record;
    applicability is how many of them subsume the SIT's expression, and
    1 for every SIT when the workload is empty.  Base histograms are
    always kept and never ranked.  Returns ``(sit, score,
    applicability)`` rows in ``(-score, str(sit))`` order.
    """
    join_sets = list(join_sets)
    rows = []
    for sit in sits:
        if sit.is_base:
            continue
        applicability = (
            sum(1 for joins in join_sets if sit.expression <= joins)
            if join_sets
            else 1
        )
        score = sit.diff * applicability / (1.0 + sit.join_count)
        rows.append((sit, score, applicability))
    rows.sort(key=lambda row: (-row[1], str(row[0])))
    return rows


def build_workload_pool(
    builder: SITBuilder, queries: Iterable[Query], max_joins: int
) -> SITPool:
    """Build the paper's ``J_{max_joins}`` pool for a workload.

    The returned pool can be cheaply narrowed with
    :meth:`SITPool.restrict_joins` to obtain every smaller ``J_i`` without
    rebuilding, which is how the Figure 7/8 sweeps are produced.
    """
    queries = list(queries)
    requests = workload_sit_requests(queries, max_joins)
    sits: list[SIT] = []
    seen: set[tuple[Attribute, PredicateSet]] = set()
    for expression in sorted(requests, key=lambda e: (len(e), sorted(map(str, e)))):
        attributes = sorted(
            a for a in requests[expression] if (a, expression) not in seen
        )
        if not attributes:
            continue
        for sit in builder.build_many(expression, attributes):
            sits.append(sit)
            seen.add((sit.attribute, expression))
    return SITPool(sits)
