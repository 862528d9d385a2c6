"""Candidate-SIT matching and factor approximation (Section 3.3).

Approximating one decomposition factor ``Sel_R(P|Q)`` proceeds in the three
conceptual steps of the paper:

1. every join predicate in ``P`` is replaced by a pair of *wildcard*
   selection predicates on its operands;
2. the resulting expression is split with the separable-decomposition
   property into table-connected components, partitioning ``Q`` into
   per-component conditionings ``Q_c``;
3. inside each component every required attribute is matched against the
   available SITs: a candidate is any ``SIT(a|Q')`` with ``Q' ⊆ Q_c`` and
   ``Q'`` *maximal* (no other candidate strictly between ``Q'`` and
   ``Q_c``).  The error function picks among maximal candidates.

The same module implements the actual numeric approximation
(:func:`estimate_factor`): join predicates are estimated by histogram-
joining the matched SITs — each join also *derives* a new histogram that
downstream predicates on the same attribute use (Example 3) — and filter
predicates by range lookups.

:class:`ViewMatcher` owns the matching logic and counts invocations; the
count is the efficiency metric of the paper's Figure 6 (both
``getSelectivity`` and the GVM baseline share this routine).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from time import perf_counter
from typing import TYPE_CHECKING, Iterator

from repro.core.predicates import (
    Attribute,
    PredicateSet,
    by_str,
)
from repro.core.selectivity import Factor
from repro.histograms.maxdiff import DEFAULT_MAX_BUCKETS
from repro.histograms.operations import join_histograms
from repro.stats.pool import SITPool
from repro.stats.sit import SIT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.errors import ErrorFunction
    from repro.histograms.base import Histogram


@dataclass(frozen=True)
class AttributeMatch:
    """The SIT chosen for one attribute of a factor.

    ``weight`` is the number of predicates (of the factor's ``P``) this
    attribute accounts for: 1 per filter predicate, 0.5 per join operand,
    so weights over a factor sum to ``|P|``.  ``conditioning`` is the
    component conditioning ``Q_c`` and ``assumed = Q_c - Q'`` the predicates
    the approximation assumes independence from.
    """

    attribute: Attribute
    weight: float
    sit: SIT
    conditioning: PredicateSet
    assumed: PredicateSet


@dataclass(frozen=True)
class FactorMatch:
    """A complete SIT assignment for one factor."""

    factor: Factor
    attribute_matches: tuple[AttributeMatch, ...]

    def sit_for(self, attribute: Attribute) -> SIT:
        """The SIT chosen for ``attribute`` in this match."""
        for match in self.attribute_matches:
            if match.attribute == attribute:
                return match.sit
        raise KeyError(f"no match for attribute {attribute}")


@dataclass(frozen=True)
class AttributeCandidates:
    """The maximal candidate SITs for one attribute of a factor."""

    attribute: Attribute
    weight: float
    conditioning: PredicateSet
    candidates: tuple[SIT, ...]


@dataclass(frozen=True)
class FactorCandidates:
    """Per-attribute maximal candidate lists for one factor."""

    factor: Factor
    attributes: tuple[AttributeCandidates, ...]


@dataclass
class ViewMatcher:
    """Finds candidate SITs for factors; the shared 'view matching routine'.

    ``calls`` counts factor-level invocations — the quantity Figure 6 of the
    paper reports for both getSelectivity and GVM.
    """

    pool: SITPool
    calls: int = 0
    #: opt-in :class:`repro.obs.trace.Trace`; ``None`` == disabled, costing
    #: one branch per instrumented site (set via
    #: ``GetSelectivity.enable_tracing`` or directly).
    trace: object = field(default=None, repr=False)
    _attribute_cache: dict[tuple[Attribute, PredicateSet], tuple[SIT, ...]] = field(
        init=False, default_factory=dict, repr=False
    )
    _factor_cache: dict[tuple[PredicateSet, PredicateSet], FactorCandidates | None] = (
        field(init=False, default_factory=dict, repr=False)
    )

    def reset_counter(self) -> None:
        """Zero the view-matching call counter (caches are kept)."""
        self.calls = 0

    def clear_caches(self) -> None:
        """Forget every cached candidate list (pure functions of the
        pool: refilled on demand).  Their keys hold predicates with their
        constants, so a caller whose traffic keeps bringing fresh ones
        calls this when it starts its own tables over."""
        self._attribute_cache.clear()
        self._factor_cache.clear()

    def count_invocation(self) -> None:
        """Record one logical view-matching invocation (Figure 6 metric).

        A caller that prices or caches matches itself (``getSelectivity``'s
        scorer, which the memo-coupled estimator prices through too, and
        the legacy oracle's factor-match cache) counts here exactly once
        per logical request and looks candidates up with
        ``candidates_for_factor(..., count=False)`` — otherwise a cold
        request would be double-counted (once by the caller, once by the
        lookup).
        """
        self.calls += 1

    # ------------------------------------------------------------------
    def candidates_for_factor(
        self, factor: Factor, count: bool = True
    ) -> FactorCandidates | None:
        """Steps 1-3 of Section 3.3; ``None`` when some attribute has no
        candidate SIT at all (the decomposition gets error infinity).

        With ``count=True`` (the default) this is counted as one logical
        invocation (the paper's Figure 6 metric); results are cached, so
        repeated invocations are cheap but still counted.  Callers doing
        their own per-invocation accounting via :meth:`count_invocation`
        pass ``count=False`` so each logical invocation is counted exactly
        once.
        """
        if count:
            self.calls += 1
        key = (factor.p, factor.q)
        if key in self._factor_cache:
            return self._factor_cache[key]
        result = self._compute_factor_candidates(factor)
        self._factor_cache[key] = result
        return result

    def _compute_factor_candidates(self, factor: Factor) -> FactorCandidates | None:
        weights = _attribute_weights(factor.p)
        component_of = _component_assignment(factor, weights)
        attribute_candidates: list[AttributeCandidates] = []
        for attribute in sorted(weights):
            conditioning = component_of[attribute]
            candidates = self.maximal_candidates(attribute, conditioning)
            if not candidates:
                return None
            attribute_candidates.append(
                AttributeCandidates(
                    attribute, weights[attribute], conditioning, candidates
                )
            )
        return FactorCandidates(factor, tuple(attribute_candidates))

    def candidates_for_attribute(
        self, attribute: Attribute, conditioning: PredicateSet
    ) -> tuple[SIT, ...]:
        """Per-attribute entry point used by the GVM baseline; counted as a
        view-matching invocation like :meth:`candidates_for_factor`.

        Unlike :meth:`maximal_candidates` this returns *every* applicable
        SIT (largest expressions first): GVM needs the non-maximal
        fallbacks because its single-plan compatibility constraint can rule
        the maximal ones out.
        """
        self.calls += 1
        applicable = self.pool.find(
            attribute, expression_superset=conditioning
        )
        applicable.sort(key=lambda sit: (-len(sit.expression), str(sit)))
        trace = self.trace
        if trace is not None:
            trace.count("sit_candidates_considered", len(applicable))
            trace.count("sit_candidates_matched", len(applicable))
        return tuple(applicable)

    def maximal_candidates(
        self, attribute: Attribute, conditioning: PredicateSet
    ) -> tuple[SIT, ...]:
        """All ``SIT(attribute|Q')`` with ``Q' ⊆ conditioning``, ``Q'``
        maximal (Section 3.3's candidate definition)."""
        key = (attribute, conditioning)
        maximal = self._attribute_cache.get(key)
        if maximal is None:
            applicable = self.pool.find(
                attribute, expression_superset=conditioning
            )
            maximal = tuple(
                sorted(
                    (
                        sit
                        for sit in applicable
                        if not any(
                            sit.expression < other.expression
                            for other in applicable
                        )
                    ),
                    key=str,
                )
            )
            trace = self.trace
            if trace is not None:
                # Section 3.3 funnel: how many applicable SITs were
                # considered vs. how many survived the maximality filter
                # (cold path only; warm lookups answer from the attribute
                # cache above).
                trace.count("sit_candidates_considered", len(applicable))
                trace.count("sit_candidates_matched", len(maximal))
            self._attribute_cache[key] = maximal
        return maximal


def _attribute_weights(predicates: PredicateSet) -> dict[Attribute, float]:
    """Predicate weight carried by each attribute of ``P`` (step 1)."""
    weights: dict[Attribute, float] = {}
    for predicate in predicates:
        if predicate.is_join:
            for attribute in (predicate.left, predicate.right):
                weights[attribute] = weights.get(attribute, 0.0) + 0.5
        else:
            attribute = predicate.attribute
            weights[attribute] = weights.get(attribute, 0.0) + 1.0
    return weights


def _component_assignment(
    factor: Factor, weights: dict[Attribute, float]
) -> dict[Attribute, PredicateSet]:
    """Step 2: separate the wildcard-transformed factor and map every
    required attribute to its component's share of ``Q``.

    Wildcard selections touch a single table each, so the component
    structure is fully determined by ``Q``'s table links; a union-find
    over table names avoids materializing wildcard predicates.
    """
    parent: dict[str, str] = {}

    def find(table: str) -> str:
        root = table
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[table] != root:
            parent[table], table = root, parent[table]
        return root

    for predicate in factor.q:
        tables = sorted(predicate.tables)
        for table in tables[1:]:
            parent[find(tables[0])] = find(table)

    q_by_root: dict[str, set] = {}
    for predicate in factor.q:
        root = find(next(iter(predicate.tables)))
        q_by_root.setdefault(root, set()).add(predicate)
    frozen_by_root = {root: frozenset(preds) for root, preds in q_by_root.items()}
    empty: PredicateSet = frozenset()
    return {
        attribute: frozen_by_root.get(find(attribute.table), empty)
        if factor.q
        else empty
        for attribute in weights
    }


# ----------------------------------------------------------------------
# Selecting among candidates and estimating the factor
# ----------------------------------------------------------------------
def select_match(
    candidates: FactorCandidates, error_function: "ErrorFunction"
) -> FactorMatch:
    """Choose one SIT per attribute by the error function's ranking."""
    matches = tuple(
        _attribute_match(entry, error_function.rank_candidate(entry))
        for entry in candidates.attributes
    )
    return FactorMatch(candidates.factor, matches)


def enumerate_matches(
    candidates: FactorCandidates, limit: int = 64
) -> Iterator[FactorMatch]:
    """All per-attribute candidate combinations (capped at ``limit``).

    Used by the theoretical GS-Opt variant, which scores every combination
    with the true error instead of a heuristic ranking.
    """
    count = 1
    chosen: list[list[SIT]] = []
    for entry in candidates.attributes:
        count *= len(entry.candidates)
        chosen.append(list(entry.candidates))
    if count > limit:
        # Degrade gracefully: keep only the largest-expression candidate per
        # attribute beyond the cap.
        chosen = [[entry.candidates[0]] for entry in candidates.attributes]

    def recurse(index: int, acc: list[AttributeMatch]) -> Iterator[FactorMatch]:
        if index == len(candidates.attributes):
            yield FactorMatch(candidates.factor, tuple(acc))
            return
        entry = candidates.attributes[index]
        for sit in chosen[index]:
            acc.append(_attribute_match(entry, sit))
            yield from recurse(index + 1, acc)
            acc.pop()

    yield from recurse(0, [])


def _attribute_match(entry: AttributeCandidates, sit: SIT) -> AttributeMatch:
    return AttributeMatch(
        attribute=entry.attribute,
        weight=entry.weight,
        sit=sit,
        conditioning=entry.conditioning,
        assumed=entry.conditioning - sit.expression,
    )


@dataclass(frozen=True)
class ImplicitTerm:
    """One term of the implicit expansion of a factor approximation.

    Estimating ``Sel_R(P|Q)`` with unidimensional SITs implicitly applies a
    chain of atomic decompositions (Example 3): one term per predicate of
    ``P``, conditioned on the previously processed predicates and on the
    factor's ``Q``.  ``context`` is what the term is conditioned on,
    ``covered`` the part actually captured (by the SITs' expressions and by
    derived join histograms); ``assumed = context - covered`` are the
    independence assumptions this term makes.  Error functions price these
    assumptions (Sections 3.2 and 3.5).
    """

    predicate: object
    context: PredicateSet
    covered: PredicateSet
    sits: tuple[SIT, ...]

    @property
    def assumed(self) -> PredicateSet:
        return self.context - self.covered


def implicit_terms(match: FactorMatch) -> list[ImplicitTerm]:
    """The implicit expansion of ``match``'s factor approximation.

    Mirrors :func:`estimate_factor` exactly: joins first (in the same
    deterministic order, merging coverage through derived histograms),
    then filters.  Context is restricted to the predicate's table-connected
    closure — predicates over disjoint tables are independent *exactly*
    (Property 2), so they are never charged.
    """
    factor = match.factor
    conditioning = {am.attribute: am.conditioning for am in match.attribute_matches}
    covered: dict[Attribute, frozenset] = {
        am.attribute: frozenset(am.sit.expression) for am in match.attribute_matches
    }
    backing: dict[Attribute, tuple[SIT, ...]] = {
        am.attribute: (am.sit,) for am in match.attribute_matches
    }
    # Union-find over attributes: two attributes share a component when
    # their tables are linked by the factor's Q predicates (wildcard
    # components, as in step 2 of Section 3.3) or by an already-processed
    # join of P.
    attrs = sorted(covered)
    index_of = {a: i for i, a in enumerate(attrs)}
    parent = list(range(len(attrs)))

    def uf_find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def uf_union(i: int, j: int) -> None:
        ri, rj = uf_find(i), uf_find(j)
        if ri != rj:
            parent[ri] = rj

    table_parent: dict[str, str] = {}

    def table_find(table: str) -> str:
        root = table
        while table_parent.setdefault(root, root) != root:
            root = table_parent[root]
        while table_parent[table] != root:
            table_parent[table], table = root, table_parent[table]
        return root

    for predicate in factor.q:
        tables = sorted(predicate.tables)
        for table in tables[1:]:
            table_parent[table_find(tables[0])] = table_find(table)

    first_for_root: dict[str, int] = {}
    for attribute in attrs:
        root = table_find(attribute.table)
        if root in first_for_root:
            uf_union(first_for_root[root], index_of[attribute])
        else:
            first_for_root[root] = index_of[attribute]

    processed: list = []
    terms: list[ImplicitTerm] = []

    def context_of(predicate) -> PredicateSet:
        roots = {uf_find(index_of[a]) for a in predicate.attributes}
        context: set = set()
        # Q-predicates conditioning any attribute of the (merged) component.
        for attribute in attrs:
            if uf_find(index_of[attribute]) in roots:
                context |= conditioning[attribute]
        # Previously processed P-predicates in the same component.
        for previous in processed:
            if any(uf_find(index_of[a]) in roots for a in previous.attributes):
                context.add(previous)
        return frozenset(context)

    joins = sorted((p for p in factor.p if p.is_join), key=str)
    filters = sorted((p for p in factor.p if not p.is_join), key=str)
    for join in joins:
        context = context_of(join)
        joint_covered = covered[join.left] | covered[join.right]
        terms.append(
            ImplicitTerm(
                join,
                context,
                joint_covered,
                backing[join.left] + backing[join.right],
            )
        )
        merged_cover = joint_covered | {join}
        merged_backing = backing[join.left] + backing[join.right]
        covered[join.left] = covered[join.right] = merged_cover
        backing[join.left] = backing[join.right] = merged_backing
        uf_union(index_of[join.left], index_of[join.right])
        processed.append(join)
    same_attribute_filters: dict[Attribute, set] = {}
    for predicate in filters:
        attribute = predicate.attribute
        # Filters on one attribute are estimated as a single intersected
        # range (see estimate_factor), so their conjunction is exact: the
        # previously processed same-attribute filters count as covered.
        extra = same_attribute_filters.setdefault(attribute, set())
        terms.append(
            ImplicitTerm(
                predicate,
                context_of(predicate),
                covered[attribute] | frozenset(extra),
                backing[attribute],
            )
        )
        extra.add(predicate)
        processed.append(predicate)
    return terms


#: what a factor no SIT assignment exists for scores
NO_MATCH = (math.inf, 0.0, None)


class AttributePick:
    """One row of :class:`FactorScorer`'s per-attribute table: the
    maximal candidates of ``attribute`` under the conditioning
    ``cond_mask`` and the SIT the error function picks among them
    (``None`` when there is no candidate), with its expression as a mask
    and its size (what the pick adds to a factor's coverage)."""

    __slots__ = (
        "attribute", "weight", "cond_mask", "candidates", "sit", "expr_mask", "size"
    )

    def __init__(self, attribute, weight, cond_mask, candidates, sit, expr_mask=0):
        self.attribute = attribute
        self.weight = weight
        self.cond_mask = cond_mask
        self.candidates = candidates
        self.sit = sit
        self.expr_mask = expr_mask
        self.size = 0 if sit is None else len(sit.expression)


class _AttributeTables:
    """:class:`FactorScorer`'s rows for one attribute, fetched once: its
    ``(table, column)`` order key, its row of ``_maximal``, its rows of
    ``_picks`` by weight, its row of ``_ranks`` and its rank price per
    bit (``prices``)."""

    __slots__ = ("attribute", "key", "by_member", "by_weight", "ranks", "prices")

    def __init__(self, attribute, by_member, ranks):
        self.attribute = attribute
        # ``Attribute``'s own order, without its generated comparisons
        self.key = (attribute.table, attribute.column)
        self.by_member = by_member
        self.by_weight: dict[float, dict[int, AttributePick]] = {}
        self.ranks = ranks
        self.prices: dict[int, float] = {}


_order_key = attrgetter("key")


class FactorScorer:
    """Section 3.3 on masks, for the bitmask DP: what the best SIT
    assignment for ``Sel(P'|Q)`` costs, without building it.

    :meth:`score` is steps 1-3 (``candidates_for_factor``), the ranking
    (``select_match``) and the implicit expansion priced per assumption
    (``implicit_terms`` + ``priced_factor_error``) in one pass — the
    frozenset routines stay the reference definition, and every float
    here is added in their order, so the two agree to the bit.  The DP
    asks for ``(error, coverage, picks)`` per ``(P', Q)`` and calls
    :meth:`materialise` on the picks of a winner only.

    Every table is keyed by masks or bits of ``universe`` and so lives
    exactly as long as it does:

    * per ``P'``: its weighted attributes and its predicates in expansion
      order (``_plans``), built from per-bit entries (``_terms``: a
      bit's attributes, its weight share and its row of ``_rows``) and
      per-attribute ones (``_attributes``: its rows of the pick,
      candidate and rank tables);
    * per ``Q``: the component each table is conditioned on
      (``_components``);
    * per ``(attribute, weight)`` and conditioning: the pick
      (``_picks``) — ranking reads the whole conditioning;
    * per attribute and the part of the conditioning a SIT can match —
      its predicates that occur in some SIT expression of the pool, whose
      membership is pinned for the DP's life (``_members``): the maximal
      candidates (``_maximal``).  A SIT expression lies within ``C`` iff
      it lies within ``C & members``, so conditionings that differ only
      in predicates no SIT mentions (filters, for a join-only pool)
      share one matcher call;
    * per candidate expression: its mask (``_expressions``; it lies
      within the conditioning, so interning it never grows the
      universe), and per attribute and assumed mask, for a function with
      a ``rank_price``: the sum of its prices in ``str`` order of the
      assumed bits (``_ranks``) — a candidate's rank key is that sum and
      then ``str(sit)``, ``rank_candidate``'s key float for float, with
      no ``AttributeCandidates``, frozenset difference or sort per
      candidate;
    * per ``(term bit, other bit)``: ``assumption_price`` (``_prices``),
      and per term bit and assumed mask: those prices in ``str`` order of
      the assumed bits (``_rows``) — a term adds its row value by value
      into the running total, ``priced_factor_error``'s flat sum, with no
      predicate, ``str()`` or sort per pair;
    * the bits whose predicate has an attribute no base histogram covers
      (``_unbased``, learned with ``_members``): where there are none,
      every ``P'`` has an unconditioned match (:meth:`based`).

    Holds the universe, the matcher and the error function — never the
    DP that owns it (a retired DP must go without the cycle collector).
    """

    def __init__(self, universe: "PredicateUniverse", matcher: ViewMatcher, error_function):
        self.universe = universe
        self.matcher = matcher
        self.error_function = error_function
        #: the function's per-(attribute, assumed predicate) ranking price;
        #: ``None`` hands ``rank_candidate`` its ``AttributeCandidates``
        self._rank_price = getattr(error_function, "rank_price", None)
        self._plans: dict[int, tuple] = {}
        self._terms: dict[int, tuple] = {}
        self._attributes: dict[Attribute, _AttributeTables] = {}
        self._components: dict[int, dict[str, int]] = {}
        self._picks: dict[tuple[Attribute, float], dict[int, AttributePick]] = {}
        self._maximal: dict[Attribute, dict[int, tuple[SIT, ...]]] = {}
        self._expressions: dict[PredicateSet, int] = {}
        self._ranks: dict[Attribute, dict[int, float]] = {}
        #: universe mask of the predicates some SIT expression holds, over
        #: the first ``_member_bits`` bits
        self._members = 0
        self._member_bits = 0
        self._prices: dict[tuple[int, int], float] = {}
        self._rows: dict[int, dict[int, tuple[float, ...]]] = {}
        #: universe mask of the predicates with an attribute no base
        #: histogram covers, over the first ``_member_bits`` bits
        self._unbased = 0

    # ------------------------------------------------------------------
    def score(
        self, p_mask: int, q_mask: int, trace=None
    ) -> tuple[float, float, tuple | None]:
        """``(error, coverage, picks)`` of the error function's choice for
        ``Sel(P'|Q)``; :data:`NO_MATCH` when some attribute of ``P'`` has
        no candidate SIT.  With a ``trace`` the picking is timed as
        ``factor_matching`` and the pricing as ``error_scoring``."""
        started = None if trace is None else perf_counter()
        plan = self._plans.get(p_mask)
        if plan is None:
            plan = self._plans[p_mask] = self._plan(p_mask)
        component_of = self._components.get(q_mask)
        if component_of is None:
            component_of = self._components[q_mask] = (
                self.universe.components_by_table(q_mask)
            )
        # Steps 2-3 per attribute.  Attributes share a component when Q
        # links their tables (they are then conditioned on the same
        # component of Q) or they sit on one table; a component is named
        # by its first attribute and carries what its terms are
        # conditioned on: its share of Q, then every processed predicate
        # of P' that touches it.
        picks = []
        first: dict = {}
        component = []
        context = []
        covered = []
        coverage = 0
        for weight, table, by_cond, tables in plan[0]:
            cond = component_of.get(table, 0)
            pick = by_cond.get(cond)
            if pick is None:
                pick = self._pick(tables, weight, cond, by_cond, trace)
            if pick.sit is None:
                if started is not None:
                    trace.add_time("factor_matching", perf_counter() - started)
                return NO_MATCH
            component.append(first.setdefault(cond or table, len(picks)))
            context.append(cond)
            covered.append(pick.expr_mask)
            coverage += pick.size
            picks.append(pick)
        if started is not None:
            split = perf_counter()
            trace.add_time("factor_matching", split - started)
            started = split
        # The implicit expansion: joins, then filters, each term charged
        # its row of prices for what it assumes.
        total = 0.0
        for term, bit, rows, left, right in plan[1]:
            into, from_ = component[left], component[right]
            conditioned_on = context[into] | context[from_]
            joint = covered[left] | covered[right]
            assumed = conditioned_on & ~joint
            if assumed:
                row = rows.get(assumed)
                if row is None:
                    row = self._row(term, assumed, rows)
                for value in row:
                    total += value
            # the derived histogram covers both sides and the join itself
            covered[left] = covered[right] = joint | bit
            if into != from_:
                component = [into if c == from_ else c for c in component]
            context[into] = conditioned_on | bit
        for term, bit, rows, attribute in plan[2]:
            home = component[attribute]
            # filters on one attribute are one intersected range: the
            # earlier ones (folded into ``covered``) are exact, not assumed
            assumed = context[home] & ~covered[attribute]
            if assumed:
                row = rows.get(assumed)
                if row is None:
                    row = self._row(term, assumed, rows)
                for value in row:
                    total += value
            covered[attribute] |= bit
            context[home] |= bit
        if started is not None:
            trace.add_time("error_scoring", perf_counter() - started)
        return total, float(coverage), tuple(picks)

    def based(self, mask: int) -> bool:
        """True when every attribute of ``mask``'s predicates has a base
        histogram — then every ``P' ⊆ mask`` has an unconditioned match."""
        if self._member_bits < self.universe.size:
            self._learn_members()
        return not mask & self._unbased

    def _plan(self, p_mask: int) -> tuple:
        """What ``P'`` alone decides: its attributes with their weights
        (step 1, in attribute order, each with its table, its row of the
        pick table and its :class:`_AttributeTables`) and its joins, then
        its filters, in ``str`` order — each with its bit, its mask, its
        row of price rows and the positions of its attributes in the
        first list."""
        terms = self._terms
        ordered = []
        weights: dict[_AttributeTables, float] = {}
        weight_of = weights.get
        for bit in self.universe.sorted_bits(p_mask):
            term = terms.get(bit)
            if term is None:
                term = self._term(bit)
            ordered.append(term)
            share = term[4]
            for tables in term[3]:
                weights[tables] = weight_of(tables, 0.0) + share
        position: dict[_AttributeTables, int] = {}
        attribute_rows = []
        for tables in sorted(weights, key=_order_key):
            position[tables] = len(attribute_rows)
            weight = weights[tables]
            by_cond = tables.by_weight.get(weight)
            if by_cond is None:
                by_cond = tables.by_weight[weight] = self._picks[
                    tables.attribute, weight
                ] = {}
            attribute_rows.append((weight, tables.attribute.table, by_cond, tables))
        joins, filters = [], []
        for bit, mask, term_rows, attribute_tables, _ in ordered:
            if len(attribute_tables) == 2:
                left, right = attribute_tables
                joins.append((bit, mask, term_rows, position[left], position[right]))
            else:
                filters.append((bit, mask, term_rows, position[attribute_tables[0]]))
        return tuple(attribute_rows), tuple(joins), tuple(filters)

    def _term(self, bit: int) -> tuple:
        """A new entry of ``_terms``: ``bit``, its mask, its row of
        ``_rows``, its attributes' tables and their weight share (half
        each for a join's two operands)."""
        attributes = self.universe.attributes(bit)
        rows = self._rows[bit] = {}
        term = self._terms[bit] = (
            bit,
            1 << bit,
            rows,
            tuple(map(self._tables_of, attributes)),
            0.5 if len(attributes) == 2 else 1.0,
        )
        return term

    def _tables_of(self, attribute: Attribute) -> _AttributeTables:
        tables = self._attributes.get(attribute)
        if tables is None:
            maximal = self._maximal[attribute] = {}
            ranks = self._ranks[attribute] = {}
            tables = self._attributes[attribute] = _AttributeTables(
                attribute, maximal, ranks
            )
        return tables

    def _pick(self, tables, weight, cond, by_cond, trace) -> AttributePick:
        """A new row of ``_picks``: the maximal candidates — from
        ``_maximal`` when some conditioning with the same members asked
        before, else from the matcher — and the error function's pick
        among them.  Traced, every new conditioning
        goes to the matcher, whose candidate-funnel counters then count
        what the frozenset path counts."""
        universe = self.universe
        if self._member_bits < universe.size:
            self._learn_members()
        attribute = tables.attribute
        by_member = tables.by_member
        key = cond & self._members
        candidates = by_member.get(key) if trace is None else None
        if candidates is None:
            candidates = by_member[key] = self.matcher.maximal_candidates(
                attribute, universe.set_of(cond)
            )
        if not candidates:
            pick = AttributePick(attribute, weight, cond, candidates, None)
        else:
            if self._rank_price is not None:
                sit, expr_mask = self._rank(tables, cond, candidates)
            else:
                sit = self.error_function.rank_candidate(
                    AttributeCandidates(
                        attribute, weight, universe.set_of(cond), candidates
                    )
                )
                # a candidate's expression lies within the conditioning:
                # interned
                expr_mask = universe.intern(sit.expression)
            pick = AttributePick(attribute, weight, cond, candidates, sit, expr_mask)
        by_cond[cond] = pick
        return pick

    def _rank(self, tables, cond: int, candidates) -> tuple[SIT, int]:
        """``rank_candidate`` on masks: the candidate with the least
        ``(sum of rank prices of what it assumes, str(sit))``, first
        among equals, and its expression mask."""
        expressions = self._expressions
        ranks = tables.ranks
        best = None
        for sit in candidates:
            expression = sit.expression
            expr_mask = expressions.get(expression)
            if expr_mask is None:
                expr_mask = expressions[expression] = self.universe.intern(expression)
            assumed = cond & ~expr_mask
            price = ranks.get(assumed)
            if price is None:
                price = ranks[assumed] = self._rank_sum(tables, assumed)
            if best is None or price < best_price or (
                price == best_price and str(sit) < str(best)
            ):
                best, best_price, best_mask = sit, price, expr_mask
        return best, best_mask

    def _rank_sum(self, tables, assumed: int) -> float:
        """``sum()`` of the rank prices of ``assumed`` in ``str`` order
        of its bits — the sum ``rank_candidate`` takes — each price asked
        of the function once per bit (``tables.prices``)."""
        prices = tables.prices
        values = []
        for other in self.universe.sorted_bits(assumed):
            value = prices.get(other)
            if value is None:
                value = prices[other] = self._rank_price(
                    tables.attribute, self.universe.predicate(other)
                )
            values.append(value)
        return sum(values)

    def _learn_members(self) -> None:
        """Extend ``_members`` and ``_unbased`` over the bits interned
        since the last call."""
        universe = self.universe
        pool = self.matcher.pool
        members, unbased = self._members, self._unbased
        for bit in range(self._member_bits, universe.size):
            if pool.find(expression_member=universe.predicate(bit)):
                members |= 1 << bit
            if any(pool.find_base(a) is None for a in universe.attributes(bit)):
                unbased |= 1 << bit
        self._members, self._unbased = members, unbased
        self._member_bits = universe.size

    def _row(self, term: int, assumed: int, rows: dict) -> tuple[float, ...]:
        """The prices ``term`` pays for assuming ``assumed``, in ``str``
        order of the assumed bits (stored in ``rows``, the term's row of
        ``_rows``).  A price below ``0.0`` (or NaN) raises ``ValueError``
        naming the pair: the DP's lower bound holds only for prices that
        never make a sum smaller."""
        universe = self.universe
        prices = self._prices
        values = []
        for other in universe.sorted_bits(assumed):
            value = prices.get((term, other))
            if value is None:
                predicate, assumed_predicate = (
                    universe.predicate(term),
                    universe.predicate(other),
                )
                value = self.error_function.assumption_price(
                    predicate, assumed_predicate
                )
                if not value >= 0.0:
                    raise ValueError(
                        f"{self.error_function.name} prices assuming "
                        f"{predicate} independent of {assumed_predicate} "
                        f"at {value!r}; an assumption price must be >= 0"
                    )
                prices[term, other] = value
            values.append(value)
        row = rows[assumed] = tuple(values)
        return row

    # ------------------------------------------------------------------
    def materialise(self, p_mask: int, q_mask: int, picks: tuple) -> FactorMatch:
        """The :class:`FactorMatch` ``select_match`` would have built."""
        set_of = self.universe.set_of
        matches = []
        for pick in picks:
            conditioning = set_of(pick.cond_mask)
            matches.append(
                AttributeMatch(
                    pick.attribute,
                    pick.weight,
                    pick.sit,
                    conditioning,
                    conditioning - pick.sit.expression,
                )
            )
        return FactorMatch(Factor(set_of(p_mask), set_of(q_mask)), tuple(matches))

    def picks_of(self, match: FactorMatch) -> tuple:
        """A match an unpriced error function chose, as picks."""
        intern = self.universe.intern
        return tuple(
            AttributePick(am.attribute, am.weight, intern(am.conditioning), (), am.sit)
            for am in match.attribute_matches
        )


class JoinMemo:
    """One DP's view of its pool's derived histograms: every operand pair
    is joined once per pool, whichever factor, plan compiler or session
    over that pool asks.

    The entries live on the pool (``SITPool.derived_joins``), keyed on
    operand *identity*: a pool's SITs and their histograms are fixed
    when it is built (a refresh publishes a new pool with new SIT
    objects, never mutates one), a joined histogram is a pure function
    of its operands, and every entry holds its operands, so an id cannot
    be recycled while an entry naming it lives.  A notify changes no
    histogram, so it keeps every entry.  The view owns only what is per
    DP: its ``hits``, ``misses`` and ``trace``.
    """

    def __init__(self, entries: dict) -> None:
        self.hits = 0
        self.misses = 0
        #: the owning ``GetSelectivity``'s trace (``None`` == disabled)
        self.trace = None
        #: the pool's store, shared with every other view over the pool
        self._entries = entries

    def __len__(self) -> int:
        return len(self._entries)

    def join(self, left, right, max_buckets: int | None):
        """``join_histograms(left, right, max_buckets)``, computed once."""
        key = (id(left), id(right), max_buckets)
        entry = self._entries.get(key)
        trace = self.trace
        if entry is not None:
            self.hits += 1
            if trace is not None:
                trace.count("join_memo_hits")
            return entry[0]
        self.misses += 1
        if trace is None:
            result = join_histograms(left, right, max_buckets=max_buckets)
        else:
            with trace.span("histogram_join"):
                result = join_histograms(left, right, max_buckets=max_buckets)
        # two workers racing on one pair keep the first result, so every
        # later join over a derived histogram is keyed by one object
        return self._entries.setdefault(key, (result, left, right))[0]


def join_factor(
    match: FactorMatch,
    max_buckets: int = DEFAULT_MAX_BUCKETS,
    memo: JoinMemo | None = None,
) -> tuple[float, dict[Attribute, "Histogram"]]:
    """The join half of :func:`estimate_factor` — the one place that joins.

    Joins run in a deterministic order; each replaces both operands'
    histograms with the derived joined histogram so later predicates on
    the same attribute see the refined distribution (Example 3).  Returns
    the left-fold product of the join selectivities (stopping at the
    first exact zero) and the histogram each attribute maps to afterwards.
    """
    join = join_histograms if memo is None else memo.join
    histograms = {am.attribute: am.sit.histogram for am in match.attribute_matches}
    selectivity = 1.0
    for predicate in sorted((p for p in match.factor.p if p.is_join), key=by_str):
        left, right = histograms[predicate.left], histograms[predicate.right]
        result = join(left, right, max_buckets)
        selectivity *= result.selectivity
        histograms[predicate.left] = histograms[predicate.right] = result.histogram
        if selectivity == 0.0:
            break
    return selectivity, histograms


def estimate_factor(
    match: FactorMatch,
    max_buckets: int = DEFAULT_MAX_BUCKETS,
    memo: JoinMemo | None = None,
) -> float:
    """Numerically approximate ``Sel_R(P|Q)`` with the matched SITs.

    Joins are estimated by histogram joins (:func:`join_factor`); filters
    are then estimated from whatever histogram their attribute currently
    maps to.  The factor multiplies all of these — any residual
    independence is exactly what the error functions charge for.
    """
    selectivity, histograms = join_factor(match, max_buckets, memo)
    if selectivity == 0.0:
        return 0.0
    filters = sorted((p for p in match.factor.p if not p.is_join), key=by_str)
    # Filters on the same attribute are intersected (their conjunction is
    # one range), not multiplied under independence.
    ranges: dict[Attribute, tuple[float, float]] = {}
    for predicate in filters:
        low, high = ranges.get(predicate.attribute, (-math.inf, math.inf))
        ranges[predicate.attribute] = (
            max(low, predicate.low),
            min(high, predicate.high),
        )
    for attribute in sorted(ranges):
        low, high = ranges[attribute]
        if low > high:
            return 0.0
        selectivity *= histograms[attribute].estimate_range_selectivity(low, high)
        if selectivity == 0.0:
            return 0.0
    return selectivity
