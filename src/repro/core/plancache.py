"""Compiled-plan cache: plan/parameter separation for template workloads.

Production estimation traffic is template-heavy: the same query *shape*
(tables, columns and operator kinds) recurs over and over with different
constants.  The ``getSelectivity`` DP (Figure 3) re-derives the same
winning decomposition and re-runs SIT matching for every instance, yet
for a fixed pool and a plan-stable error function every decision the DP
makes — adjacency and separability, Section 3.3 candidate matching and
maximality, NInd/Diff factor errors, coverage, and the canonical
(size, str-lex) tie-break — depends only on the shape, never on the
filter constants.  This module exploits that invariance:

* :func:`shape_fingerprint` abstracts the constants out of a predicate
  set: each join predicate is its own (constant-free) token, each filter
  collapses to ``("F", attribute)``, and tokens are listed in the
  ``str``-sorted order of the *concrete* predicates.  Pinning the
  positional order makes the fingerprint strong enough that two sets
  with equal fingerprints provably drive the DP through identical
  decisions (the tie-break compares global str ranks, which the
  positional fingerprint fixes).  Instantiations of one SQL template
  whose constants permute the filter sort order land in different
  fingerprints — a deliberate trade of hit rate for bit-identity; the
  variants are bounded and the cache simply warms once per ordering.
  Each predicate builds its ``str`` text and its token when it is
  constructed, so a fingerprint is a sort and a gather, no formatting.

* :func:`compile_plan` walks the DP memo after a successful level-0
  estimation and freezes the winning multiplication tree into an
  immutable :class:`CompiledPlan`: per conditional factor, the
  constant-free histogram-join product, the post-join histogram each
  filter attribute reads, and position indices (into the str-sorted
  predicate list) for rebuilding ``Factor`` / ``AttributeMatch``
  objects with fresh constants.

* :meth:`CompiledPlan.replay` re-estimates a new instantiation by
  replaying only the filter-range lookups over the frozen plan —
  microseconds instead of the full ``O(3^n)`` enumeration — and is
  *bit-identical* to the cold DP because every floating-point operation
  of ``estimate_factor`` and the DP's multiplication tree is replayed
  in the exact same order.  The plan precomputes that once, as flat
  steps one loop runs: a subtree with no filter lookup is folded to its
  float, a conditional chain multiplies innermost-first, and each
  filter slot holds its histogram's bound range lookup.  A replay computes the
  *number*: the result it returns has
  every scalar field set, and builds ``decomposition`` and ``matches``
  (:meth:`CompiledPlan.provenance`) the first time either is read —
  EXPLAIN and the compile-time self-check read them, the request path
  (the advisor's feedback sink included) does not.

* :class:`PlanCache` keys plans by shape fingerprint under one pinned
  pool object and rides the catalog's single invalidation path: every
  lookup revalidates the pool's derived-state ``version`` counter
  (bumped by ``notify_table_update``), evicting all plans on mismatch —
  the one reader of that counter.  A plan is a function of the pool
  alone, whose membership is fixed when it is built, so a notify —
  which bumps the version of the same pool object — keeps the cache
  object; only a snapshot over another pool object needs another one.
  One cache may be shared by every session over its pool, and read by
  threads that own none: a probe takes no lock, writes take one.

Compile safety gates (all checked before a plan is cached):

1. the error function must declare ``plan_stable = True``
   (:class:`~repro.core.errors.NIndError` and
   :class:`~repro.core.errors.DiffError` do; ``OptError`` executes
   queries with the concrete constants and must not be cached);
2. no SIT expression in the pool may contain a filter predicate
   (filters in expressions would make candidate matching and DiffError's
   ``expression_member`` probes constant-dependent); checked once per
   pool;
3. only level-0 (non-degraded) results are compiled: the degradation
   ladder's answers bypass the cache entirely;
4. the compiled plan is self-verified once against the result it was
   compiled from (selectivity, matches, decomposition) — a structural
   mismatch silently refuses to cache rather than risking drift.
"""

from __future__ import annotations

import threading
from collections import namedtuple
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Iterable, Sequence

from repro.core.get_selectivity import EstimationResult, GetSelectivity
from repro.core.matching import (
    AttributeMatch,
    FactorMatch,
    JoinMemo,
    conditioned_sit_names,
    join_factor,
)
from repro.core.predicates import Attribute, Predicate, PredicateSet, by_str
from repro.core.predicates import filter_text
from repro.core.selectivity import Decomposition, Factor
from repro.histograms.base import Histogram
from repro.stats.pool import SITPool


# ----------------------------------------------------------------------
# Shape fingerprinting
# ----------------------------------------------------------------------
_token = attrgetter("_token")


def shape_fingerprint(
    predicates: Iterable[Predicate],
) -> tuple[tuple, tuple[Predicate, ...]]:
    """The template identity of a predicate set, constants abstracted out.

    Returns ``(fingerprint, ordered)`` where ``ordered`` is the
    predicates in their concrete ``str``-sorted order (the order every
    position index of a compiled plan refers to) and ``fingerprint`` is
    the per-position token tuple: joins keep their full (constant-free)
    identity, filters keep only their attribute.  Both the sort key and
    each position's token were built with the predicate.
    """
    ordered = tuple(sorted(predicates, key=by_str))
    return tuple(map(_token, ordered)), ordered


#: a predicate as :func:`bounds_fingerprint` sees it: text, token, a filter's bounds
BoundsRow = namedtuple("BoundsRow", "text token low high")
_row = tuple.__new__
_row_token = itemgetter(1)


def bounds_fingerprint(ranges: dict, joins: Iterable) -> tuple[tuple, list[BoundsRow]]:
    """:func:`shape_fingerprint` of ``joins`` and a filter per ``ranges``
    item, ``ordered`` as :class:`BoundsRow` s, sorted by the filters' own
    texts: this statement's constants decide them, and they are distinct."""
    rows = [_row(BoundsRow, (join._str, join._token, None, None)) for join in joins]
    for attribute, (low, high) in ranges.items():
        pieces = attribute.__dict__.get("_pieces") or attribute._filter_pieces()
        text = filter_text(pieces[3], low, high)
        rows.append(_row(BoundsRow, (text, pieces[2], low, high)))
    rows.sort()
    return tuple(map(_row_token, rows)), rows


# ----------------------------------------------------------------------
# Compiled-plan data model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _FilterSlot:
    """One filter-range lookup of a factor replay.

    ``histogram`` is the histogram ``estimate_factor`` reads for this
    attribute *after* all of the factor's joins ran — either the matched
    SIT's histogram or a join-derived one; both are constant-free.
    ``positions`` index the filter predicates (in the str-ordered
    predicate list) whose ranges are intersected for the lookup.
    """

    attribute: Attribute
    histogram: Histogram
    positions: tuple[int, ...]


@dataclass(frozen=True)
class _AttributeTemplate:
    """Positions-based recipe for rebuilding one ``AttributeMatch``."""

    attribute: Attribute
    weight: float
    sit: object
    conditioning_positions: tuple[int, ...]
    assumed_positions: tuple[int, ...]


@dataclass(frozen=True)
class _FactorTemplate:
    """One conditional factor of the plan, constants separated out.

    ``join_selectivity`` is the left-fold product of the factor's
    histogram-join selectivities (the exact float the cold path
    computes); ``zero`` records an early exit inside the join loop, in
    which case the factor is identically ``0.0`` for every constant
    assignment and ``filter_slots`` is empty.
    """

    p_positions: tuple[int, ...]
    q_positions: tuple[int, ...]
    join_selectivity: float
    zero: bool
    filter_slots: tuple[_FilterSlot, ...]
    attribute_templates: tuple[_AttributeTemplate, ...]


class PlanCompileError(Exception):
    """Internal: the DP memo did not support a faithful compilation."""


@dataclass(frozen=True)
class CompiledPlan:
    """An immutable compiled estimation plan for one shape.

    ``templates`` lists the plan's conditional factors in the order the
    DP's result reports them (head-first along conditional chains,
    component order across separable splits); ``tree`` is the nested
    multiplication tree over template indices —
    ``("c", index, tail_or_None)`` for a conditional node,
    ``("s", (child, ...))`` for a separable split — and ``program`` is
    that tree as the steps a replay runs, in the exact association order
    of the cold DP.  ``error`` and ``coverage``
    are constant-free and stored verbatim.
    """

    fingerprint: tuple
    templates: tuple[_FactorTemplate, ...]
    tree: tuple | None
    error: float
    coverage: float
    weight_bytes: int
    matched_sits: tuple[str, ...]
    #: the replay as flat steps (:func:`_emit`), built with the plan
    program: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        steps: list[tuple] = []
        _emit(self.tree, self.templates, steps)
        object.__setattr__(self, "program", tuple(steps))

    # ------------------------------------------------------------------
    def replay(self, ordered: Sequence[Predicate]) -> EstimationResult:
        """Re-estimate with new constants; bit-identical to the cold DP."""
        return EstimationResult.replayed(self, ordered, self.selectivity(ordered))

    def selectivity(self, ordered: "Sequence[Predicate | BoundsRow]") -> float:
        """The number: the one loop of every replay, of either sequence."""
        return _run(self.program, ordered)

    # ------------------------------------------------------------------
    def provenance(
        self, ordered: Sequence[Predicate]
    ) -> tuple[Decomposition, tuple[FactorMatch, ...]]:
        """The decomposition and SIT matches behind a replay of
        ``ordered`` — what the cold DP would have reported.  Built when a
        replayed result's ``decomposition`` or ``matches`` is first read
        (the fields' descriptor in :mod:`repro.core.get_selectivity`), not
        on the request path."""
        matches = tuple(
            _rebuild_match(template, ordered) for template in self.templates
        )
        return Decomposition(tuple(m.factor for m in matches)), matches


# ----------------------------------------------------------------------
# Replay: the flat program, and provenance when it is read
# ----------------------------------------------------------------------
#: the step kinds of a program, each step ``(kind, number, slots)``
_FACTOR, _CONST, _PUSH, _FOLD = range(4)
_PUSH_STEP = (_PUSH, 1.0, ())
_FOLD_STEP = (_FOLD, 1.0, ())


def _run(program: tuple, ordered: "Sequence[Predicate | BoundsRow]") -> float:
    """Run a plan's steps over ``ordered``.  ``acc`` is the product being
    built, 1.0 at the start of every subtree:

    * ``_FACTOR`` — ``estimate_factor`` with the joins pre-multiplied
      (``number``; same float ops, same order, same early exits to 0.0),
      then ``acc = value * acc``: a conditional node's factor times its
      tail, the tail's steps having run first;
    * ``_CONST`` — ``acc = number``, a subtree folded when the plan was built;
    * ``_PUSH`` / ``_FOLD`` — around each component of a separable split,
      whose left fold is ``acc = stack.pop() * acc``.

    Each slot is ``(lookup, first, rest)``: its histogram's bound
    ``estimate_range_selectivity`` and the positions of the filters whose
    ranges it intersects (the first one's bounds start the max / min, as
    they would from ``-inf`` / ``inf``).
    """
    acc = 1.0
    stack = []
    for kind, number, slots in program:
        if kind == _FACTOR:
            for lookup, first, rest in slots:
                predicate = ordered[first]
                low = predicate.low
                high = predicate.high
                for position in rest:
                    predicate = ordered[position]
                    if predicate.low > low:
                        low = predicate.low
                    if predicate.high < high:
                        high = predicate.high
                if low > high:
                    number = 0.0
                    break
                number *= lookup(low, high)
                if number == 0.0:
                    number = 0.0
                    break
            acc = number * acc
        elif kind == _CONST:
            acc = number
        elif kind == _PUSH:
            stack.append(acc)
            acc = 1.0
        else:
            acc = stack.pop() * acc
    return acc


def _emit(node: tuple | None, templates: Sequence[_FactorTemplate], steps: list) -> None:
    """Append the steps that leave ``node``'s product in ``acc``.

    The DP's tree (`_realize`): ``("c", index, tail)`` is the factor
    times its tail (the empty tail is 1.0), ``("s", children)`` a left
    fold from 1.0 over the components.  A subtree with no filter lookup —
    its factors join-only or zero — is run once here and kept as its float.
    """
    if node is None:
        return
    start = len(steps)
    if node[0] == "c":
        _emit(node[2], templates, steps)
        template = templates[node[1]]
        slots = tuple(
            (slot.histogram.estimate_range_selectivity, slot.positions[0], slot.positions[1:])
            for slot in template.filter_slots
        )
        steps.append((_FACTOR, 0.0 if template.zero else template.join_selectivity, slots))
    else:
        for child in node[1]:
            steps.append(_PUSH_STEP)
            _emit(child, templates, steps)
            steps.append(_FOLD_STEP)
    subtree = steps[start:]
    if not any(slots for _, _, slots in subtree):
        steps[start:] = [(_CONST, _run(tuple(subtree), ()), ())]


def _rebuild_match(
    template: _FactorTemplate, ordered: Sequence[Predicate]
) -> FactorMatch:
    p = frozenset(ordered[i] for i in template.p_positions)
    q = frozenset(ordered[i] for i in template.q_positions)
    attribute_matches = tuple(
        AttributeMatch(
            attribute=at.attribute,
            weight=at.weight,
            sit=at.sit,
            conditioning=frozenset(
                ordered[i] for i in at.conditioning_positions
            ),
            assumed=frozenset(ordered[i] for i in at.assumed_positions),
        )
        for at in template.attribute_templates
    )
    return FactorMatch(Factor(p, q), attribute_matches)


# ----------------------------------------------------------------------
# Compilation: memo walk -> CompiledPlan
# ----------------------------------------------------------------------
def _compile_factor(
    match: FactorMatch, position_of: dict[Predicate, int], memo: JoinMemo
) -> _FactorTemplate:
    factor = match.factor
    attribute_templates = tuple(
        _AttributeTemplate(
            attribute=am.attribute,
            weight=am.weight,
            sit=am.sit,
            conditioning_positions=tuple(
                sorted(position_of[p] for p in am.conditioning)
            ),
            assumed_positions=tuple(
                sorted(position_of[p] for p in am.assumed)
            ),
        )
        for am in match.attribute_matches
    )
    # estimate_factor's join half freezes the constant-free join product
    # and the post-join histogram each filter attribute reads (Example
    # 3's derived-histogram chaining); through the DP's memo these are
    # the very joins line 16 ran, not a second round of them.
    selectivity, histograms = join_factor(match, memo=memo)
    zero = selectivity == 0.0
    filter_slots: tuple[_FilterSlot, ...] = ()
    if not zero:
        positions_by_attribute: dict[Attribute, list[int]] = {}
        for predicate in factor.p:
            if not predicate.is_join:
                positions_by_attribute.setdefault(
                    predicate.attribute, []
                ).append(position_of[predicate])
        filter_slots = tuple(
            _FilterSlot(
                attribute=attribute,
                histogram=histograms[attribute],
                positions=tuple(sorted(positions_by_attribute[attribute])),
            )
            for attribute in sorted(positions_by_attribute)
        )
    return _FactorTemplate(
        p_positions=tuple(sorted(position_of[p] for p in factor.p)),
        q_positions=tuple(sorted(position_of[p] for p in factor.q)),
        join_selectivity=selectivity,
        zero=zero,
        filter_slots=filter_slots,
        attribute_templates=attribute_templates,
    )


def _plan_weight(templates: tuple[_FactorTemplate, ...]) -> int:
    """A documented *upper bound* on a plan's resident bytes: fixed
    overhead per template plus the bucket arrays of the join-derived
    histograms its filter slots read (SIT histograms are shared with the
    pool and not charged).  A derived histogram is charged in full to
    every plan that reads it, although plans compiled over one pool
    share it through the pool's join store — so ``PlanCache.bytes``
    overstates what a set of plans over common join cores really keeps
    alive."""
    weight = 512
    for template in templates:
        weight += 256
        weight += 64 * len(template.attribute_templates)
        shared = {
            id(at.sit.histogram) for at in template.attribute_templates
        }
        for slot in template.filter_slots:
            weight += 64
            if id(slot.histogram) not in shared:
                weight += 40 * slot.histogram.bucket_count
    return weight


def _build_tree(mask: int, walk: tuple) -> tuple | None:
    """The multiplication tree under ``mask``, walked off the DP memo;
    each conditional node's compiled factor is appended to ``templates``.

    A module-level function on purpose: a closure recursing through its
    own cell is a reference cycle, and everything it captured would wait
    for a full collection.
    """
    universe, memo, join_memo, position_of, templates = walk
    if not mask:
        return None
    node_result = memo.get(mask)
    if node_result is None:
        raise PlanCompileError("memo entry missing")
    components = universe.components(mask)
    if len(components) > 1:
        return ("s", tuple(_build_tree(component, walk) for component in components))
    if not node_result.matches:
        raise PlanCompileError("non-separable node without a match")
    head = node_result.matches[0]
    p_mask = universe.intern(head.factor.p)
    if p_mask & mask != p_mask:
        raise PlanCompileError("head factor escapes its mask")
    index = len(templates)
    templates.append(_compile_factor(head, position_of, join_memo))
    return ("c", index, _build_tree(mask ^ p_mask, walk))


def compile_plan(
    algorithm: GetSelectivity,
    predicates: PredicateSet,
    result: EstimationResult,
) -> CompiledPlan | None:
    """Freeze a level-0 DP result into a :class:`CompiledPlan`.

    Walks the DP memo to recover the exact multiplication tree the
    result's selectivity was computed through, compiles each conditional
    factor, then self-verifies the plan by replaying it against the very
    predicates it was compiled from — any mismatch returns ``None`` (no
    caching) instead of an unsound plan.
    """
    if result.degradation_level != 0 or getattr(algorithm, "engine", "") != "bitmask":
        return None
    fingerprint, ordered = shape_fingerprint(predicates)
    position_of = {p: i for i, p in enumerate(ordered)}
    universe = algorithm.universe
    templates: list[_FactorTemplate] = []
    walk = (universe, algorithm._memo, algorithm._join_memo, position_of, templates)
    try:
        tree = _build_tree(universe.intern(predicates), walk)
    except (PlanCompileError, KeyError):
        return None
    plan = CompiledPlan(
        fingerprint=fingerprint,
        templates=tuple(templates),
        tree=tree,
        error=result.error,
        coverage=result.coverage,
        weight_bytes=_plan_weight(tuple(templates)),
        matched_sits=conditioned_sit_names(
            at.sit for template in templates for at in template.attribute_templates
        ),
    )
    # One-time self-verification against the compiling instance: the
    # replay must reproduce the cold result exactly (selectivity to the
    # bit, matches and decomposition structurally).
    replayed = plan.replay(ordered)
    if (
        replayed.selectivity != result.selectivity
        or replayed.error != result.error
        or replayed.coverage != result.coverage
        or replayed.matches != result.matches
        or replayed.decomposition != result.decomposition
    ):
        return None
    return plan


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
class PlanCache:
    """Shape-keyed compiled plans for one pinned pool object.

    Coherence contract: a plan is a pure function of the pool, whose
    membership is fixed when it is built, and of the shape, so a plan
    compiled across a ``notify_table_update`` is bit-identical to one
    compiled after it.  The cache is still the one reader of the pinned
    pool's ``version`` counter — the counter
    ``StatisticsCatalog.notify_table_update`` bumps through
    ``SITPool.invalidate_derived`` — and drops *all* plans on a move
    (counted under ``evictions``).  A snapshot over another pool object
    needs another cache.

    Sharing contract: every session over the cache's pool may hold it,
    and a thread that owns no session may read it.  :meth:`probe` takes
    no lock — one version compare, one dict get — and every write takes
    one: the clear on a version move, an insert with its eviction, and
    the counters.
    """

    def __init__(self, pool: SITPool | None, max_plans: int = 512):
        self.pool = pool
        self.max_plans = max_plans
        self._pool_version = pool.version if pool is not None else 0
        #: fingerprint -> plan, in compile order (the eviction order)
        self._plans: dict[tuple, CompiledPlan] = {}
        #: ``cross_product_size`` per table set, filled by a serving
        #: layer that answers from the cache: once per template and pool
        #: version, not once per answer
        self.crosses: dict = {}
        self._lock = threading.Lock()
        self._pool_safe: bool | None = None
        self.hits = 0
        self.misses = 0
        self.compiles = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._plans)

    @property
    def bytes(self) -> int:
        return sum(plan.weight_bytes for plan in list(self._plans.values()))

    @property
    def pool_version(self) -> int:
        """The pool version the cache last emptied itself at."""
        return self._pool_version

    # ------------------------------------------------------------------
    def _moved(self) -> bool:
        pool = self.pool
        return pool is not None and pool.version != self._pool_version

    def _evict_all(self) -> None:
        """The pinned pool's version moved: drop every plan (the
        catalog's single invalidation path)."""
        with self._lock:
            version = self.pool.version
            if version != self._pool_version:
                self.evictions += len(self._plans)
                self._plans.clear()
                self.crosses.clear()
                self._pool_version = version

    def _safe_pool(self) -> bool:
        """Compile gate 2: every SIT expression must be join-only, or SIT
        matching itself would depend on the filter constants."""
        if self._pool_safe is None:
            pool = self.pool
            self._pool_safe = pool is not None and all(
                all(p.is_join for p in sit.expression) for sit in pool
            )
        return self._pool_safe

    # ------------------------------------------------------------------
    def probe(self, fingerprint: tuple) -> CompiledPlan | None:
        """The plan compiled for a shape at the pool's current version,
        or ``None``.  Counts nothing: a serving layer that answers from
        the cache counts its own hits."""
        if self._moved():
            self._evict_all()
        return self._plans.get(fingerprint)

    def plan_for(
        self, predicates: PredicateSet
    ) -> tuple[CompiledPlan | None, tuple[Predicate, ...]]:
        """Probe the cache; counts one hit or miss.  Returns the plan (or
        ``None``) and the str-ordered predicates replay will consume."""
        fingerprint, ordered = shape_fingerprint(predicates)
        plan = self.probe(fingerprint)
        with self._lock:
            if plan is None:
                self.misses += 1
            else:
                self.hits += 1
        return plan, ordered

    def estimate(self, predicates: PredicateSet) -> EstimationResult | None:
        """Template-hit fast path: ``replay``, one call shallower, or
        ``None`` on a shape miss."""
        plan, ordered = self.plan_for(predicates)
        if plan is None:
            return None
        return EstimationResult.replayed(plan, ordered, plan.selectivity(ordered))

    # ------------------------------------------------------------------
    def compile(
        self,
        predicates: PredicateSet,
        algorithm: GetSelectivity,
        result: EstimationResult,
    ) -> CompiledPlan | None:
        """Compile and cache a fresh level-0 result (all gates applied)."""
        if self._moved():
            self._evict_all()
        if (
            result.degradation_level != 0
            or not getattr(algorithm.error_function, "plan_stable", False)
            or not self._safe_pool()
        ):
            return None
        plan = compile_plan(algorithm, predicates, result)
        if plan is None:
            return None
        with self._lock:
            plans = self._plans
            if len(plans) >= self.max_plans:
                drop = max(1, self.max_plans // 4)
                for key in list(plans)[:drop]:
                    del plans[key]
                self.evictions += drop
            plans[plan.fingerprint] = plan
            self.compiles += 1
        return plan

    # ------------------------------------------------------------------
    def status(self) -> dict:
        """JSON-ready counters (the ``plan_cache`` observability block)."""
        total = self.hits + self.misses
        return {
            "plans": len(self._plans),
            "hits": self.hits,
            "misses": self.misses,
            "compiles": self.compiles,
            "evictions": self.evictions,
            "bytes": self.bytes,
            "hit_rate": (self.hits / total) if total else 0.0,
            "pool_version": self._pool_version,
        }


__all__ = [
    "CompiledPlan",
    "PlanCache",
    "bounds_fingerprint",
    "compile_plan",
    "shape_fingerprint",
]
