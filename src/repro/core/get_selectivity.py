"""The ``getSelectivity`` dynamic programming algorithm (Figure 3).

Given tables ``R``, predicates ``P``, a pool of SITs and a monotonic,
algebraic error function, ``getSelectivity`` returns the most accurate
approximation of ``Sel_R(P)`` among all *non-separable* decompositions
(Theorem 1), in ``O(3^n)`` instead of the factorial cost of exhaustive
enumeration (Lemma 1).

Structure follows the paper's pseudo-code:

* one memoization table keyed by the predicate set (lines 1-2), kept
  for the life of the instance so a later request for a sub-plan the
  DP solved is a lookup (Section 4);
* separable selectivities are split into their standard decomposition and
  solved independently (lines 3-7, Lemma 2);
* non-separable ones search the atomic decompositions
  ``Sel(P'|Q) * Sel(Q)`` (lines 9-15), matching SITs for the conditional
  factor through the view-matching routine of Section 3.3 — for a priced
  error function as a branch and bound: a factor's unconditioned error
  bounds every conditioning of it from below, so pairs that cannot win
  are not scored and their tails not solved;
* the winning factor is *estimated* only once, after the search
  (lines 16-17), and only on the answer's chain: a memo node keeps what
  the search compares until an answer reads it — the paper's split
  between "decomposition analysis" and "histogram manipulation" time,
  which Figure 8 reports separately.

The optional SIT-driven pruning of Section 3.4 skips atomic decompositions
whose conditional factor could not possibly use a non-base SIT.

Performance architecture
------------------------
Because ``getSelectivity`` runs inside the optimizer's cardinality-request
loop, per-call latency is the budget.  :class:`GetSelectivity` therefore
runs the whole DP on an interned **bitmask representation**
(:mod:`repro.core.universe`): the memo and the winners' cache key on plain
``int`` masks, submask enumeration is ``sub = (sub - 1) & mask``,
connected components are a bitwise BFS over a precomputed adjacency table,
and Section 3.4 pruning is a single ``expr & ~q == 0`` test per candidate
SIT expression.  Line 12 is priced on masks too
(:class:`repro.core.matching.FactorScorer`): the DP asks what the best SIT
assignment for ``Sel(P'|Q)`` costs, and a solved node keeps only
``(error, coverage)`` and its winner's ``(P', picks)`` (or, separable,
its components).  ``__call__`` then *realizes* the requested mask: a
``FactorMatch`` — and with it every ``frozenset`` — is materialized and
estimated only for the factors of the answer's chain, and each realized
``EstimationResult`` replaces its node in the memo, so
``EstimationResult``, ``Decomposition``, the plan compiler and every
caller are unchanged.

:class:`LegacyGetSelectivity` (reachable as
``GetSelectivity.create(..., engine="legacy")``) preserves the original
frozenset-based implementation verbatim; it is the oracle for the
randomized parity suite (``tests/core/test_bitmask_parity.py``), which
asserts the two paths return bit-identical selectivities, errors and
decompositions.  Exact ties between decompositions are broken by the
canonical (subset size, lexicographic over str-sorted predicates) order in
both paths — the legacy path gets it implicitly from its enumeration
order, the bitmask path from :meth:`PredicateUniverse.tie_break`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator

from repro.core.errors import INFINITE_ERROR, ErrorFunction, merge
from repro.obs.metrics import MetricsRegistry
from repro.obs.snapshot import StatsSnapshot
from repro.obs.trace import Trace
from repro.core.matching import (
    NO_MATCH,
    FactorMatch,
    FactorScorer,
    JoinMemo,
    ViewMatcher,
    enumerate_matches,
    estimate_factor,
    select_match,
)
from repro.core.predicates import PredicateSet, connected_components
from repro.core.selectivity import Decomposition, Factor
from repro.core.universe import PredicateUniverse, iter_bits, iter_submasks
from repro.stats.pool import SITPool


class _Provenance:
    """``decomposition`` / ``matches`` of an :class:`EstimationResult`.

    A non-data descriptor: a value in the instance ``__dict__`` — every
    result the DP builds, and a replayed one once it has been read — is
    found first, so this runs only on the first read of a replayed
    result.  It builds both fields (:meth:`CompiledPlan.provenance`),
    stores them and lets the plan go; two threads reading at once may
    both build, and store equal values.  (Not ``__getattr__`` on the
    class: that puts every attribute read of every result on the slow
    lookup path, and the DP loop reads ``error`` / ``coverage`` per
    ``(P', Q)``.)  Class access raises ``AttributeError``, which is how
    ``dataclass`` is told the field has no default.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, result, owner=None):
        if result is not None:
            state = result.__dict__
            source = state.get("_replayed_from")
            if source is not None:
                plan, ordered = source
                state["decomposition"], state["matches"] = plan.provenance(ordered)
                state.pop("_replayed_from", None)
            if self.name in state:
                return state[self.name]
        raise AttributeError(f"EstimationResult has no attribute {self.name!r}")


@dataclass(frozen=True)
class EstimationResult:
    """Outcome of ``getSelectivity`` for one predicate set.

    ``coverage`` is the total size of the SIT expressions the chosen
    decomposition exploits; it is the *tie-breaker* among equal-error
    decompositions (prefer actually-used conditioning).  Like ``error``
    it is additive under ``E_merge``, so lexicographic ``(error,
    -coverage)`` comparison preserves the DP's principle of optimality.
    """

    selectivity: float
    error: float
    decomposition: Decomposition = _Provenance()
    matches: tuple[FactorMatch, ...] = _Provenance()
    coverage: float = 0.0
    #: graceful-degradation ladder level that produced this estimate
    #: (0 = normal path; see :mod:`repro.resilience`).  Defaulted
    #: so the happy path returns the DP's result object untouched.
    degradation_level: int = 0
    #: True when this result was produced by replaying a compiled plan
    #: (:mod:`repro.core.plancache`) instead of running the DP.  Excluded
    #: from equality: a replay is *defined* to be bit-identical to the
    #: cold run it mirrors, and the parity suites compare results with
    #: ``==`` across the two paths.
    plan_cache_hit: bool = field(default=False, compare=False)
    #: which estimator backend produced this result (``"sit"``, ``"bn"``,
    #: ``"sample"``, or ``"magic"`` for the ladder's terminal constants;
    #: see :mod:`repro.estimators`).  Excluded from equality so parity
    #: comparisons across backends/paths stay value-based.
    backend: str = field(default="sit", compare=False)
    #: distribution-free additive error guarantee on ``selectivity``
    #: (only the guaranteed-sampling backend sets one; see
    #: :mod:`repro.estimators.sampling`).  Excluded from equality like
    #: the other provenance fields.
    error_bound: float | None = field(default=None, compare=False)
    #: worst-case serving-snapshot staleness (seconds) over the tables
    #: this estimate touched, stamped when a
    #: :class:`repro.obs.StalenessTracker` is attached to the session
    #: (``None`` when nothing streams writes).  Excluded from equality:
    #: staleness is provenance about *when* the answer was computed,
    #: not part of its value.
    staleness_s: float | None = field(default=None, compare=False)

    @classmethod
    def replayed(cls, plan, ordered, selectivity: float) -> "EstimationResult":
        """The answer of a compiled-plan replay (``plan`` is the
        :class:`~repro.core.plancache.CompiledPlan`, ``ordered`` the
        request's ``str``-ordered predicates).

        The number and the scalar fields are set here; ``decomposition``
        and ``matches`` — the explanation of the number, which EXPLAIN
        reads and the request path does not — are built from ``plan`` and
        ``ordered`` the first time either is read.
        """
        result = object.__new__(cls)
        # a field left at its default is not stored: a dataclass default
        # is also a class attribute, which a read finds
        state = result.__dict__
        state["selectivity"] = selectivity
        state["error"] = plan.error
        state["coverage"] = plan.coverage
        state["plan_cache_hit"] = True
        state["_replayed_from"] = (plan, ordered)
        return result

    def __getstate__(self) -> dict:
        # a copy or a pickle carries the built provenance, not the plan
        self.matches  # the read builds
        return self.__dict__

    def with_staleness(self, staleness_s: float | None) -> "EstimationResult":
        """This result stamped with ``staleness_s``.  Unlike
        ``dataclasses.replace`` it reads no field, so stamping a replayed
        result does not build its provenance."""
        stamped = object.__new__(type(self))
        stamped.__dict__.update(self.__dict__, staleness_s=staleness_s)
        return stamped

    @property
    def factor_count(self) -> int:
        return len(self.decomposition)

    @property
    def degraded(self) -> bool:
        return self.degradation_level > 0


def _match_coverage(match: FactorMatch) -> float:
    """Total conditioning actually used by a factor's SITs."""
    return float(
        sum(len(am.sit.expression) for am in match.attribute_matches)
    )


_EMPTY_RESULT = EstimationResult(1.0, 0.0, Decomposition(()), ())


class _Node:
    """A solved memo entry no answer has read yet: the ``(error,
    coverage)`` every enclosing search compares, and what line 16 needs
    — the winner's ``p_mask`` and ``picks``, or, for a separable node,
    its ``components`` (then not ``None``).  :meth:`GetSelectivity._realize`
    replaces it with its :class:`EstimationResult`."""

    __slots__ = ("error", "coverage", "p_mask", "picks", "components")

    def __init__(self, error, coverage, p_mask, picks, components):
        self.error = error
        self.coverage = coverage
        self.p_mask = p_mask
        self.picks = picks
        self.components = components


def _separable_product(partials) -> EstimationResult:
    """Lines 3-7: a separable selectivity as the left fold of its
    components' results, in component order."""
    selectivity = 1.0
    error = 0.0
    coverage = 0.0
    decomposition = Decomposition(())
    matches: tuple[FactorMatch, ...] = ()
    for partial in partials:
        selectivity *= partial.selectivity
        error = merge(error, partial.error)
        coverage += partial.coverage
        decomposition = decomposition.merged(partial.decomposition)
        matches = matches + partial.matches
    return EstimationResult(selectivity, error, decomposition, matches, coverage)


#: memo entries a request may start with.  Past it the memo is emptied
#: before the next request solves — never during one, and always whole:
#: the plan compiler walks a result's sub-masks through the memo, so an
#: entry must not outlive the entries it was built from.
MEMO_LIMIT = 8192

#: interned predicates a request may start with.  Every mask is as wide
#: as the universe, and everything keyed by one — the memo, the
#: winners' estimate cache, the scorer's tables — grows with it
#: when misses keep bringing fresh constants (plan cache off, ``OptError``,
#: shape-miss traffic).  Past it they all start over together, between
#: requests like the memo.
UNIVERSE_LIMIT = 2048

#: derived histograms a pool's join store may hold when a request
#: starts.  The store is shared by every DP over the pool and kept
#: across version moves, so only this bounds it; past it the store is
#: emptied whole, between requests like the memo — an emptied join is
#: recomputed bit-identically on its next ask.
JOIN_LIMIT = 1024


class GetSelectivity:
    """A reusable ``getSelectivity`` instance (bitmask fast path).

    The memoization table lives as long as the instance, so a request
    for a sub-plan an earlier search solved is a table lookup — the
    reuse property Section 4 builds on (the branch and bound leaves a
    tail whose factor cannot win unsolved, and a later request for it
    solves it, with the exhaustive search's answer).  Every entry is a pure
    function of the pool, whose membership is fixed when it is built,
    and of the predicates, so nothing a ``notify_table_update`` does
    empties it: only ``MEMO_LIMIT`` and ``UNIVERSE_LIMIT`` bound it.  A
    catalog change of membership publishes a new pool, served by a new
    DP.  :meth:`reset` is the explicit cold start.

    Engine selection goes through the explicit factory, the one place
    the reference implementation can be asked for by name::

        GetSelectivity.create(pool, error_fn, engine="bitmask")   # default
        GetSelectivity.create(pool, error_fn, engine="legacy")    # oracle
    """

    #: engine identifier surfaced through ``stats_snapshot()`` and EXPLAIN
    engine = "bitmask"

    @classmethod
    def create(
        cls,
        pool: SITPool,
        error_function: ErrorFunction,
        *,
        engine: str = "bitmask",
        sit_driven_pruning: bool = False,
        matcher: ViewMatcher | None = None,
    ) -> "GetSelectivity":
        """Explicit engine-selecting factory.

        ``engine`` is ``"bitmask"`` (the fast interned-mask DP) or
        ``"legacy"`` (the preserved frozenset reference implementation).
        The factory never swaps classes under a subclass's feet:
        ``SubClass.create(...)`` builds ``SubClass`` for the bitmask
        engine and the plain ``LegacyGetSelectivity`` oracle for the
        legacy one.
        """
        if engine == "legacy":
            return LegacyGetSelectivity(
                pool,
                error_function,
                sit_driven_pruning=sit_driven_pruning,
                matcher=matcher,
            )
        if engine != "bitmask":
            raise ValueError(
                f"unknown engine {engine!r}; expected 'bitmask' or 'legacy'"
            )
        return cls(
            pool,
            error_function,
            sit_driven_pruning=sit_driven_pruning,
            matcher=matcher,
        )

    def __init__(
        self,
        pool: SITPool,
        error_function: ErrorFunction,
        sit_driven_pruning: bool = False,
        matcher: ViewMatcher | None = None,
    ):
        self.pool = pool
        self.error_function = error_function
        self.sit_driven_pruning = sit_driven_pruning
        self.matcher = matcher if matcher is not None else ViewMatcher(pool)
        #: bit-interning of every predicate this instance has seen; must
        #: outlive reset() because the winners' cache keys on its bits.
        self.universe = PredicateUniverse(pool)
        #: line 12 on masks (holds the universe: replaced with it)
        self._scorer = FactorScorer(self.universe, self.matcher, error_function)
        #: False for GS-Opt and for a function without a per-assumption
        #: price: those are handed materialised matches
        self._priced = not error_function.requires_combinations and hasattr(
            error_function, "assumption_price"
        )
        #: per P' mask, the branch and bound's lower bound on the error
        #: of every conditioning of P' (see :meth:`_bound`)
        self._bounds: dict[int, float] = {}
        #: memo keyed by predicate mask (legacy subclass: by frozenset,
        #: and never bounded — the oracle is built per use)
        self._memo: dict = {}
        # The winners: per (P', Q) an answer read, its materialised match
        # and estimate_factor(match), a pure histogram computation.
        # Caching them across reset() means a steady-state optimizer only
        # pays histogram manipulation for factors it has never estimated
        # before (fast path only — the legacy baseline keeps the seed
        # behaviour of re-estimating per query).
        self._estimate_cache: dict = {}
        #: this DP's view of the pool's derived histograms, read by line
        #: 16 and the plan compiler so each pair is joined once per pool
        #: (fast path only; the legacy oracle joins directly)
        self._join_memo = JoinMemo(pool.derived_joins)
        #: accumulated seconds in search + SIT selection (Figure 8's
        #: "decomposition analysis") and in numeric estimation ("histogram
        #: manipulation").
        self.analysis_seconds = 0.0
        self.estimation_seconds = 0.0
        #: observability counters since construction or the last
        #: :meth:`reset` (see :meth:`stats_snapshot`).  An explored
        #: decomposition is a pair whose factor was scored, a bound score
        #: a scoring of ``Sel(P'|{})`` (:meth:`_bound`): the bitmask
        #: engine's two add up to ``matcher.calls``
        self.pruned_decompositions = 0
        self.explored_decompositions = 0
        self.bound_scores = 0
        #: opt-in tracing; ``None`` == disabled (one branch per call site)
        self.trace: Trace | None = None

    # ------------------------------------------------------------------
    def enable_tracing(self, trace: Trace | None = None) -> Trace:
        """Attach a :class:`Trace` (shared with the matcher) and return it."""
        self.trace = trace if trace is not None else Trace()
        self.matcher.trace = self._join_memo.trace = self.trace
        return self.trace

    def disable_tracing(self) -> None:
        """Detach tracing; instrumented sites fall back to one branch."""
        self.trace = None
        self.matcher.trace = self._join_memo.trace = None

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """The explicit cold start: empty the memo and zero the call
        counter and timing accumulators (the winners' cache, the bounds,
        the scorer's tables and the universe are pool-pure and survive) —
        what the per-query figures of :mod:`repro.bench.harness` measure
        from.  A re-solve scores no bound again, so it makes at most the
        matcher calls of the cold solve."""
        self._memo.clear()
        self.matcher.reset_counter()
        self.analysis_seconds = 0.0
        self.estimation_seconds = 0.0
        self.pruned_decompositions = 0
        self.explored_decompositions = 0
        self.bound_scores = 0
        if self.trace is not None:
            self.trace.clear()

    # ------------------------------------------------------------------
    def metrics_registry(self) -> MetricsRegistry:
        """The DP's state as a :class:`MetricsRegistry` (the substrate of
        :meth:`stats_snapshot`).  Timings land in ``timings.*``, event
        counts in ``counters.*``, cache sizes and hit/miss counts in
        ``caches.*``; per-stage trace timings and counters are folded in
        when tracing is enabled."""
        registry = MetricsRegistry()
        gauge = registry.gauge
        counter = registry.counter
        gauge("timings.analysis_seconds").set(self.analysis_seconds)
        gauge("timings.estimation_seconds").set(self.estimation_seconds)
        counter("counters.matcher_calls").inc(self.matcher.calls)
        counter("counters.pruned_decompositions").inc(self.pruned_decompositions)
        counter("counters.explored_decompositions").inc(
            self.explored_decompositions
        )
        counter("counters.bound_scores").inc(self.bound_scores)
        gauge("counters.universe_size").set(self.universe.size)
        gauge("caches.memo_entries").set(len(self._memo))
        gauge("caches.estimate_cache_entries").set(len(self._estimate_cache))
        gauge("caches.join_memo_entries").set(len(self._join_memo))
        counter("caches.join_memo_hits").inc(self._join_memo.hits)
        counter("caches.join_memo_misses").inc(self._join_memo.misses)
        trace = self.trace
        if trace is not None:
            for stage, seconds, calls in trace.stages():
                gauge(f"timings.{stage}_seconds").set(seconds)
                counter(f"counters.{stage}_calls").inc(calls)
            for name, value in sorted(trace.counters.items()):
                counter(f"counters.{name}").inc(value)
        return registry

    def stats_snapshot(self) -> StatsSnapshot:
        """The documented observability snapshot (see
        :class:`repro.obs.snapshot.StatsSnapshot`).

        Cache sizes are current; matcher calls, explored and pruned
        decomposition counts, bound scores and the two Figure 8 timing
        accumulators run since construction or the last :meth:`reset`;
        the join memo's hits/misses are this instance's lookups over its
        life, and its entry count is the pool's, shared by every DP.
        """
        return StatsSnapshot.from_registry(
            self.metrics_registry(),
            meta={"engine": self.engine, "tracing": self.trace is not None},
        )

    def __call__(self, predicates: PredicateSet) -> EstimationResult:
        """Most accurate estimation of ``Sel_R(P)`` with ``R = tables(P)``."""
        predicates = frozenset(predicates)
        if len(self._memo) > MEMO_LIMIT:
            self._memo.clear()
        if len(self.pool.derived_joins) > JOIN_LIMIT:
            self.pool.derived_joins.clear()
        if self.universe.size > UNIVERSE_LIMIT:
            self._forget_masks()
        started = time.perf_counter()
        mask = self.universe.intern(predicates)
        trace = self.trace
        if trace is not None:
            with trace.span("dp_enumeration"):
                self._solve(mask)
                result = self._realize(mask)
        else:
            self._solve(mask)
            result = self._realize(mask)
        self.analysis_seconds += time.perf_counter() - started
        return result

    def _forget_masks(self) -> None:
        """Start a fresh universe, and with it everything keyed by the
        old one's masks or by the predicates behind them (the join memo
        keys on histogram identity and stays; the counters run on)."""
        self.universe = PredicateUniverse(self.pool)
        self._scorer = FactorScorer(self.universe, self.matcher, self.error_function)
        self._memo.clear()
        self._estimate_cache.clear()
        self._bounds.clear()
        self.matcher.clear_caches()
        clear_caches = getattr(self.error_function, "clear_caches", None)
        if clear_caches is not None:
            clear_caches()

    def cached_results(self) -> dict[PredicateSet, EstimationResult]:
        """The memo table: free estimates for every solved sub-query
        (a sub-query no answer has read is realized here)."""
        set_of = self.universe.set_of
        return {set_of(mask): self._realize(mask) for mask in list(self._memo)}

    # ------------------------------------------------------------------
    def _solve(self, mask: int) -> _Node | EstimationResult:
        """Lines 1-15 for ``mask``: its memo entry, searched on the first
        ask — a :class:`_Node`, or the :class:`EstimationResult` that
        replaced it once an answer read it.  A search reads only the
        ``error`` and ``coverage`` both carry."""
        if not mask:
            return _EMPTY_RESULT
        cached = self._memo.get(mask)  # lines 1-2
        trace = self.trace
        if cached is not None:
            if trace is not None:
                trace.count("memo_hits")
            return cached
        if trace is not None:
            trace.count("memo_misses")
        components = self.universe.components(mask)
        if len(components) > 1:  # lines 3-7
            node = self._solve_separable(components)
        else:  # lines 9-15
            node = self._solve_non_separable(mask)
        self._memo[mask] = node  # line 18
        return node

    def _solve_separable(self, components: list) -> _Node:
        error = 0.0
        coverage = 0.0
        for component in components:
            partial = self._solve(component)
            error = merge(error, partial.error)
            coverage += partial.coverage
        return _Node(error, coverage, 0, None, components)

    def _solve_non_separable(self, mask: int) -> _Node:
        universe = self.universe
        solve = self._solve
        memo = self._memo
        trace = self.trace
        pruning = self.sit_driven_pruning
        best_error = INFINITE_ERROR
        best_coverage = 0.0
        best_picks: tuple | None = None
        best_p_mask = 0
        best_tie: tuple[int, int] | None = None
        explored = 0
        # Line 10: every non-empty P' ⊆ P via submask enumeration
        # (sub = (sub - 1) & mask); P' = P (Q empty) is included — it is
        # the decomposition a traditional optimizer implicitly uses.
        subs = list(iter_submasks(mask))
        # Branch and bound for a priced function: P' in the order of its
        # unconditioned error, a lower bound on the error of every
        # conditioning of it (_bound).  The winner is still the least
        # (error, -coverage, tie_break), whatever the visiting order.
        # Where some attribute has no base histogram the search stays
        # tail-first and exhaustive, so a missing statistic raises
        # exactly where it always did.
        bounded = self._priced and self._scorer.based(mask)
        if bounded:
            bound = self._bound
            floors = {p_mask: bound(p_mask) for p_mask in subs}
            subs.sort(key=floors.__getitem__)
        for p_mask in subs:
            if bounded:
                floor = floors[p_mask]
                if floor > best_error:
                    break  # no later P' can win
            q_mask = mask ^ p_mask
            if pruning and q_mask and not self._worth_exploring_masks(
                p_mask, q_mask
            ):
                self.pruned_decompositions += 1
                continue
            if bounded:
                if q_mask:
                    tail = memo.get(q_mask)  # solved only if the factor may win
                    if tail is not None and trace is not None:
                        trace.count("memo_hits")
                else:
                    tail = _EMPTY_RESULT
                if tail is not None and merge(floor, tail.error) > best_error:
                    continue
                explored += 1
                factor_error, match_coverage, picks = self._best_factor_match(
                    p_mask, q_mask
                )  # line 12
                if picks is None or factor_error > best_error:
                    continue
                if tail is None:
                    tail = solve(q_mask)  # line 11, for a factor that may win
            else:
                tail = solve(q_mask)  # line 11
                if tail.error > best_error:
                    continue  # monotonicity: this decomposition cannot win
                explored += 1
                factor_error, match_coverage, picks = self._best_factor_match(
                    p_mask, q_mask
                )  # line 12
                if picks is None:
                    continue
            total = merge(factor_error, tail.error)
            if total > best_error:
                continue
            coverage = match_coverage + tail.coverage
            if total == best_error and coverage == best_coverage:
                # Exact tie on (error, -coverage): break it with the
                # canonical (size, str-lex) order the legacy enumeration
                # used implicitly — lines 13-15's determinism contract,
                # whatever order the pairs are visited in.
                if best_picks is None:
                    continue  # ties against the (inf, 0) sentinel lose
                if best_tie is None:
                    best_tie = universe.tie_break(best_p_mask)
                tie = universe.tie_break(p_mask)
                if tie >= best_tie:
                    continue
                best_tie = tie
            elif total == best_error and coverage < best_coverage:
                continue
            else:
                best_tie = None
            best_error = total
            best_coverage = coverage
            best_picks = picks
            best_p_mask = p_mask
        self.explored_decompositions += explored
        if best_picks is None:
            # No SITs at all for some attribute: surface it explicitly
            # rather than inventing a number.
            raise NoApplicableStatisticsError(universe.set_of(mask))
        return _Node(best_error, best_coverage, best_p_mask, best_picks, None)

    def _bound(self, p_mask: int) -> float:
        """A lower bound on the error of ``Sel(P'|Q)`` for every ``Q``,
        kept for the universe's life: for a connected ``P'`` the error
        of ``Sel(P'|{})`` (``0.0`` when some attribute of ``P'`` has no
        base histogram), scored once — one view-matching invocation,
        counted in ``bound_scores``; for a separable one the largest of
        its components' bounds, with no scoring.

        Why it bounds: conditioning on ``Q`` only adds to what each term
        of the implicit expansion assumes — ``Q``'s bits, and the ``P'``
        bits of the components ``Q`` merges — while a pick only ever
        covers bits of ``Q``.  Every price is at least ``0.0`` (the
        scorer checks), and a float sum of non-negative terms never
        shrinks as terms are inserted, so the unconditioned sum, whose
        terms come in the same order within every conditioned one, is
        never larger.  A component of ``P'`` shares no table, so no
        covered bit, with the rest of ``P'``: its unconditioned terms
        come in order within ``P'``'s too."""
        floor = self._bounds.get(p_mask)
        if floor is None:
            components = self.universe.components(p_mask)
            if len(components) > 1:
                floor = max(map(self._bound, components))
            else:
                self.bound_scores += 1
                self.matcher.count_invocation()
                error, _, picks = self._scorer.score(p_mask, 0, self.trace)
                floor = 0.0 if picks is None else error
            self._bounds[p_mask] = floor
        return floor

    def _realize(self, mask: int) -> EstimationResult:
        """Lines 16-17 on the answer's chain: the node of ``mask`` gets
        its winner estimated (line 16) and multiplied into its realized
        tail (line 17) — a separable node folds its realized components
        — and the result replaces the node in the memo.  Factors are
        realized head first, the order of ``result.matches``; the folds
        and their float order are those of a search that estimated
        every node."""
        if not mask:
            return _EMPTY_RESULT
        node = self._memo[mask]
        if type(node) is not _Node:
            return node  # realized by this request or an earlier one
        if node.components is not None:
            result = _separable_product(map(self._realize, node.components))
        else:
            p_mask = node.p_mask
            q_mask = mask ^ p_mask
            match, factor_selectivity = self.estimate_winner(
                p_mask, q_mask, node.picks
            )  # line 16
            tail = self._realize(q_mask)
            result = EstimationResult(
                factor_selectivity * tail.selectivity,  # line 17
                node.error,
                tail.decomposition.extended(match.factor),
                (match, *tail.matches),
                node.coverage,
            )
        self._memo[mask] = result
        return result

    def estimate_winner(
        self, p_mask: int, q_mask: int, picks: tuple
    ) -> tuple[FactorMatch, float]:
        """Line 16 for a ``(P', Q)`` an answer reads: its match and
        ``estimate_factor(match)``, cached per pair.  The match is all
        line 16, the plan compiler and ``EstimationResult.matches`` read,
        and its joins go through the pool's join store, which times the
        ones it really performs into the trace's ``histogram_join``
        stage."""
        key = (p_mask, q_mask)
        winner = self._estimate_cache.get(key)
        if winner is None:
            match = self._scorer.materialise(p_mask, q_mask, picks)
            started = time.perf_counter()
            selectivity = estimate_factor(match, memo=self._join_memo)
            self.estimation_seconds += time.perf_counter() - started
            winner = self._estimate_cache[key] = (match, selectivity)
        elif self.trace is not None:
            self.trace.count("estimate_cache_hits")
        return winner

    def price_factor(
        self, p: PredicateSet, q: PredicateSet
    ) -> tuple[float, tuple | None]:
        """Line 12 for a caller that names its own decompositions (the
        memo-coupled pass of Section 4.2): the error of the best SIT
        assignment for ``Sel(p|Q)`` and the ``(p_mask, q_mask, picks)``
        to hand :meth:`estimate_winner` should it win — ``None`` when
        some attribute has no SIT.  One view-matching invocation, priced
        like the DP's own pairs (the scorer, or the unpriced route)."""
        intern = self.universe.intern
        q_mask = intern(q)
        p_mask = intern(p)
        error, _, picks = self._best_factor_match(p_mask, q_mask)
        return error, None if picks is None else (p_mask, q_mask, picks)

    # ------------------------------------------------------------------
    def _best_factor_match(
        self, p_mask: int, q_mask: int
    ) -> tuple[float, float, tuple | None]:
        """``(error, coverage, picks)`` of the best SIT assignment for
        ``Sel(P'|Q)``; ``picks`` is ``None`` when there is none.

        One logical view-matching invocation (Figure 6 metric), and one
        scoring: within a solve the memo asks for each pair once, and a
        later request replays a plan or finds its sub-plans in the memo
        before a pair is scored again, so a cache of scored pairs would
        only hold entries (DESIGN.md §5)."""
        self.matcher.count_invocation()
        return self._score(p_mask, q_mask)

    def _score(self, p_mask: int, q_mask: int) -> tuple[float, float, tuple | None]:
        if self._priced:
            return self._scorer.score(p_mask, q_mask, self.trace)
        set_of = self.universe.set_of
        match, error = self._compute_factor_match(set_of(p_mask), set_of(q_mask))
        if match is None:
            return NO_MATCH
        return error, _match_coverage(match), self._scorer.picks_of(match)

    def _compute_factor_match(
        self, p_part: PredicateSet, q_part: PredicateSet
    ) -> tuple[FactorMatch | None, float]:
        factor = Factor(p_part, q_part)
        trace = self.trace
        if trace is not None:
            with trace.span("factor_matching"):
                candidates = self.matcher.candidates_for_factor(
                    factor, count=False
                )
            if candidates is None:
                return None, INFINITE_ERROR
            with trace.span("error_scoring"):
                return self._score_candidates(candidates)
        candidates = self.matcher.candidates_for_factor(factor, count=False)
        if candidates is None:
            return None, INFINITE_ERROR
        return self._score_candidates(candidates)

    def _score_candidates(self, candidates) -> tuple[FactorMatch | None, float]:
        """Pick and price the best SIT combination for a factor's candidates."""
        if self.error_function.requires_combinations:
            best: FactorMatch | None = None
            best_error = INFINITE_ERROR
            for match in enumerate_matches(candidates):
                error = self.error_function.factor_error(match)
                if error < best_error:
                    best, best_error = match, error
            return best, best_error
        match = select_match(candidates, self.error_function)
        return match, self.error_function.factor_error(match)

    def _worth_exploring_masks(self, p_mask: int, q_mask: int) -> bool:
        """Section 3.4's pruning on masks: keep decompositions where some
        attribute of ``P'`` has a non-base SIT whose expression is
        contained in ``Q`` — one ``expr & ~q == 0`` test per expression.
        (``Q = {}``, the fallback every query needs, is kept by the
        caller.)"""
        prune_masks = self.universe.prune_masks
        not_q = ~q_mask
        for bit in iter_bits(p_mask):
            for expression_mask in prune_masks(bit):
                if expression_mask & not_q == 0:
                    return True
        return False


class LegacyGetSelectivity(GetSelectivity):
    """The original frozenset-based ``getSelectivity`` implementation.

    Kept verbatim as the oracle for the bitmask parity suite and as the
    baseline ``python -m repro.bench core`` measures speedups against.
    Construct via :meth:`GetSelectivity.create` with ``engine="legacy"``
    (or directly).
    """

    engine = "legacy"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: (P', Q) → (match, error), as the seed kept it: a pure function
        #: of the pair for a fixed pool, so it survives reset()
        self._match_cache: dict = {}

    def __call__(self, predicates: PredicateSet) -> EstimationResult:
        predicates = frozenset(predicates)
        started = time.perf_counter()
        trace = self.trace
        if trace is not None:
            with trace.span("dp_enumeration"):
                result = self._solve(predicates)
        else:
            result = self._solve(predicates)
        self.analysis_seconds += time.perf_counter() - started
        return result

    def cached_results(self) -> dict[PredicateSet, EstimationResult]:
        return dict(self._memo)

    # ------------------------------------------------------------------
    def _solve(self, predicates: PredicateSet) -> EstimationResult:
        if not predicates:
            return _EMPTY_RESULT
        cached = self._memo.get(predicates)  # lines 1-2
        trace = self.trace
        if cached is not None:
            if trace is not None:
                trace.count("memo_hits")
            return cached
        if trace is not None:
            trace.count("memo_misses")
        components = connected_components(predicates)
        if len(components) > 1:  # lines 3-7
            result = self._solve_separable(components)
        else:  # lines 9-17
            result = self._solve_non_separable(predicates)
        self._memo[predicates] = result  # line 18
        return result

    def _solve_separable(self, components: list) -> EstimationResult:
        return _separable_product(self._solve(component) for component in components)

    def _solve_non_separable(self, predicates: PredicateSet) -> EstimationResult:
        best_key = (INFINITE_ERROR, 0.0)
        best_match: FactorMatch | None = None
        best_tail: EstimationResult | None = None
        explored = 0
        for p_part in self._atomic_decompositions(predicates):
            q_part = predicates - p_part
            if self.sit_driven_pruning and not self._worth_exploring(
                p_part, q_part
            ):
                self.pruned_decompositions += 1
                continue
            explored += 1
            tail = self._solve(q_part)  # line 11
            if tail.error > best_key[0]:
                continue  # monotonicity: this decomposition cannot win
            match, factor_error = self._best_factor_match(p_part, q_part)  # ln 12
            if match is None:
                continue
            total = merge(factor_error, tail.error)
            coverage = _match_coverage(match) + tail.coverage
            key = (total, -coverage)
            if key < best_key:  # lines 13-15, ties broken by coverage,
                best_key = key  # then by enumeration (size, str-lex) order
                best_match = match
                best_tail = tail
        self.explored_decompositions += explored
        if best_match is None or best_tail is None:
            raise NoApplicableStatisticsError(predicates)
        started = time.perf_counter()
        factor_selectivity = estimate_factor(best_match)  # line 16
        elapsed = time.perf_counter() - started
        self.estimation_seconds += elapsed
        if self.trace is not None:
            self.trace.add_time("histogram_join", elapsed)
        selectivity = factor_selectivity * best_tail.selectivity  # line 17
        decomposition = best_tail.decomposition.extended(best_match.factor)
        matches = (best_match, *best_tail.matches)
        return EstimationResult(
            selectivity, best_key[0], decomposition, matches, -best_key[1]
        )

    # ------------------------------------------------------------------
    def _atomic_decompositions(
        self, predicates: PredicateSet
    ) -> Iterator[PredicateSet]:
        """Line 10: every non-empty ``P' ⊆ P`` in a deterministic order.

        ``P' = P`` (with ``Q`` empty) is included — it is the decomposition
        a traditional optimizer implicitly uses.
        """
        items = sorted(predicates, key=str)
        for size in range(1, len(items) + 1):
            for combo in combinations(items, size):
                yield frozenset(combo)

    def _best_factor_match(
        self, p_part: PredicateSet, q_part: PredicateSet
    ) -> tuple[FactorMatch | None, float]:
        key = (p_part, q_part)
        # One logical view-matching invocation (Figure 6 metric), counted
        # exactly once whether or not the result is cached.
        self.matcher.count_invocation()
        cached = self._match_cache.get(key)
        if cached is None:
            cached = self._match_cache[key] = self._compute_factor_match(
                p_part, q_part
            )
        return cached

    def _worth_exploring(self, p_part: PredicateSet, q_part: PredicateSet) -> bool:
        """Section 3.4's pruning: keep ``Q = {}`` (the fallback every query
        needs) and decompositions where some attribute of ``P'`` has a
        non-base SIT whose expression is contained in ``Q``."""
        if not q_part:
            return True
        attributes = set()
        for predicate in p_part:
            attributes.update(predicate.attributes)
        for attribute in attributes:
            for expression in self.pool.find_expressions(attribute):
                if expression <= q_part:
                    return True
        return False


class NoApplicableStatisticsError(RuntimeError):
    """Raised when no SIT (not even a base histogram) covers an attribute."""

    #: the ``resilience.faults_<kind>`` counter a ladder walk it starts
    #: is counted under
    kind = "no_statistics"

    def __init__(self, predicates: PredicateSet):
        names = ", ".join(sorted(str(p) for p in predicates))
        super().__init__(
            f"no applicable statistics to approximate Sel({names}); "
            "ensure the pool contains base histograms for every attribute"
        )
        self.predicates = predicates


def query_cardinality(
    result: EstimationResult, table_sizes: dict[str, int], tables: frozenset[str]
) -> float:
    """Scale a selectivity back to a cardinality: ``Sel * |R1 x ... x Rn|``."""
    size = 1.0
    for table in tables:
        size *= table_sizes[table]
    return result.selectivity * size
