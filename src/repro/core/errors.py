"""Error functions ranking candidate decompositions (Sections 3.2 and 3.5).

All three functions are monotonic and algebraic in the sense of
Definition 3 — per-factor errors are non-negative reals merged with ``+``
(``E = sum``, ``E_merge = +``) — which is what licenses the dynamic
programming in ``getSelectivity`` (principle of optimality).

* :class:`NIndError` — counts independence assumptions (adapted from Bruno
  & Chaudhuri 2002): ``sum_i |P_i| * |Q_i - Q'_i|``, computed here per
  matched attribute with predicate weights so multi-SIT factors reduce to
  the paper's formula in the single-SIT case.
* :class:`DiffError` — the paper's novel semantic metric: the syntactic
  count ``|Q_i - Q'_i|`` is replaced by ``1 - diff_H``, the degree to which
  the SIT's expression actually changes the attribute's distribution.  A
  fully conditioned match (``Q' = Q_c``) makes no assumption and
  contributes zero.
* :class:`OptError` — the theoretical optimum: the true per-factor
  estimation error (absolute log-ratio of estimated versus exact
  conditional selectivity).  Requires executing query expressions, so it
  is usable only in experiments, exactly as in the paper.
"""

from __future__ import annotations

import math
from typing import Protocol

from repro.core.matching import (
    AttributeCandidates,
    FactorMatch,
    estimate_factor,
    implicit_terms,
)
from repro.core.predicates import by_str
from repro.engine.executor import Executor
from repro.stats.pool import SITPool
from repro.stats.sit import SIT

#: error value for factors with no applicable SITs
INFINITE_ERROR = math.inf


class ErrorFunction(Protocol):
    """Interface the DP and the matcher use to rank alternatives."""

    name: str
    #: True when the best SIT combination can only be found by trying all
    #: combinations (GS-Opt); heuristics rank attributes independently.
    requires_combinations: bool
    #: True when rankings and factor errors depend only on the query's
    #: *shape* (tables, attributes, join structure) and the pool — never
    #: on filter constants.  This licenses the compiled-plan cache
    #: (:mod:`repro.core.plancache`) to reuse a DP decision across
    #: instantiations of one template.  Unknown/custom error functions
    #: default to unstable (the cache probes with ``getattr(..., False)``).
    plan_stable: bool

    #: Optional: ``assumption_price(predicate, assumed) -> float``, for a
    #: function whose factor error is :func:`priced_factor_error` of it.
    #: The bitmask DP prices such a function on masks; one without it (or
    #: with ``requires_combinations``) is handed materialised matches.
    #: Optional too: ``clear_caches()``, called when the DP starts its
    #: universe over, for a function that caches per predicate.

    def rank_candidate(self, entry: AttributeCandidates) -> SIT:
        """Pick the best candidate SIT for one attribute."""
        ...

    def factor_error(self, match: FactorMatch) -> float:
        """The (estimated) error of approximating the factor with ``match``."""
        ...


def priced_factor_error(match: FactorMatch, price) -> float:
    """The factor error of a function that charges per independence
    assumption: ``price(predicate, assumed)`` summed over every term of
    the implicit expansion and every predicate the term assumes
    independence from.

    A function of this form exposes the price as ``assumption_price``,
    and the bitmask DP adds the same prices up on masks without building
    a match (:class:`repro.core.matching.FactorScorer`).  The summation
    order is fixed — terms in expansion order, assumptions in ``str``
    order, one flat left-to-right sum — because float addition is not
    associative and frozenset iteration order is hash-seed dependent:
    the same logical match must yield the bit-identical error no matter
    how its predicate sets were constructed, or which path priced it.
    The scorer keeps that sum by storing, per term and assumed mask, the
    prices in ``str`` order of the assumed predicates, and adding them
    one at a time into its running total — never summing a row apart
    and adding the subtotal, which would group the additions
    differently.
    """
    total = 0.0
    for term in implicit_terms(match):
        for assumed in sorted(term.assumed, key=str):
            total += price(term.predicate, assumed)
    return total


def merge(first: float, second: float) -> float:
    """``E_merge`` for all provided error functions (sum is algebraic)."""
    return first + second


class NIndError:
    """Count of independence assumptions (Section 3.2)."""

    name = "nInd"
    requires_combinations = False
    #: assumption counts are pure structure — constants never enter
    plan_stable = True

    def rank_candidate(self, entry: AttributeCandidates) -> SIT:
        return min(
            entry.candidates,
            key=lambda sit: (len(entry.conditioning - sit.expression), str(sit)),
        )

    def assumption_price(self, predicate, assumed) -> float:
        """Every independence assumption counts once."""
        return 1.0

    def factor_error(self, match: FactorMatch) -> float:
        # Each implicit term corresponds to one predicate of the factor's P
        # (so |P_i| is accounted for), and ``assumed`` is its Q_i - Q'_i.
        return priced_factor_error(match, self.assumption_price)


class DiffError:
    """The improved, distribution-aware error function (Section 3.5).

    The paper replaces nInd's syntactic assumption count with the semantic
    ``diff`` values attached to SITs.  We apply that idea at the
    granularity where it discriminates best: each *assumed dependence
    pair* ``(p, q)`` — the term's predicate ``p`` assumed independent of a
    context predicate ``q`` — is charged the strength of the dependence
    the available statistics reveal between them:

    * the maximum ``diff_H`` over SITs on an attribute of ``p`` whose
      expression contains ``q`` (or vice versa) — e.g. assuming
      ``nation = USA`` independent of ``orders ⋈ customer`` costs exactly
      ``diff`` of ``SIT(nation | orders ⋈ customer)``;
    * a small ``unknown_cost`` prior when no statistic is informative.

    Consequences (matching the paper's Section 3.5 discussion):
    Example 4 resolves correctly — a SIT whose expression does not change
    the distribution (``diff = 0``) makes the corresponding assumption
    free, so the genuinely informative SIT is preferred; with no SITs at
    all the ranking degrades to ``unknown_cost * nInd``; and known-strong
    dependencies dominate the ranking wherever they are ignored.
    """

    name = "Diff"
    requires_combinations = False
    #: dependence probes key on attributes and (constant-free) join
    #: predicates; with join-only SIT expressions (the pool gate the plan
    #: cache enforces) a filter's constants never reach ``pool.find``
    plan_stable = True

    def __init__(self, pool: SITPool, unknown_cost: float = 0.05):
        if not 0.0 <= unknown_cost <= 1.0:
            raise ValueError("unknown_cost must be in [0, 1]")
        self._pool = pool
        self._unknown_cost = unknown_cost
        self._dependence_cache: dict[tuple, float] = {}
        #: pure function of (attribute, predicate) for a fixed pool —
        #: cached like ``assumption_price`` (the cold-start profile shows
        #: candidate ranking re-probing the same pairs hundreds of times)
        self._attribute_cache: dict[tuple, float] = {}

    def clear_caches(self) -> None:
        """Forget the dependence probes (pure functions of the pool; their
        keys hold predicates with their constants)."""
        self._dependence_cache.clear()
        self._attribute_cache.clear()

    # -- candidate selection -------------------------------------------
    def rank_candidate(self, entry: AttributeCandidates) -> SIT:
        def score(sit: SIT) -> tuple[float, str]:
            assumed = entry.conditioning - sit.expression
            # Sort before summing: float addition is not associative, and
            # frozenset iteration order is hash-seed dependent (equal sets
            # built through different operations may even iterate
            # differently), so an unsorted sum is not reproducible.
            total = sum(
                self._attribute_dependence(entry.attribute, q)
                for q in sorted(assumed, key=by_str)
            )
            return (total, str(sit))

        return min(entry.candidates, key=score)

    # -- factor error ---------------------------------------------------
    def factor_error(self, match: FactorMatch) -> float:
        return priced_factor_error(match, self.assumption_price)

    # -- dependence estimation ------------------------------------------
    def assumption_price(self, predicate, other) -> float:
        """Known strength of the dependence between two predicates — what
        assuming them independent is charged."""
        key = (predicate, other) if str(predicate) <= str(other) else (other, predicate)
        cached = self._dependence_cache.get(key)
        if cached is not None:
            return cached
        best: float | None = None
        for first, second in ((predicate, other), (other, predicate)):
            for attribute in first.attributes:
                for sit in self._pool.find(attribute, expression_member=second):
                    best = sit.diff if best is None else max(best, sit.diff)
        value = self._unknown_cost if best is None else best
        self._dependence_cache[key] = value
        return value

    def _attribute_dependence(self, attribute, other) -> float:
        key = (attribute, other)
        cached = self._attribute_cache.get(key)
        if cached is not None:
            return cached
        best: float | None = None
        for sit in self._pool.find(attribute, expression_member=other):
            best = sit.diff if best is None else max(best, sit.diff)
        value = self._unknown_cost if best is None else best
        self._attribute_cache[key] = value
        return value


class OptError:
    """True per-factor error — the best possible ranking (GS-Opt).

    ``error(H, S)`` is ``|ln(estimated / true)|``: summed over factors this
    bounds the log-scale error of the full decomposition, is monotonic and
    merges with ``+``.  A small epsilon guards empty selectivities.
    """

    name = "Opt"
    requires_combinations = True
    #: executes the query expressions with the *concrete* constants —
    #: rankings legitimately change across template instantiations, so
    #: compiled plans must never be reused under this function
    plan_stable = False

    def __init__(self, executor: Executor, epsilon: float = 1e-12):
        self._executor = executor
        self._epsilon = epsilon

    def rank_candidate(self, entry: AttributeCandidates) -> SIT:
        # Fallback ranking when combination search is capped: prefer the
        # largest conditioning, then the most divergent distribution.
        return min(
            entry.candidates,
            key=lambda sit: (
                len(entry.conditioning - sit.expression),
                -sit.diff,
                str(sit),
            ),
        )

    def factor_error(self, match: FactorMatch) -> float:
        estimated = estimate_factor(match)
        factor = match.factor
        true = self._executor.conditional_selectivity(
            factor.p, factor.q, tables=factor.tables
        )
        return abs(
            math.log((estimated + self._epsilon) / (true + self._epsilon))
        )
