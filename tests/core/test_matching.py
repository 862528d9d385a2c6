"""Tests for candidate-SIT matching and factor approximation (Section 3.3)."""

import math

import pytest

from repro.core.matching import (
    ViewMatcher,
    estimate_factor,
    implicit_terms,
    select_match,
)
from repro.core.errors import NIndError
from repro.core.predicates import Attribute, FilterPredicate, JoinPredicate
from repro.core.selectivity import Factor
from repro.histograms.base import Bucket, Histogram
from repro.stats.pool import SITPool
from repro.stats.sit import SIT

RA = Attribute("R", "a")
RX = Attribute("R", "x")
SY = Attribute("S", "y")
SB = Attribute("S", "b")
TZ = Attribute("T", "z")
ST = Attribute("S", "t")

JOIN_RS = JoinPredicate(RX, SY)
JOIN_ST = JoinPredicate(ST, TZ)
FILTER_A = FilterPredicate(RA, 0, 10)
FILTER_B = FilterPredicate(SB, 5, 15)


def uniform_histogram(low=0.0, high=100.0, frequency=1000.0, distinct=100.0):
    return Histogram([Bucket(low, high, frequency, distinct)])


def sit(attribute, expression=frozenset(), diff=0.0):
    return SIT(attribute, frozenset(expression), uniform_histogram(), diff=diff)


def base_pool(*attributes, extra=()):
    return SITPool([*(sit(attribute) for attribute in attributes), *extra])


class TestCandidateSelection:
    def test_example2_maximality(self):
        """Example 2: SIT(R.a|p1) and SIT(R.a|p2) qualify; SIT(R.a) does
        not (not maximal); SIT(R.a|p1,p2,p3) does not (extra predicate)."""
        p1 = JoinPredicate(RX, SY)
        p2 = JoinPredicate(Attribute("R", "x2"), Attribute("S", "y2"))
        p3 = JoinPredicate(ST, TZ)
        sit_p1 = sit(RA, {p1})
        sit_p2 = sit(RA, {p2})
        sit_p123 = sit(RA, {p1, p2, p3})
        pool = base_pool(RA, extra=(sit_p1, sit_p2, sit_p123))
        matcher = ViewMatcher(pool)
        candidates = matcher.maximal_candidates(RA, frozenset({p1, p2}))
        assert set(candidates) == {sit_p1, sit_p2}

    def test_base_histogram_is_candidate_when_nothing_better(self):
        pool = base_pool(RA)
        matcher = ViewMatcher(pool)
        candidates = matcher.maximal_candidates(RA, frozenset({JOIN_RS}))
        assert len(candidates) == 1
        assert candidates[0].is_base

    def test_no_candidates_for_unknown_attribute(self):
        matcher = ViewMatcher(base_pool(RA))
        assert matcher.maximal_candidates(SB, frozenset()) == ()

    def test_fully_conditioned_sit_preferred_by_maximality(self):
        conditioned = sit(RA, {JOIN_RS})
        pool = base_pool(RA, extra=(conditioned,))
        matcher = ViewMatcher(pool)
        candidates = matcher.maximal_candidates(RA, frozenset({JOIN_RS}))
        assert candidates == (conditioned,)

    def test_attribute_cache(self):
        matcher = ViewMatcher(base_pool(RA))
        first = matcher.maximal_candidates(RA, frozenset())
        second = matcher.maximal_candidates(RA, frozenset())
        assert first is second


class TestFactorCandidates:
    def test_counts_invocations(self):
        matcher = ViewMatcher(base_pool(RA))
        factor = Factor(frozenset({FILTER_A}), frozenset())
        matcher.candidates_for_factor(factor)
        matcher.candidates_for_factor(factor)
        assert matcher.calls == 2

    def test_missing_attribute_returns_none(self):
        matcher = ViewMatcher(base_pool(RA))
        factor = Factor(frozenset({FILTER_B}), frozenset())
        assert matcher.candidates_for_factor(factor) is None

    def test_join_requires_both_sides(self):
        matcher = ViewMatcher(base_pool(RX))
        factor = Factor(frozenset({JOIN_RS}), frozenset())
        assert matcher.candidates_for_factor(factor) is None
        matcher = ViewMatcher(base_pool(RX, SY))
        assert matcher.candidates_for_factor(factor) is not None

    def test_weights_sum_to_predicate_count(self):
        matcher = ViewMatcher(base_pool(RA, RX, SY, SB))
        factor = Factor(frozenset({JOIN_RS, FILTER_A, FILTER_B}), frozenset())
        candidates = matcher.candidates_for_factor(factor)
        total = sum(entry.weight for entry in candidates.attributes)
        assert total == pytest.approx(3.0)

    def test_conditioning_partitioned_per_component(self):
        """Section 3.3 step 2: Q splits per wildcard component."""
        q_filter_t = FilterPredicate(TZ, 0, 1)
        pool = base_pool(RA, SB)
        matcher = ViewMatcher(pool)
        factor = Factor(
            frozenset({FILTER_A, FILTER_B}),
            frozenset({q_filter_t, JOIN_RS}),
        )
        candidates = matcher.candidates_for_factor(factor)
        by_attr = {entry.attribute: entry for entry in candidates.attributes}
        # R.a and S.b are connected to the join (shared tables) but not to
        # the T filter.
        assert q_filter_t not in by_attr[RA].conditioning
        assert JOIN_RS in by_attr[RA].conditioning
        assert JOIN_RS in by_attr[SB].conditioning


class TestImplicitTerms:
    def matcher(self, pool):
        return ViewMatcher(pool)

    def build_match(self, pool, p, q):
        matcher = ViewMatcher(pool)
        candidates = matcher.candidates_for_factor(Factor(frozenset(p), frozenset(q)))
        assert candidates is not None
        return select_match(candidates, NIndError())

    def test_single_filter_with_conditioning(self):
        """nInd(Sel(p|q1,q2) ~ SIT(p|q1)) = 1 (paper's Section 3.2 example)."""
        q2 = JoinPredicate(Attribute("R", "x2"), Attribute("S", "y2"))
        pool = base_pool(RA, extra=(sit(RA, {JOIN_RS}),))
        match = self.build_match(pool, {FILTER_A}, {JOIN_RS, q2})
        terms = implicit_terms(match)
        assert len(terms) == 1
        assert terms[0].assumed == frozenset({q2})

    def test_single_factor_chain_charges_internal_assumptions(self):
        """Sel({join, filter} | {}) with base SITs assumes filter ⊥ join."""
        pool = base_pool(RA, RX, SY)
        match = self.build_match(pool, {JOIN_RS, FILTER_A}, set())
        terms = {str(t.predicate): t for t in implicit_terms(match)}
        assert terms[str(JOIN_RS)].assumed == frozenset()
        assert terms[str(FILTER_A)].assumed == frozenset({JOIN_RS})

    def test_filter_on_join_attribute_is_covered_by_derived_histogram(self):
        filter_x = FilterPredicate(RX, 0, 5)
        pool = base_pool(RX, SY)
        match = self.build_match(pool, {JOIN_RS, filter_x}, set())
        terms = {str(t.predicate): t for t in implicit_terms(match)}
        assert terms[str(filter_x)].assumed == frozenset()

    def test_cross_component_predicates_never_charged(self):
        filter_t = FilterPredicate(TZ, 0, 1)
        pool = base_pool(RA, TZ)
        match = self.build_match(pool, {FILTER_A, filter_t}, set())
        for term in implicit_terms(match):
            assert not term.assumed

    def test_join_join_dependence_charged_once_connected(self):
        pool = base_pool(RX, SY, ST, TZ)
        match = self.build_match(pool, {JOIN_RS, JOIN_ST}, set())
        terms = sorted(implicit_terms(match), key=lambda t: str(t.predicate))
        # Deterministic order: R.x=S.y first, then S.t=T.z; the second is
        # charged for the first (they share table S).
        assumed_counts = sorted(len(t.assumed) for t in terms)
        assert assumed_counts == [0, 1]

    def test_q_conditioning_propagates_through_join_merge(self):
        """After a join merges components, filters inherit the other
        side's conditioning."""
        q_filter_s = FilterPredicate(SB, 0, 1)
        pool = base_pool(RA, RX, SY)
        match = self.build_match(pool, {JOIN_RS, FILTER_A}, {q_filter_s})
        terms = {str(t.predicate): t for t in implicit_terms(match)}
        # The filter on R.a is (post-join) conditioned on S.b's filter too.
        assert q_filter_s in terms[str(FILTER_A)].context


class TestEstimateFactor:
    def test_filter_only(self):
        pool = base_pool(RA)
        matcher = ViewMatcher(pool)
        candidates = matcher.candidates_for_factor(
            Factor(frozenset({FILTER_A}), frozenset())
        )
        match = select_match(candidates, NIndError())
        # Uniform histogram over [0, 100]: range [0, 10] is ~10%.
        assert estimate_factor(match) == pytest.approx(0.1, rel=0.15)

    def test_impossible_filter_is_zero(self):
        pool = base_pool(RA)
        matcher = ViewMatcher(pool)
        filter_out = FilterPredicate(RA, 500, 600)
        candidates = matcher.candidates_for_factor(
            Factor(frozenset({filter_out}), frozenset())
        )
        match = select_match(candidates, NIndError())
        assert estimate_factor(match) == 0.0

    def test_join_and_filter_multiply(self):
        pool = base_pool(RA, RX, SY)
        matcher = ViewMatcher(pool)
        candidates = matcher.candidates_for_factor(
            Factor(frozenset({JOIN_RS, FILTER_A}), frozenset())
        )
        match = select_match(candidates, NIndError())
        value = estimate_factor(match)
        assert 0.0 < value < 0.1
