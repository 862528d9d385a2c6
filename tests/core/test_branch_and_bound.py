"""The soundness edges of the bitmask DP's branch and bound.

A priced search visits ``P'`` in the order of its unconditioned error and
skips pairs that cannot win; the answer must stay the exhaustive
oracle's.  These cases pin where that could break: an attribute without
a base histogram (its bound is ``0.0``, and its nodes keep the
exhaustive order so a missing statistic raises where it always did), a
negative assumption price (refused, since the bound rests on prices
being non-negative), and the bound table's lifetime.
"""

from __future__ import annotations

import pytest

from repro.core.errors import NIndError, priced_factor_error
from repro.core.get_selectivity import (
    GetSelectivity,
    LegacyGetSelectivity,
    NoApplicableStatisticsError,
)
from repro.core.predicates import Attribute, FilterPredicate, JoinPredicate
from repro.histograms.base import Bucket, Histogram
from repro.stats.pool import SITPool
from repro.stats.sit import SIT

RX = Attribute("R", "x")
RZ = Attribute("R", "z")
SY = Attribute("S", "y")
SB = Attribute("S", "b")
JOIN = JoinPredicate(RX, SY)
FILTER_Z = FilterPredicate(RZ, 1.0, 20.0)
FILTER_B = FilterPredicate(SB, 5.0, 60.0)


def uniform() -> Histogram:
    return Histogram([Bucket(0.0, 100.0, 1000.0, 50.0)])


def sit(attribute, *expression, diff=0.0) -> SIT:
    return SIT(attribute, frozenset(expression), uniform(), diff=diff)


def scored_bounds(algorithm) -> int:
    """The bounds that cost a scoring: a separable ``P'`` takes its
    components' (see below)."""
    return sum(map(algorithm.universe.is_connected, algorithm._bounds))


def outcome(algorithm, predicates):
    try:
        result = algorithm(predicates)
    except NoApplicableStatisticsError:
        return NoApplicableStatisticsError
    return result.selectivity, result.error, result.coverage, result.matches


class TestNoUnconditionedMatch:
    """``R.z`` has no base histogram, only ``SIT(R.z | R.x=S.y)``."""

    POOL = SITPool([sit(RX), sit(SY), sit(SB), sit(RZ, JOIN, diff=0.5)])

    def test_the_bound_is_zero_never_inf(self):
        algorithm = GetSelectivity(self.POOL, NIndError())
        mask = algorithm.universe.intern([JOIN, FILTER_Z])
        z = algorithm.universe.mask_of([FILTER_Z])
        assert algorithm._scorer.score(z, 0)[2] is None  # no match at all
        assert algorithm._bound(z) == algorithm._bound(mask) == 0.0
        assert not algorithm._scorer.based(mask)
        assert algorithm._scorer.based(algorithm.universe.mask_of([JOIN]))

    @pytest.mark.parametrize("pruning", [False, True])
    @pytest.mark.parametrize("filter_first", [False, True])
    def test_the_answer_or_the_refusal_is_the_oracles(self, filter_first, pruning):
        """Once ``Sel(R.z filter | join)`` has won at error 0, a bounded
        search would skip ``Sel(join | R.z filter)`` without solving its
        tail — the exhaustive search solves that tail and raises (unless
        Section 3.4 prunes the pair).  Whichever pair the bits put
        first, both give one outcome."""
        predicates = frozenset({JOIN, FILTER_Z})
        order = [FILTER_Z, JOIN] if filter_first else [JOIN, FILTER_Z]
        algorithm = GetSelectivity(self.POOL, NIndError(), sit_driven_pruning=pruning)
        for predicate in order:
            algorithm.universe.intern([predicate])
        oracle = LegacyGetSelectivity(self.POOL, NIndError(), sit_driven_pruning=pruning)
        expected = outcome(oracle, predicates)
        assert outcome(algorithm, predicates) == expected
        assert (expected is NoApplicableStatisticsError) is not pruning


class TestNegativePrices:
    class Rebate:
        """A toy priced function that pays for one assumption."""

        name = "rebate"
        requires_combinations = False
        plan_stable = True

        def rank_candidate(self, entry):
            return NIndError().rank_candidate(entry)

        def assumption_price(self, predicate, assumed) -> float:
            return -1.0 if assumed == FILTER_B else 1.0

        def factor_error(self, match):
            return priced_factor_error(match, self.assumption_price)

    def test_a_negative_price_is_refused_naming_the_pair(self):
        pool = SITPool([sit(RX), sit(SY), sit(SB)])
        algorithm = GetSelectivity(pool, self.Rebate())
        with pytest.raises(ValueError) as excinfo:
            algorithm(frozenset({JOIN, FILTER_B}))
        message = str(excinfo.value)
        assert "rebate" in message
        assert f"{JOIN} independent of {FILTER_B}" in message

    def test_non_negative_prices_of_the_same_function_are_served(self):
        pool = SITPool([sit(RX), sit(SY), sit(SB)])
        algorithm = GetSelectivity(pool, self.Rebate())
        oracle = LegacyGetSelectivity(pool, self.Rebate())
        predicates = frozenset({JOIN})
        assert outcome(algorithm, predicates) == outcome(oracle, predicates)


class TestBoundTableLifetime:
    POOL = SITPool([sit(RX), sit(SY), sit(SB), sit(RZ), sit(SB, JOIN, diff=0.3)])
    PREDICATES = frozenset({JOIN, FILTER_Z, FILTER_B})

    def test_reset_keeps_the_bounds_and_a_repeat_scores_none(self):
        algorithm = GetSelectivity(self.POOL, NIndError())
        first = algorithm(self.PREDICATES)
        cold_calls = algorithm.matcher.calls
        bounds = dict(algorithm._bounds)
        assert algorithm.bound_scores == scored_bounds(algorithm) > 0
        assert cold_calls == algorithm.explored_decompositions + algorithm.bound_scores
        algorithm.reset()
        assert algorithm._bounds == bounds
        assert algorithm(self.PREDICATES) == first
        assert algorithm.bound_scores == 0
        assert algorithm.matcher.calls == algorithm.explored_decompositions
        assert algorithm.matcher.calls <= cold_calls

    def test_a_fresh_universe_takes_the_bounds_with_it(self):
        algorithm = GetSelectivity(self.POOL, NIndError())
        first = algorithm(self.PREDICATES)
        assert algorithm._bounds
        algorithm._forget_masks()
        assert not algorithm._bounds
        assert algorithm(self.PREDICATES) == first
        assert algorithm.bound_scores == 2 * scored_bounds(algorithm)

    def test_a_separable_bound_is_its_largest_component_bound_unscored(self):
        """A separable ``P'`` takes the largest of its components' bounds:
        each component's terms come, in order, within every conditioning
        of ``P'``, so that bound holds bit for bit, with no scoring."""
        algorithm = GetSelectivity(self.POOL, NIndError())
        universe = algorithm.universe
        universe.intern(self.PREDICATES)
        z, b = universe.mask_of([FILTER_Z]), universe.mask_of([FILTER_B])
        separable = algorithm._bound(z | b)
        assert algorithm.bound_scores == algorithm.matcher.calls == 2
        assert separable == max(algorithm._bound(z), algorithm._bound(b))
        assert algorithm.matcher.calls == 2
