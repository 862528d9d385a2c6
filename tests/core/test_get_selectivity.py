"""Tests for the getSelectivity dynamic program (Figure 3, Theorem 1)."""

import math

import pytest

from repro.core.decompose import enumerate_decompositions
from repro.core.errors import DiffError, NIndError
from repro.core.get_selectivity import (
    GetSelectivity,
    NoApplicableStatisticsError,
)
from repro.core.matching import ViewMatcher, select_match
from repro.core.predicates import (
    Attribute,
    FilterPredicate,
    JoinPredicate,
    connected_components,
)
from repro.core.selectivity import Factor
from repro.histograms.base import Bucket, Histogram
from repro.stats.pool import SITPool
from repro.stats.sit import SIT

RA = Attribute("R", "a")
RX = Attribute("R", "x")
SY = Attribute("S", "y")
SB = Attribute("S", "b")
TZ = Attribute("T", "z")
TC = Attribute("T", "c")

JOIN_RS = JoinPredicate(RX, SY)
JOIN_ST = JoinPredicate(SB, TZ)
FILTER_A = FilterPredicate(RA, 0, 10)
FILTER_C = FilterPredicate(TC, 20, 30)


def uniform():
    return Histogram([Bucket(0, 100, 1000, 100)])


def make_sit(attribute, expression=frozenset(), diff=0.0):
    return SIT(attribute, frozenset(expression), uniform(), diff=diff)


def full_base_pool(*extra):
    return SITPool([*(make_sit(a) for a in (RA, RX, SY, SB, TZ, TC)), *extra])


class TestBasics:
    def test_empty_predicates(self):
        algorithm = GetSelectivity(full_base_pool(), NIndError())
        result = algorithm(frozenset())
        assert result.selectivity == 1.0
        assert result.error == 0.0
        assert result.factor_count == 0

    def test_single_filter(self):
        algorithm = GetSelectivity(full_base_pool(), NIndError())
        result = algorithm(frozenset({FILTER_A}))
        assert result.selectivity == pytest.approx(0.1, rel=0.15)
        assert result.error == 0.0

    def test_memoization_returns_same_object(self):
        algorithm = GetSelectivity(full_base_pool(), NIndError())
        predicates = frozenset({FILTER_A, JOIN_RS})
        first = algorithm(predicates)
        calls = algorithm.matcher.calls
        second = algorithm(predicates)
        assert first is second
        assert algorithm.matcher.calls == calls

    def test_subqueries_are_free_after_full_query(self):
        algorithm = GetSelectivity(full_base_pool(), NIndError())
        algorithm(frozenset({FILTER_A, JOIN_RS, JOIN_ST}))
        calls = algorithm.matcher.calls
        algorithm(frozenset({FILTER_A, JOIN_RS}))
        assert algorithm.matcher.calls == calls

    def test_separable_branch_multiplies(self):
        algorithm = GetSelectivity(full_base_pool(), NIndError())
        combined = algorithm(frozenset({FILTER_A, FILTER_C}))
        first = algorithm(frozenset({FILTER_A}))
        second = algorithm(frozenset({FILTER_C}))
        assert combined.selectivity == pytest.approx(
            first.selectivity * second.selectivity
        )
        assert combined.error == first.error + second.error

    def test_missing_statistics_raises(self):
        pool = SITPool([make_sit(RA)])
        algorithm = GetSelectivity(pool, NIndError())
        with pytest.raises(NoApplicableStatisticsError):
            algorithm(frozenset({JOIN_RS}))

    def test_reset_clears_state(self):
        algorithm = GetSelectivity(full_base_pool(), NIndError())
        algorithm(frozenset({FILTER_A}))
        algorithm.reset()
        assert algorithm.matcher.calls == 0
        assert not algorithm.cached_results()
        assert algorithm.analysis_seconds == 0.0

    def test_timing_counters_accumulate(self):
        algorithm = GetSelectivity(full_base_pool(), NIndError())
        algorithm(frozenset({FILTER_A, JOIN_RS, JOIN_ST, FILTER_C}))
        assert algorithm.analysis_seconds > 0.0
        assert algorithm.estimation_seconds >= 0.0
        assert algorithm.estimation_seconds < algorithm.analysis_seconds


class TestSITUsage:
    def test_conditioned_sit_lowers_error(self):
        pool = full_base_pool(make_sit(RA, {JOIN_RS}, diff=0.5))
        algorithm = GetSelectivity(pool, NIndError())
        with_sit = algorithm(frozenset({FILTER_A, JOIN_RS}))
        base_algorithm = GetSelectivity(full_base_pool(), NIndError())
        without_sit = base_algorithm(frozenset({FILTER_A, JOIN_RS}))
        assert with_sit.error < without_sit.error

    def test_chosen_decomposition_uses_the_sit(self):
        conditioned = make_sit(RA, {JOIN_RS}, diff=0.5)
        pool = full_base_pool(conditioned)
        algorithm = GetSelectivity(pool, NIndError())
        result = algorithm(frozenset({FILTER_A, JOIN_RS}))
        used = {
            am.sit
            for m in result.matches
            for am in m.attribute_matches
        }
        assert conditioned in used


class TestTheorem1:
    """The DP must match brute-force search over all non-separable
    decompositions, for any monotonic algebraic error function."""

    def exhaustive_best(self, pool, error_function, predicates):
        """Best error over every decomposition, applying the standard
        decomposition first (per component) then enumerating atomic
        chains without separable factors."""
        matcher = ViewMatcher(pool)

        def best_for_component(component):
            best = math.inf
            for decomposition in enumerate_decompositions(
                component, simplify_separable=True
            ):
                total = 0.0
                feasible = True
                for factor in decomposition.factors:
                    candidates = matcher.candidates_for_factor(factor)
                    if candidates is None:
                        feasible = False
                        break
                    match = select_match(candidates, error_function)
                    total += error_function.factor_error(match)
                if feasible:
                    best = min(best, total)
            return best

        total = 0.0
        for component in connected_components(predicates):
            total += best_for_component(component)
        return total

    @pytest.mark.parametrize(
        "predicates",
        [
            frozenset({FILTER_A, JOIN_RS}),
            frozenset({FILTER_A, JOIN_RS, JOIN_ST}),
            frozenset({FILTER_A, JOIN_RS, JOIN_ST, FILTER_C}),
        ],
        ids=["2-preds", "3-preds", "4-preds"],
    )
    def test_dp_matches_exhaustive_nind(self, predicates):
        pool = full_base_pool(
            make_sit(RA, {JOIN_RS}, diff=0.4),
            make_sit(SB, {JOIN_RS}, diff=0.2),
            make_sit(TC, {JOIN_ST}, diff=0.7),
        )
        error_function = NIndError()
        algorithm = GetSelectivity(pool, error_function)
        dp_error = algorithm(predicates).error
        brute = self.exhaustive_best(pool, error_function, predicates)
        assert dp_error == pytest.approx(brute)

    @pytest.mark.parametrize(
        "predicates",
        [
            frozenset({FILTER_A, JOIN_RS}),
            frozenset({FILTER_A, JOIN_RS, JOIN_ST, FILTER_C}),
        ],
        ids=["2-preds", "4-preds"],
    )
    def test_dp_matches_exhaustive_diff(self, predicates):
        pool = full_base_pool(
            make_sit(RA, {JOIN_RS}, diff=0.4),
            make_sit(TC, {JOIN_ST}, diff=0.7),
        )
        error_function = DiffError(pool)
        algorithm = GetSelectivity(pool, error_function)
        dp_error = algorithm(predicates).error
        brute = self.exhaustive_best(pool, error_function, predicates)
        assert dp_error == pytest.approx(brute)


class TestSITDrivenPruning:
    def test_pruning_preserves_result_with_sparse_pool(self):
        pool = full_base_pool(make_sit(RA, {JOIN_RS}, diff=0.5))
        predicates = frozenset({FILTER_A, JOIN_RS, JOIN_ST})
        plain = GetSelectivity(pool, NIndError())
        pruned = GetSelectivity(pool, NIndError(), sit_driven_pruning=True)
        plain_result = plain(predicates)
        pruned_result = pruned(predicates)
        assert pruned_result.selectivity == pytest.approx(
            plain_result.selectivity
        )
        assert pruned.matcher.calls < plain.matcher.calls

    def test_pruning_never_explores_unapproximable_conditionals(self):
        pool = full_base_pool()  # base only: every non-empty Q is futile
        pruned = GetSelectivity(pool, NIndError(), sit_driven_pruning=True)
        predicates = frozenset({FILTER_A, JOIN_RS})
        result = pruned(predicates)
        assert result.selectivity > 0.0
