"""The graceful-degradation ladder: levels 0 and 3, plus strictness,
monotonicity, telemetry and reporting through explain/snapshot."""

from __future__ import annotations

import math
import threading

import pytest

from repro.core.errors import NIndError
from repro.core.get_selectivity import NoApplicableStatisticsError
from repro.core.predicates import FilterPredicate
from repro.engine.expressions import Query
from repro.estimators import GuaranteedSampleEstimator, SITEstimator
from repro.resilience import (
    LEVEL_MAGIC,
    LEVEL_NAMES,
    LEVEL_NORMAL,
    MAGIC_FILTER_SELECTIVITY,
    MAGIC_JOIN_SELECTIVITY,
    ResilienceTelemetry,
    magic_result,
    magic_selectivity,
)
from repro.stats.pool import SITPool


class Unscorable(NIndError):
    """A caller's error function that prices every independence
    assumption infinite: no decomposition that assumes one can win."""

    name = "unscorable"

    def assumption_price(self, predicate, assumed) -> float:
        return math.inf


@pytest.fixture()
def same_table_query(two_table_attrs) -> Query:
    """Two filters on ``R``: every decomposition assumes one independent
    of the other (no SIT conditions ``R.a`` on ``R.x``)."""
    return Query.of(
        FilterPredicate(two_table_attrs["Ra"], 10.0, 40.0),
        FilterPredicate(two_table_attrs["Rx"], 0.0, 20.0),
    )


def without(pool: SITPool, predicate) -> SITPool:
    return SITPool([sit for sit in pool if not predicate(sit)])


class TestLevelZero:
    def test_no_faults_means_level_zero(
        self, two_table_db, two_table_pool, join_filter_query
    ):
        result = SITEstimator(two_table_db, two_table_pool).estimate(
            join_filter_query
        )
        assert result.degradation_level == LEVEL_NORMAL
        assert not result.degraded


class TestUnscorableReachesLevelThree:
    def test_an_unscorable_error_function_answers_with_magic_constants(
        self, two_table_db, two_table_pool, same_table_query
    ):
        """Level 0 finds no decomposition with a finite error and raises
        ``NoApplicableStatisticsError``; with no fallback estimator wired,
        the magic constants answer."""
        estimator = SITEstimator(
            two_table_db, two_table_pool, error_function=Unscorable()
        )
        result = estimator.estimate(same_table_query)
        assert result.degradation_level == LEVEL_MAGIC
        assert result.backend == "magic"
        assert result.selectivity == magic_selectivity(
            same_table_query.predicates
        )
        counts = estimator.resilience.as_dict()
        assert counts == {"degraded_level3": 1.0, "faults_no_statistics": 1.0}

    def test_an_unscorable_error_function_answers_from_the_fallback(
        self, two_table_db, two_table_pool, same_table_query
    ):
        fallback = GuaranteedSampleEstimator(two_table_db)
        estimator = SITEstimator(
            two_table_db,
            two_table_pool,
            error_function=Unscorable(),
            fallback_estimator=fallback,
        )
        result = estimator.estimate(same_table_query)
        assert result.degradation_level == LEVEL_MAGIC
        assert result.backend == "sample"
        assert result.selectivity == (
            fallback.estimate(same_table_query).selectivity
        )
        counts = estimator.resilience.as_dict()
        assert counts == {"degraded_level3": 1.0, "faults_no_statistics": 1.0}

    def test_resilience_namespace_in_stats_snapshot(
        self, two_table_db, two_table_pool, same_table_query
    ):
        estimator = SITEstimator(
            two_table_db, two_table_pool, error_function=Unscorable()
        )
        estimator.estimate(same_table_query)
        snapshot = estimator.stats_snapshot()
        assert snapshot.namespace("resilience")["degraded_level3"] == 1.0


class TestLowerRungs:
    def test_an_attribute_no_statistic_covers_reaches_magic(
        self, two_table_db, two_table_pool, join_filter_query, two_table_attrs
    ):
        """No statistic covers ``R.a`` and no fallback estimator is
        configured: the constants answer."""
        ra = two_table_attrs["Ra"]
        pool = without(two_table_pool, lambda sit: sit.attribute == ra)
        estimator = SITEstimator(two_table_db, pool)
        result = estimator.estimate(join_filter_query)
        assert result.degradation_level == LEVEL_MAGIC
        assert result.selectivity == magic_selectivity(
            join_filter_query.predicates
        )

    def test_magic_constants(self, two_table_attrs, two_table_join):
        f = FilterPredicate(two_table_attrs["Ra"], 0.0, 10.0)
        assert magic_selectivity({f}) == MAGIC_FILTER_SELECTIVITY
        assert magic_selectivity({two_table_join}) == MAGIC_JOIN_SELECTIVITY
        assert magic_selectivity({f, two_table_join}) == pytest.approx(
            MAGIC_FILTER_SELECTIVITY * MAGIC_JOIN_SELECTIVITY
        )


class TestStrictMode:
    def test_strict_estimator_raises_instead_of_degrading(
        self, two_table_db, two_table_pool, same_table_query
    ):
        estimator = SITEstimator(
            two_table_db,
            two_table_pool,
            error_function=Unscorable(),
            strict=True,
        )
        with pytest.raises(NoApplicableStatisticsError):
            estimator.estimate(same_table_query)
        assert estimator.resilience.as_dict() == {}


class TestMonotonicity:
    def test_degradation_level_monotone_in_failed_sit_set(
        self, two_table_db, two_table_pool, join_filter_query, two_table_attrs
    ):
        """Removing a superset of statistics never yields a *lower* rung:
        the full pool, the pool without the conditioned ``R.a`` SIT, and
        the pool without any ``R.a`` statistic."""
        ra = two_table_attrs["Ra"]
        pools = [
            two_table_pool,
            without(
                two_table_pool, lambda sit: sit.attribute == ra and not sit.is_base
            ),
            without(two_table_pool, lambda sit: sit.attribute == ra),
        ]
        levels = [
            SITEstimator(two_table_db, pool)
            .estimate(join_filter_query)
            .degradation_level
            for pool in pools
        ]
        assert levels == [LEVEL_NORMAL, LEVEL_NORMAL, LEVEL_MAGIC]


class TestExplainReportsDegradation:
    def test_explain_carries_the_level(
        self, two_table_db, two_table_pool, same_table_query
    ):
        estimator = SITEstimator(
            two_table_db, two_table_pool, error_function=Unscorable()
        )
        explain = estimator.explain(same_table_query)
        assert explain.degradation_level == LEVEL_MAGIC
        rendered = explain.render_text()
        assert "degraded:    level 3 (magic)" in rendered
        payload = explain.to_dict()
        assert payload["degradation_level"] == LEVEL_MAGIC
        assert "excluded_sits" not in payload

    def test_explain_is_silent_at_level_zero(
        self, two_table_db, two_table_pool, join_filter_query
    ):
        estimator = SITEstimator(two_table_db, two_table_pool)
        rendered = estimator.explain(join_filter_query).render_text()
        assert "degraded" not in rendered


class FailingEstimator:
    """A fallback estimator that faults on every call."""

    def estimate_predicates(self, predicates):
        raise RuntimeError("fallback down")


class TestFallbackFailure:
    def test_a_failing_fallback_ends_in_the_magic_constants(
        self, two_table_db, two_table_pool, same_table_query
    ):
        estimator = SITEstimator(
            two_table_db,
            two_table_pool,
            error_function=Unscorable(),
            fallback_estimator=FailingEstimator(),
        )
        result = estimator.estimate(same_table_query)
        assert result.degradation_level == LEVEL_MAGIC
        assert result.backend == "magic"
        assert result.selectivity == magic_selectivity(
            same_table_query.predicates
        )
        assert estimator.resilience.as_dict() == {
            "degraded_level3": 1.0,
            "faults_error": 1.0,
            "faults_no_statistics": 1.0,
        }


class TestMagicRung:
    def test_no_predicates_select_everything(self):
        assert magic_selectivity(()) == 1.0

    def test_the_constants_ignore_predicate_order(
        self, two_table_attrs, two_table_join
    ):
        predicates = [
            FilterPredicate(two_table_attrs["Ra"], 0.0, 10.0),
            FilterPredicate(two_table_attrs["Rx"], 5.0, 15.0),
            two_table_join,
        ]
        assert magic_selectivity(predicates) == magic_selectivity(
            list(reversed(predicates))
        )

    def test_magic_result_admits_every_assumption(
        self, two_table_attrs, two_table_join
    ):
        predicates = frozenset(
            {FilterPredicate(two_table_attrs["Ra"], 0.0, 10.0), two_table_join}
        )
        result = magic_result(predicates)
        assert result.selectivity == magic_selectivity(predicates)
        assert result.error == 2.0
        assert result.coverage == 0.0
        assert result.matches == ()
        assert result.backend == "magic"
        assert result.degradation_level == LEVEL_MAGIC
        assert result.degraded

    def test_only_levels_zero_and_three_have_names(self):
        assert LEVEL_NAMES == {LEVEL_NORMAL: "normal", LEVEL_MAGIC: "magic"}


class TestResilienceTelemetry:
    def test_a_fault_without_a_kind_counts_as_error(self):
        telemetry = ResilienceTelemetry()
        telemetry.record_fault(RuntimeError("boom"))
        telemetry.record_fault(NoApplicableStatisticsError(frozenset()))
        assert telemetry.as_dict() == {
            "faults_error": 1.0,
            "faults_no_statistics": 1.0,
        }

    def test_concurrent_records_are_all_counted(self):
        telemetry = ResilienceTelemetry()

        def record():
            for _ in range(500):
                telemetry.record_level(LEVEL_MAGIC)
                telemetry.record_fault(RuntimeError("boom"))

        threads = [threading.Thread(target=record) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert telemetry.as_dict() == {
            "degraded_level3": 2000.0,
            "faults_error": 2000.0,
        }
