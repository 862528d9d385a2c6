"""The graceful-degradation ladder: levels 1-3, strictness, telemetry,
monotonicity, and reporting through explain/snapshot."""

from __future__ import annotations

import pytest

from repro.estimators import SITEstimator
from repro.resilience.faults import (
    FaultPlan,
    FaultRule,
    POINT_HISTOGRAM_JOIN,
    POINT_SIT_MATCH,
    SITUnavailable,
    armed,
)
from repro.resilience.ladder import (
    LEVEL_BASE_INDEPENDENCE,
    LEVEL_MAGIC,
    LEVEL_NORMAL,
    LEVEL_REPLAN,
    MAGIC_FILTER_SELECTIVITY,
    MAGIC_JOIN_SELECTIVITY,
    magic_selectivity,
)


def estimator_for(db, pool, **kwargs) -> SITEstimator:
    return SITEstimator(db, pool, **kwargs)


def storm(point=POINT_SIT_MATCH, **kwargs) -> FaultPlan:
    """Every eligible evaluation at ``point`` faults, forever."""
    return FaultPlan(
        [FaultRule(point=point, probability=1.0, max_fires=None, **kwargs)],
        seed=0,
    )


class TestLevelZero:
    def test_no_faults_means_level_zero(
        self, two_table_db, two_table_pool, join_filter_query
    ):
        result = estimator_for(two_table_db, two_table_pool).estimate(
            join_filter_query
        )
        assert result.degradation_level == LEVEL_NORMAL
        assert result.excluded_sits == ()
        assert not result.degraded


class TestLevelOneReplan:
    def plan(self) -> FaultPlan:
        # take down exactly the conditioned SIT on R.a, once
        return FaultPlan(
            [FaultRule(point=POINT_SIT_MATCH, match="SIT(R.a | ")], seed=0
        )

    def test_replan_excludes_the_failed_sit(
        self, two_table_db, two_table_pool, join_filter_query
    ):
        estimator = estimator_for(two_table_db, two_table_pool)
        with armed(self.plan()):
            result = estimator.estimate(join_filter_query)
        assert result.degradation_level == LEVEL_REPLAN
        assert len(result.excluded_sits) == 1
        assert result.excluded_sits[0].startswith("SIT(R.a | ")
        assert 0.0 <= result.selectivity <= 1.0

    def test_replan_matches_direct_estimate_on_reduced_pool(
        self, two_table_db, two_table_pool, join_filter_query
    ):
        """Level 1 is *exactly* a fresh DP over pool − {failed SIT}."""
        estimator = estimator_for(two_table_db, two_table_pool)
        with armed(self.plan()):
            degraded = estimator.estimate(join_filter_query)
        reduced = two_table_pool.excluding(degraded.excluded_sits)
        direct = estimator_for(two_table_db, reduced).estimate(
            join_filter_query
        )
        assert degraded.selectivity == direct.selectivity

    def test_telemetry_records_the_ladder_walk(
        self, two_table_db, two_table_pool, join_filter_query
    ):
        estimator = estimator_for(two_table_db, two_table_pool)
        with armed(self.plan()):
            estimator.estimate(join_filter_query)
        counts = estimator.resilience.as_dict()
        assert counts["degraded_level1"] == 1.0
        assert counts["faults_sit_unavailable"] == 1.0
        assert counts["replans"] == 1.0

    def test_resilience_namespace_in_stats_snapshot(
        self, two_table_db, two_table_pool, join_filter_query
    ):
        estimator = estimator_for(two_table_db, two_table_pool)
        with armed(self.plan()):
            estimator.estimate(join_filter_query)
        snapshot = estimator.stats_snapshot()
        assert snapshot.namespace("resilience")["degraded_level1"] == 1.0


class TestLowerRungs:
    def test_sit_match_storm_lands_on_a_lower_rung(
        self, two_table_db, two_table_pool, join_filter_query
    ):
        """When every SIT match faults, the estimate still comes back."""
        estimator = estimator_for(two_table_db, two_table_pool)
        with armed(storm()):
            result = estimator.estimate(join_filter_query)
        assert result.degradation_level >= LEVEL_REPLAN
        assert 0.0 <= result.selectivity <= 1.0

    def test_histogram_storm_reaches_magic(
        self, two_table_db, two_table_pool, join_filter_query
    ):
        """Histogram joins failing everywhere leaves only the constants."""
        estimator = estimator_for(two_table_db, two_table_pool)
        with armed(storm(POINT_HISTOGRAM_JOIN, fault="histogram_corrupt")):
            result = estimator.estimate(join_filter_query)
        assert result.degradation_level == LEVEL_MAGIC
        assert result.selectivity == magic_selectivity(
            join_filter_query.predicates
        )

    def test_magic_constants(self, two_table_attrs, two_table_join):
        from repro.core.predicates import FilterPredicate

        f = FilterPredicate(two_table_attrs["Ra"], 0.0, 10.0)
        assert magic_selectivity({f}) == MAGIC_FILTER_SELECTIVITY
        assert magic_selectivity({two_table_join}) == MAGIC_JOIN_SELECTIVITY
        assert magic_selectivity({f, two_table_join}) == pytest.approx(
            MAGIC_FILTER_SELECTIVITY * MAGIC_JOIN_SELECTIVITY
        )


class TestStrictMode:
    def test_strict_estimator_raises_instead_of_degrading(
        self, two_table_db, two_table_pool, join_filter_query
    ):
        estimator = estimator_for(
            two_table_db, two_table_pool, strict=True
        )
        with armed(storm()):
            with pytest.raises(SITUnavailable):
                estimator.estimate(join_filter_query)


class TestMonotonicity:
    def test_degradation_level_monotone_in_failed_sit_set(
        self, two_table_db, two_table_pool, join_filter_query
    ):
        """Failing a superset of SITs never yields a *lower* rung.

        The ladder property from the issue: with fault sets
        ∅ ⊆ {R.a|J} ⊆ {all conditioned} ⊆ {everything}, the resulting
        degradation levels are non-decreasing.
        """
        plans = [
            FaultPlan([], seed=0),
            FaultPlan(
                [FaultRule(point=POINT_SIT_MATCH, match="SIT(R.a | ")],
                seed=0,
            ),
            FaultPlan(
                [
                    FaultRule(
                        point=POINT_SIT_MATCH,
                        match=" | ",  # every conditioned SIT
                        max_fires=None,
                    )
                ],
                seed=0,
            ),
            storm(),
        ]
        levels = []
        for plan in plans:
            estimator = estimator_for(two_table_db, two_table_pool)
            with armed(plan):
                levels.append(
                    estimator.estimate(join_filter_query).degradation_level
                )
        assert levels == sorted(levels)
        assert levels[0] == LEVEL_NORMAL
        assert levels[-1] >= LEVEL_BASE_INDEPENDENCE - 1  # degraded at all
        assert levels[-1] >= levels[1] >= levels[0]


class TestExplainReportsDegradation:
    def test_explain_carries_level_and_exclusions(
        self, two_table_db, two_table_pool, join_filter_query
    ):
        estimator = estimator_for(two_table_db, two_table_pool)
        plan = FaultPlan(
            [FaultRule(point=POINT_SIT_MATCH, match="SIT(R.a | ")], seed=0
        )
        with armed(plan):
            explain = estimator.explain(join_filter_query)
        assert explain.degradation_level == LEVEL_REPLAN
        assert explain.excluded_sits
        rendered = explain.render_text()
        assert "degraded:    level 1 (replan)" in rendered
        payload = explain.to_dict()
        assert payload["degradation_level"] == LEVEL_REPLAN
        assert payload["excluded_sits"] == list(explain.excluded_sits)

    def test_explain_is_silent_at_level_zero(
        self, two_table_db, two_table_pool, join_filter_query
    ):
        estimator = estimator_for(two_table_db, two_table_pool)
        rendered = estimator.explain(join_filter_query).render_text()
        assert "degraded" not in rendered
