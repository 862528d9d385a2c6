"""The graceful-degradation ladder: levels 0, 2 and 3, each reached by a
real defect, plus strictness, monotonicity, telemetry and reporting
through explain/snapshot."""

from __future__ import annotations

import math

import pytest

from repro.core.errors import NIndError
from repro.core.get_selectivity import NoApplicableStatisticsError
from repro.core.predicates import FilterPredicate
from repro.engine.expressions import Query
from repro.estimators import SITEstimator
from repro.estimators.sit import make_nosit
from repro.resilience.ladder import (
    LEVEL_BASE_INDEPENDENCE,
    LEVEL_MAGIC,
    LEVEL_NORMAL,
    MAGIC_FILTER_SELECTIVITY,
    MAGIC_JOIN_SELECTIVITY,
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


class TestLevelTwo:
    def test_an_unscorable_error_function_falls_back_to_nosit(
        self, two_table_db, two_table_pool, same_table_query
    ):
        """Level 0 finds no decomposition with a finite error and raises
        ``NoApplicableStatisticsError``; level 2 answers exactly what
        ``noSit`` (base histograms under independence) answers."""
        estimator = SITEstimator(
            two_table_db, two_table_pool, error_function=Unscorable()
        )
        result = estimator.estimate(same_table_query)
        assert result.degradation_level == LEVEL_BASE_INDEPENDENCE
        nosit = make_nosit(two_table_db, two_table_pool).estimate(
            same_table_query
        )
        assert result.selectivity == nosit.selectivity
        counts = estimator.resilience.as_dict()
        assert counts == {"degraded_level2": 1.0, "faults_no_statistics": 1.0}

    def test_resilience_namespace_in_stats_snapshot(
        self, two_table_db, two_table_pool, same_table_query
    ):
        estimator = SITEstimator(
            two_table_db, two_table_pool, error_function=Unscorable()
        )
        estimator.estimate(same_table_query)
        snapshot = estimator.stats_snapshot()
        assert snapshot.namespace("resilience")["degraded_level2"] == 1.0


class TestLowerRungs:
    def test_an_attribute_no_statistic_covers_reaches_magic(
        self, two_table_db, two_table_pool, join_filter_query, two_table_attrs
    ):
        """Level 2's base histograms do not cover ``R.a`` either, and no
        fallback estimator is configured: the constants answer."""
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
        assert not estimator.resilience


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
        assert explain.degradation_level == LEVEL_BASE_INDEPENDENCE
        rendered = explain.render_text()
        assert "degraded:    level 2 (base_independence)" in rendered
        payload = explain.to_dict()
        assert payload["degradation_level"] == LEVEL_BASE_INDEPENDENCE
        assert "excluded_sits" not in payload

    def test_explain_is_silent_at_level_zero(
        self, two_table_db, two_table_pool, join_filter_query
    ):
        estimator = SITEstimator(two_table_db, two_table_pool)
        rendered = estimator.explain(join_filter_query).render_text()
        assert "degraded" not in rendered
