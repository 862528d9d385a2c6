"""Configuration search: measured q-error scoring, budget, determinism."""

from __future__ import annotations

import pytest

from repro.advisor.feedback import FeedbackStore
from repro.advisor.search import (
    ConfigurationSearch,
    MeasuredRecord,
    median,
    q_error,
)
from repro.core.predicates import FilterPredicate, join_predicates
from repro.engine.executor import Executor
from repro.stats.pool import rank_sits


class TestQError:
    def test_identity_is_one(self):
        assert q_error(100.0, 100.0) == pytest.approx(1.0)

    def test_symmetric(self):
        assert q_error(10.0, 40.0) == q_error(40.0, 10.0)

    def test_zero_guarded(self):
        assert q_error(0.0, 0.0) == pytest.approx(1.0)
        assert q_error(0.0, 10.0) > 1e9


class TestMedian:
    def test_odd(self):
        assert median([3.0, 1.0, 2.0]) == 2.0

    def test_even_is_mean_of_middle_pair(self):
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])


@pytest.fixture()
def measured_records(
    two_table_db, two_table_attrs, two_table_join
) -> list[MeasuredRecord]:
    """Feedback filtering ``S.b`` (reshaped by the skewed join), truth
    from the engine."""
    executor = Executor(two_table_db)
    log = FeedbackStore(capacity=64)
    measured = []
    for low in range(0, 70, 5):
        predicates = frozenset(
            {
                two_table_join,
                FilterPredicate(two_table_attrs["Sb"], float(low), low + 25.0),
            }
        )
        record = log.observe(predicates, 0.0)
        measured.append(
            MeasuredRecord(record, executor.cardinality(predicates))
        )
    return measured


@pytest.fixture()
def search_parts(two_table_pool):
    base = [sit for sit in two_table_pool if sit.is_base]
    conditioned = [sit for sit in two_table_pool if not sit.is_base]
    assert conditioned  # the fixture pool carries SITs to choose from
    return base, conditioned


class TestConfigurationSearch:
    def test_static_score_uses_measured_applicability(
        self, two_table_db, measured_records, search_parts
    ):
        base, conditioned = search_parts
        count = len(measured_records)
        joins = [join_predicates(m.record.predicates) for m in measured_records]
        # every record's join set subsumes the single-join expression; a
        # filter-only record would make no candidate applicable
        ranked = rank_sits(conditioned, joins + [frozenset()])
        for sit, score, applicability in ranked:
            assert applicability == count
            assert score == pytest.approx(
                sit.diff * count / (1.0 + sit.join_count)
            )
        search = ConfigurationSearch(
            database=two_table_db,
            base_sits=base,
            candidates=conditioned,
            records=measured_records,
        )
        assert search.ranked_candidates() == [sit for sit, _, _ in ranked]

    def test_evaluate_counts_and_scores(
        self, two_table_db, measured_records, search_parts
    ):
        base, conditioned = search_parts
        search = ConfigurationSearch(
            database=two_table_db,
            base_sits=base,
            candidates=conditioned,
            records=measured_records,
        )
        errors = search.evaluate(frozenset())
        assert len(errors) == len(measured_records)
        assert all(error >= 1.0 for error in errors)
        assert search.evaluations == 1

    def test_conditioned_sits_improve_measured_median(
        self, two_table_db, measured_records, search_parts
    ):
        """The premise of the whole loop: on the correlated workload the
        SIT-bearing configuration beats base-only."""
        base, conditioned = search_parts
        search = ConfigurationSearch(
            database=two_table_db,
            base_sits=base,
            candidates=conditioned,
            records=measured_records,
        )
        base_only = median(search.evaluate(frozenset()))
        full = median(
            search.evaluate(frozenset(str(sit) for sit in conditioned))
        )
        assert full < base_only

    def test_greedy_is_deterministic(
        self, two_table_db, measured_records, search_parts
    ):
        base, conditioned = search_parts

        def run():
            return ConfigurationSearch(
                database=two_table_db,
                base_sits=base,
                candidates=conditioned,
                records=measured_records,
            ).greedy()

        assert run() == run()

    def test_greedy_respects_space_budget(
        self, two_table_db, measured_records, search_parts
    ):
        base, conditioned = search_parts
        spaces = {str(sit): sit.space_bytes for sit in conditioned}
        budget = min(spaces.values())  # room for at most the smallest
        search = ConfigurationSearch(
            database=two_table_db,
            base_sits=base,
            candidates=conditioned,
            records=measured_records,
            space_budget_bytes=budget,
        )
        chosen, _ = search.greedy()
        assert sum(spaces[name] for name in chosen) <= budget

    def test_greedy_bounded_by_max_moves(
        self, two_table_db, measured_records, search_parts
    ):
        base, conditioned = search_parts
        search = ConfigurationSearch(
            database=two_table_db,
            base_sits=base,
            candidates=conditioned,
            records=measured_records,
            max_moves=2,
        )
        search.greedy()
        assert search.evaluations <= 2

    def test_empty_records_is_a_no_op(
        self, two_table_db, search_parts
    ):
        base, conditioned = search_parts
        search = ConfigurationSearch(
            database=two_table_db,
            base_sits=base,
            candidates=conditioned,
            records=[],
        )
        assert search.greedy() == (frozenset(), float("inf"))
        assert search.evaluations == 0
