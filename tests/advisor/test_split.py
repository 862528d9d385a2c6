"""The candidate/safety split: deterministic, leak-free, RNG-free."""

from __future__ import annotations

import pytest

from repro.advisor.feedback import FeedbackStore
from repro.advisor.split import (
    CANDIDATE,
    SAFETY,
    assign_split,
    canonical_key,
    split_records,
)
from repro.core.predicates import FilterPredicate


def predicate_set(two_table_attrs, low: float):
    return frozenset(
        {FilterPredicate(two_table_attrs["Ra"], low, low + 1.0)}
    )


class TestAssignSplit:
    def test_deterministic_across_calls(self, two_table_attrs):
        predicates = predicate_set(two_table_attrs, 7.0)
        sides = {assign_split(predicates, 7, 0.3) for _ in range(10)}
        assert len(sides) == 1

    def test_canonical_key_is_order_independent(self, two_table_attrs):
        a = FilterPredicate(two_table_attrs["Ra"], 0.0, 1.0)
        b = FilterPredicate(two_table_attrs["Sb"], 2.0, 3.0)
        assert canonical_key(frozenset({a, b})) == canonical_key(
            frozenset({b, a})
        )

    def test_fraction_roughly_respected(self, two_table_attrs):
        sides = [
            assign_split(predicate_set(two_table_attrs, float(low)), 7, 0.3)
            for low in range(300)
        ]
        safety_share = sides.count(SAFETY) / len(sides)
        assert 0.2 < safety_share < 0.4

    def test_invalid_fraction_rejected(self, two_table_attrs):
        predicates = predicate_set(two_table_attrs, 0.0)
        for fraction in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                assign_split(predicates, 7, fraction)

    def test_only_two_sides(self, two_table_attrs):
        sides = {
            assign_split(predicate_set(two_table_attrs, float(low)), 3, 0.5)
            for low in range(50)
        }
        assert sides <= {SAFETY, CANDIDATE}


class TestSplitRecords:
    def _log(self, two_table_attrs, repeats: int = 2) -> FeedbackStore:
        log = FeedbackStore(capacity=256)
        for _ in range(repeats):
            for low in range(40):
                log.observe(
                    predicate_set(two_table_attrs, float(low)), float(low)
                )
        return log

    def test_partition_is_disjoint_and_complete(self, two_table_attrs):
        records = self._log(two_table_attrs).records()
        candidate, safety = split_records(records, 7, 0.3)
        assert len(candidate) + len(safety) == len(records)
        assert {r.seq for r in candidate}.isdisjoint(
            r.seq for r in safety
        )
        # arrival order preserved within each side
        assert [r.seq for r in candidate] == sorted(r.seq for r in candidate)
        assert [r.seq for r in safety] == sorted(r.seq for r in safety)

    def test_leak_free_same_predicates_same_side(self, two_table_attrs):
        """The Seldonian precondition: a query seen by the search must
        never also vouch for safety."""
        records = self._log(two_table_attrs, repeats=3).records()
        candidate, safety = split_records(records, 7, 0.3)
        candidate_keys = {canonical_key(r.predicates) for r in candidate}
        safety_keys = {canonical_key(r.predicates) for r in safety}
        assert candidate_keys.isdisjoint(safety_keys)

    def test_same_seed_same_split(self, two_table_attrs):
        records = self._log(two_table_attrs).records()
        first = split_records(records, 7, 0.3)
        second = split_records(records, 7, 0.3)
        assert [r.seq for r in first[0]] == [r.seq for r in second[0]]
        assert [r.seq for r in first[1]] == [r.seq for r in second[1]]

    def test_different_seed_changes_assignment(self, two_table_attrs):
        records = self._log(two_table_attrs).records()
        splits = {
            tuple(r.seq for r in split_records(records, seed, 0.3)[1])
            for seed in range(8)
        }
        assert len(splits) > 1  # the seed actually drives the hash
