"""A replayed result keeps only what differs from the defaults.

``EstimationResult.replayed`` sets the number, the error, the coverage
and the hit flag, and leaves every other scalar field at its dataclass
default, which is a class attribute: nothing is copied into the
result's ``__dict__``.  A read, an ``==`` against the cold twin, and
``copy.copy``, ``pickle``, ``dataclasses.replace`` and ``with_staleness``
must all see every field as if it had been set."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.core.errors import NIndError
from repro.core.get_selectivity import EstimationResult
from repro.core.predicates import FilterPredicate
from repro.estimators import SITEstimator

FIELDS = [f.name for f in dataclasses.fields(EstimationResult)]
#: the fields a copy or pickle carries only by value equality (an
#: unpickled SIT is a new SIT)
BY_VALUE = {"matches"}


@pytest.fixture()
def replay_and_twin(two_table_db, two_table_pool, two_table_attrs, two_table_join):
    predicates = frozenset(
        {
            two_table_join,
            FilterPredicate(two_table_attrs["Ra"], 10.0, 40.0),
            FilterPredicate(two_table_attrs["Sb"], 20.0, 70.0),
        }
    )
    warm = SITEstimator(two_table_db, two_table_pool, NIndError(), plan_cache=True)
    cold = SITEstimator(two_table_db, two_table_pool, NIndError(), plan_cache=False)
    warm.estimate_predicates(predicates)  # compiles
    plan, ordered = warm.plan_cache.plan_for(predicates)

    def replay() -> EstimationResult:
        return plan.replay(ordered)

    return replay, cold.estimate_predicates(predicates)


def expected_fields(twin: EstimationResult, **changes) -> dict:
    values = {name: getattr(twin, name) for name in FIELDS}
    values.update(plan_cache_hit=True, **changes)
    return values


def read_fields(result: EstimationResult) -> dict:
    return {name: getattr(result, name) for name in FIELDS}


def match_values(matches) -> list:
    """``matches`` with each SIT by its name."""
    return [
        (
            match.factor,
            [
                (am.attribute, am.weight, str(am.sit), am.conditioning, am.assumed)
                for am in match.attribute_matches
            ],
        )
        for match in matches
    ]


def assert_fields(result, expected: dict, by_value: bool = False) -> None:
    got = read_fields(result)
    for name in FIELDS:
        if by_value and name in BY_VALUE:
            assert match_values(got[name]) == match_values(expected[name]), name
        else:
            assert got[name] == expected[name], name
            assert type(got[name]) is type(expected[name]), name


def test_defaults_are_not_copied_into_the_instance(replay_and_twin):
    replay, _ = replay_and_twin
    result = replay()
    assert set(vars(result)) == {
        "selectivity", "error", "coverage", "plan_cache_hit", "_replayed_from"
    }
    for name in ("degradation_level", "backend", "error_bound", "staleness_s"):
        assert name not in vars(result)


def test_a_replayed_result_reads_every_field(replay_and_twin):
    replay, twin = replay_and_twin
    assert twin.plan_cache_hit is False
    result = replay()
    assert_fields(result, expected_fields(twin))
    assert (result.degradation_level, result.backend) == (0, "sit")
    assert (result.error_bound, result.staleness_s) == (None, None)
    assert not result.degraded and result.factor_count == twin.factor_count


def test_a_replayed_result_equals_its_cold_twin(replay_and_twin):
    replay, twin = replay_and_twin
    assert replay() == twin and twin == replay()
    assert hash(replay()) == hash(twin)
    assert repr(replay()) == repr(dataclasses.replace(twin, plan_cache_hit=True))


def test_copy_pickle_replace_and_stamp_keep_every_field(replay_and_twin):
    replay, twin = replay_and_twin
    expected = expected_fields(twin)
    assert_fields(copy.copy(replay()), expected)
    assert_fields(copy.deepcopy(replay()), expected, by_value=True)
    thawed = pickle.loads(pickle.dumps(replay()))
    assert_fields(thawed, expected, by_value=True)
    assert_fields(dataclasses.replace(replay()), expected)
    assert_fields(
        dataclasses.replace(replay(), staleness_s=1.5),
        expected_fields(twin, staleness_s=1.5),
    )
    stamped = replay().with_staleness(2.5)
    assert_fields(stamped, expected_fields(twin, staleness_s=2.5))
    assert stamped == twin
