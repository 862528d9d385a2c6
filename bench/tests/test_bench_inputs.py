"""What ``--seed`` may and may not change."""

import pytest

from bench import inputs
from repro.core.plancache import shape_fingerprint
from repro.sql import parse_query


@pytest.fixture(scope="module")
def database():
    return inputs.build_database()


@pytest.fixture(scope="module")
def templates(database):
    return inputs.flatten(inputs.draw_templates(database, inputs.REPLAY_CLASSES))


def stream(templates, seed):
    per_template = inputs.instantiate(templates, inputs.REPLAY_VARIANTS, seed, sql=True)
    return inputs.shuffled(inputs.flatten(per_template), seed)


def test_same_seed_gives_byte_identical_stream(templates):
    assert inputs.stream_bytes(stream(templates, 7)) == inputs.stream_bytes(stream(templates, 7))


def test_templates_do_not_depend_on_the_seed(database, templates):
    again = inputs.flatten(inputs.draw_templates(database, inputs.REPLAY_CLASSES))
    assert [t.predicates for t in again] == [t.predicates for t in templates]


def test_other_seed_changes_constants_but_no_fingerprint(templates):
    one = inputs.instantiate(templates, inputs.REPLAY_VARIANTS, 1)
    two = inputs.instantiate(templates, inputs.REPLAY_VARIANTS, 2)
    assert inputs.stream_bytes(inputs.flatten(one)) != inputs.stream_bytes(inputs.flatten(two))
    for template, ones, twos in zip(templates, one, two):
        expected = shape_fingerprint(template.predicates)[0]
        for request in ones + twos:
            assert shape_fingerprint(request.predicates)[0] == expected


def test_every_template_is_its_own_plan_cache_entry(database):
    for classes in (inputs.REPLAY_CLASSES, inputs.COLD_CLASSES, inputs.STORM_CLASSES):
        drawn = inputs.flatten(inputs.draw_templates(database, classes))
        assert len(drawn) == sum(count for _, _, count in classes)
        assert len({shape_fingerprint(t.predicates)[0] for t in drawn}) == len(drawn)


def test_rendered_sql_parses_back_to_the_predicate_set(database, templates):
    for request in stream(templates, 3):
        assert parse_query(request.sql, database.schema).predicates == request.predicates
