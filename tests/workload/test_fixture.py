"""The one snowflake fixture builds what the CLI built by hand before it."""

from repro.catalog import StatisticsCatalog
from repro.catalog.catalog import sit_key
from repro.workload.fixture import snowflake_fixture
from repro.workload.queries import WorkloadConfig, WorkloadGenerator
from repro.workload.snowflake import SnowflakeConfig, generate_snowflake

#: what CI's smokes pass to mirror `python -m repro serve`
SCALE, SEED, QUERIES, MAX_JOINS = 0.05, 11, 2, 1


def test_serving_catalog_matches_the_hand_built_one():
    """`repro serve` used to spell the sequence out; same SIT keys, in
    the same order, at the same catalog version."""
    database = generate_snowflake(SnowflakeConfig(scale=SCALE, seed=SEED))
    queries = WorkloadGenerator(
        database, WorkloadConfig(join_count=2, filter_count=2, seed=SEED)
    ).generate(QUERIES)
    by_hand = StatisticsCatalog.build(database, queries, max_joins=MAX_JOINS)
    present = {sit.attribute for sit in by_hand if sit.is_base}
    for table in database.schema.tables.values():
        for attribute in table.attributes:
            if attribute not in present:
                by_hand.add(by_hand.builder.build_base(attribute))

    fixture = snowflake_fixture(SCALE, SEED, QUERIES, max_joins=MAX_JOINS)
    added = fixture.catalog.add_missing_base_histograms()

    assert [str(q) for q in fixture.queries] == [str(q) for q in queries]
    assert [sit_key(s) for s in fixture.catalog] == [
        sit_key(s) for s in by_hand
    ]
    assert fixture.catalog.version == by_hand.version
    assert added > 0
    attributes = {
        attribute
        for table in database.schema.tables.values()
        for attribute in table.attributes
    }
    assert {s.attribute for s in fixture.catalog if s.is_base} == attributes
    # nothing left to add
    assert fixture.catalog.add_missing_base_histograms() == 0


def test_holdout_continues_the_build_workloads_stream():
    fixture = snowflake_fixture(SCALE, SEED, 2, holdout=2)
    whole = snowflake_fixture(SCALE, SEED, 4)
    assert [str(q) for q in fixture.queries + fixture.holdout] == [
        str(q) for q in whole.queries
    ]
    # the holdout is unseen by the build: same catalog as without it
    assert len(fixture.catalog) == len(snowflake_fixture(SCALE, SEED, 2).catalog)


def test_path_loads_a_saved_catalog_instead_of_building(tmp_path):
    built = snowflake_fixture(SCALE, SEED, QUERIES).catalog
    path = tmp_path / "catalog.json"
    built.save(path)
    loaded = snowflake_fixture(SCALE, SEED, QUERIES, path=path).catalog
    assert [sit_key(s) for s in loaded] == [sit_key(s) for s in built]
    assert loaded.database is not None
