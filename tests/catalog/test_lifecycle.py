"""End-to-end SIT lifecycle: build → serve → invalidate → refresh.

The acceptance scenario: a table's data changes, the catalog invalidates
exactly the dependent SITs, ``refresh`` rebuilds only those (the rest
survive as the *same objects*), an in-flight session pinned to the old
snapshot keeps answering off the statistics it started with, and a new
session sees the refreshed statistics — with the cross-query match-cache
hit rate visible in the session's ``StatsSnapshot``.
"""

import numpy as np
import pytest

from repro.catalog import (
    BUILD_FULL,
    BUILD_SAMPLED,
    EstimationSession,
    RefreshPolicy,
    StatisticsCatalog,
    sit_key,
)
from repro.catalog.catalog import RefreshConflict
from repro.core.predicates import Attribute, FilterPredicate, JoinPredicate
from repro.engine.database import Database, Table
from repro.engine.expressions import Query
from repro.engine.schema import ForeignKey, Schema, TableSchema
from repro.stats.sampling import SamplingSITBuilder

RX = Attribute("R", "x")
RA = Attribute("R", "a")
SY = Attribute("S", "y")
SB = Attribute("S", "b")
JOIN = JoinPredicate(RX, SY)


def make_database(seed: int = 0, s_shift: float = 0.0) -> Database:
    """A mutable copy of the two-table skewed-join database."""
    rng = np.random.default_rng(seed)
    schema = Schema()
    schema.add_table(TableSchema("R", ("x", "a")))
    schema.add_table(TableSchema("S", ("y", "b"), primary_key="y"))
    schema.add_foreign_key(ForeignKey("R", "x", "S", "y"))
    db = Database(schema)
    weights = 1.0 / (np.arange(1, 51) ** 1.2)
    weights /= weights.sum()
    r_x = rng.choice(50, size=1000, p=weights).astype(np.float64)
    r_a = (r_x * 2 + rng.integers(0, 5, 1000)).astype(np.float64)
    db.add_table(Table(schema.table("R"), {"x": r_x, "a": r_a}))
    db.add_table(make_s_table(schema, seed, s_shift))
    return db


def make_s_table(schema: Schema, seed: int, s_shift: float) -> Table:
    rng = np.random.default_rng(seed + 1)
    return Table(
        schema.table("S"),
        {
            "y": np.arange(50, dtype=np.float64),
            "b": (rng.integers(0, 100, 50) + s_shift).clip(0, 99).astype(
                np.float64
            ),
        },
    )


@pytest.fixture()
def database():
    return make_database()


@pytest.fixture()
def workload():
    return [
        Query.of(JOIN, FilterPredicate(RA, 0, 20)),
        Query.of(JOIN, FilterPredicate(SB, 10, 40)),
    ]


@pytest.fixture()
def catalog(database, workload):
    return StatisticsCatalog.build(database, workload, max_joins=1)


class TestBuild:
    def test_build_registers_provenance(self, catalog):
        assert len(catalog) > 0
        for sit in catalog:
            metadata = catalog.metadata_for(sit)
            assert metadata.built_at > 0.0
            assert metadata.source_versions == {
                table: 0 for table in sit.tables
            }
        assert catalog.stale_sits() == []


class TestIncrementalRefresh:
    def test_refresh_without_staleness_is_a_no_op_rebuild(self, catalog):
        report = catalog.refresh()
        assert report.rebuilt == []
        assert len(report.kept) == len(catalog)

    def test_only_stale_sits_rebuilt(self, database, catalog):
        survivors = {
            sit_key(s): s for s in catalog if "S" not in s.tables
        }
        database.add_table(make_s_table(database.schema, seed=0, s_shift=30.0))
        catalog.notify_table_update("S")
        report = catalog.refresh()
        rebuilt = set(report.rebuilt)
        assert rebuilt == {
            sit_key(s) for s in catalog if "S" in s.tables
        }
        assert rebuilt.isdisjoint(report.kept)
        # kept SITs are the very same objects: provably untouched
        for sit in catalog:
            if sit_key(sit) in survivors:
                assert sit is survivors[sit_key(sit)]
        assert catalog.stale_sits() == []

    def test_refreshed_sits_reflect_new_data(self, database, catalog):
        stale_before = {
            str(s): s for s in catalog if str(s.attribute) == "S.b"
        }
        database.add_table(make_s_table(database.schema, seed=99, s_shift=25.0))
        catalog.notify_table_update("S")
        catalog.refresh()
        for sit in catalog:
            if str(sit.attribute) == "S.b":
                old = stale_before[str(sit)]
                assert sit.histogram.buckets != old.histogram.buckets

    def test_sampled_refresh_records_method(self, database, workload):
        """A refresh rebuilds by full scan — also in a catalog whose
        first build sampled — and the provenance says so."""
        catalog = StatisticsCatalog.build(
            database,
            workload,
            max_joins=1,
            builder=SamplingSITBuilder(database, sample_fraction=0.5),
        )

        def methods() -> set[str]:
            return {catalog.metadata_for(sit).build_method for sit in catalog}

        assert methods() == {BUILD_SAMPLED}
        for table in ("R", "S"):
            catalog.notify_table_update(table)
        exact = StatisticsCatalog.build(database, workload, max_joins=1)
        assert len(catalog.refresh().rebuilt) == len(catalog)
        assert methods() == {BUILD_FULL}
        assert {str(s): s.histogram.buckets for s in catalog} == {
            str(s): s.histogram.buckets for s in exact
        }

    @pytest.mark.parametrize(
        "field",
        ["method", "sample_fraction", "min_sample_rows", "sampling_seed"],
    )
    def test_sampled_refresh_options_are_gone(self, field):
        # 1.08x faster for 14x the error (DESIGN.md): one rebuild path
        with pytest.raises(TypeError, match=field):
            RefreshPolicy(**{field: 1})

    def test_space_budget_drops_lowest_value_sits(self, catalog, workload):
        conditioned = [s for s in catalog if not s.is_base]
        assert len(conditioned) > 1
        catalog.notify_table_update("S")
        report = catalog.refresh(RefreshPolicy(max_sits=1), queries=workload)
        assert len(report.dropped) == len(conditioned) - 1
        assert sum(1 for s in catalog if not s.is_base) == 1


class TestServingIsolation:
    def test_old_session_consistent_while_new_session_sees_refresh(
        self, database, catalog, workload
    ):
        in_flight = EstimationSession(catalog, name="in-flight")
        query = workload[1]  # filters S.b: refresh will move its estimate
        before = in_flight.cardinality(query)

        # the world changes mid-session
        database.add_table(make_s_table(database.schema, seed=7, s_shift=45.0))
        catalog.notify_table_update("S")
        report = catalog.refresh()
        assert report.rebuilt_count > 0

        # snapshot isolation: the in-flight session answers exactly as it
        # did before the refresh, off the statistics it pinned
        assert in_flight.cardinality(query) == pytest.approx(before)
        assert not in_flight.is_current

        # a new session pins the refreshed snapshot and disagrees
        fresh = EstimationSession(catalog, name="fresh")
        assert fresh.snapshot_version > in_flight.snapshot_version
        assert fresh.cardinality(query) != pytest.approx(before)

    def test_cross_query_cache_hit_rate_surfaces(self, catalog, workload):
        # plan_cache=False: replayed template hits bypass the memo and
        # the factor-match cache this test observes
        session = EstimationSession(catalog, plan_cache=False)
        for query in workload:
            session.selectivity(query)
        first = session.stats_snapshot()
        for query in workload:
            session.selectivity(query)
        snapshot = session.stats_snapshot()
        # the second pass is memo lookups: no matcher call, no match-cache
        # traffic, so the session-lifetime rate is the first pass's
        assert snapshot.counters["matcher_calls"] == first.counters["matcher_calls"]
        hits = snapshot.caches["match_cache_hits"]
        assert snapshot.catalog["match_cache_hit_rate"] == hits / (
            hits + snapshot.caches["match_cache_misses"]
        )
        assert snapshot.meta["queries"] == len(workload) * 2


class TestRefreshRollback:
    def test_fault_mid_rebuild_publishes_nothing(self, catalog):
        from repro.resilience.faults import (
            EstimationFault,
            FaultPlan,
            FaultRule,
            armed,
        )

        catalog.notify_table_update("S")
        version = catalog.version
        stale = len(catalog.stale_sits())
        plan = FaultPlan(
            [
                FaultRule(
                    point="refresh_during_storm",
                    probability=1.0,
                    max_fires=1,
                )
            ],
            seed=1,
        )
        with armed(plan), pytest.raises(EstimationFault):
            catalog.refresh()
        assert catalog.version == version
        assert len(catalog.stale_sits()) == stale
        assert catalog.stats_snapshot().catalog["refresh_aborts"] == 1.0
        catalog.refresh()  # the next round goes through
        assert catalog.stale_sits() == []

    def test_membership_change_mid_refresh_is_a_conflict(
        self, catalog, monkeypatch
    ):
        catalog.notify_table_update("S")
        victim = next(sit for sit in catalog if not sit.is_base)
        build_many = catalog.builder.build_many

        def racing_writer_wins(expression, attributes):
            catalog.remove(victim)
            return build_many(expression, attributes)

        monkeypatch.setattr(catalog.builder, "build_many", racing_writer_wins)
        with pytest.raises(RefreshConflict):
            catalog.refresh()
        # the racing writer's catalog stands; the refresh merged nothing
        assert sit_key(victim) not in {sit_key(sit) for sit in catalog}
        assert catalog.stats_snapshot().catalog["refresh_conflicts"] == 1.0


class TestRefreshReport:
    def test_report_to_dict(self, database, catalog):
        catalog.notify_table_update("S")
        report = catalog.refresh()
        payload = report.to_dict()
        assert "method" not in payload
        assert payload["rebuilt"] == report.rebuilt_count
        assert payload["version_after"] > payload["version_before"]
        assert payload["build_seconds"] >= 0.0

    def test_refresh_metrics(self, database, catalog):
        catalog.notify_table_update("S")
        catalog.refresh()
        snapshot = catalog.stats_snapshot()
        assert snapshot.catalog["refreshes"] == 1.0
        assert snapshot.catalog["sits_rebuilt"] > 0.0
        assert snapshot.catalog["stale_sits"] == 0.0
