"""StatisticsCatalog: registry, metadata, snapshots and the one
invalidation event path."""

import pytest

from repro.advisor.feedback import FeedbackStore
from repro.catalog import (
    BUILD_FULL,
    BUILD_SAMPLED,
    SITMetadata,
    StatisticsCatalog,
    sit_key,
)
from repro.core.errors import NIndError
from repro.core.predicates import Attribute, FilterPredicate, JoinPredicate
from repro.core.universe import PredicateUniverse
from repro.histograms.base import Bucket, Histogram
from repro.stats.pool import SITPool
from repro.stats.sit import SIT

RA = Attribute("R", "a")
RX = Attribute("R", "x")
SY = Attribute("S", "y")
SB = Attribute("S", "b")
JOIN_RS = JoinPredicate(RX, SY)


def uniform():
    return Histogram([Bucket(0, 10, 100, 10)])


def make_sit(attribute, expression=frozenset(), diff=0.0):
    return SIT(attribute, frozenset(expression), uniform(), diff=diff)


@pytest.fixture()
def catalog():
    pool = SITPool(
        [
            make_sit(RA),
            make_sit(RX),
            make_sit(SY),
            make_sit(SB),
            make_sit(RA, {JOIN_RS}, diff=0.4),
            make_sit(SB, {JOIN_RS}, diff=0.2),
        ]
    )
    return StatisticsCatalog.from_pool(pool)


class TestMetadata:
    def test_rejects_unknown_build_method(self):
        with pytest.raises(ValueError, match="build_method"):
            SITMetadata(build_method="guesswork")

    def test_staleness_against_table_versions(self):
        metadata = SITMetadata(source_versions={"R": 1, "S": 2})
        assert not metadata.is_stale({"R": 1, "S": 2}, ["R", "S"])
        assert metadata.is_stale({"R": 2, "S": 2}, ["R", "S"])
        # only tables the SIT touches matter
        assert not metadata.is_stale({"T": 9}, ["R", "S"])

    def test_dict_roundtrip(self):
        metadata = SITMetadata(
            built_at=10.0,
            build_seconds=0.5,
            build_method=BUILD_SAMPLED,
            source_versions={"R": 3},
            diff=0.7,
        )
        restored = SITMetadata.from_dict(metadata.to_dict(), diff=0.7)
        assert restored == metadata


class TestRegistry:
    def test_from_pool_registers_every_sit(self, catalog):
        assert len(catalog) == 6
        for sit in catalog:
            metadata = catalog.metadata_for(sit)
            assert metadata.build_method == BUILD_FULL
            assert not metadata.is_stale(catalog.table_versions, sit.tables)

    def test_add_replaces_by_key(self, catalog):
        version = catalog.version
        replacement = make_sit(RA, {JOIN_RS}, diff=0.9)
        catalog.add(replacement)
        assert len(catalog) == 6  # replaced, not appended
        assert catalog.metadata_for(replacement).diff == 0.9
        assert catalog.version == version + 1
        assert catalog.stats_snapshot().catalog["sits_built"] == 1.0

    def test_remove(self, catalog):
        target = next(s for s in catalog if not s.is_base)
        assert catalog.remove(target)
        assert len(catalog) == 5
        assert not catalog.remove(target)
        with pytest.raises(KeyError):
            catalog.metadata_for(target)
        assert catalog.stats_snapshot().catalog["sits_dropped"] == 1.0

    def test_status_summary(self, catalog):
        status = catalog.status()
        assert status["sits"] == 6
        assert status["base_histograms"] == 4
        assert status["conditioned_sits"] == 2
        assert status["stale_sits"] == 0
        assert status["build_methods"] == {BUILD_FULL: 6}


class TestSnapshotIsolation:
    def test_mutation_publishes_new_pool(self, catalog):
        snapshot = catalog.snapshot()
        frozen_pool = snapshot.pool
        frozen_names = {str(s) for s in frozen_pool}
        catalog.add(make_sit(SY))
        assert catalog.pool is not frozen_pool
        assert {str(s) for s in frozen_pool} == frozen_names
        assert not snapshot.is_current
        assert catalog.snapshot().is_current

    def test_snapshot_carries_version_and_metadata(self, catalog):
        snapshot = catalog.snapshot()
        assert snapshot.version == catalog.version
        for sit in snapshot:
            assert snapshot.metadata_for(sit) == catalog.metadata_for(sit)


class TestInvalidationEventPath:
    def test_table_update_marks_dependents_stale(self, catalog):
        assert catalog.stale_sits() == []
        catalog.notify_table_update("S")
        stale = {str(s) for s in catalog.stale_sits()}
        # everything touching S: its base histograms and both conditioned
        # SITs (their generating expression joins S)
        assert stale == {
            "SIT(S.y)",
            "SIT(S.b)",
            "SIT(R.a | R.x=S.y)",
            "SIT(S.b | R.x=S.y)",
        }

    def test_feedback_dropped_on_table_update(self, catalog):
        store = catalog.attach_feedback(FeedbackStore())
        store.record_truth(frozenset({FilterPredicate(SB, 0, 5)}), 12)
        store.record_truth(frozenset({FilterPredicate(RA, 0, 5)}), 7)
        catalog.notify_table_update("S")
        # only the R truth survives
        assert store.counters()["truth_entries"] == 1.0
        assert store.lookup_truth(frozenset({FilterPredicate(SB, 0, 5)})) is None
        assert catalog.stats_snapshot().catalog["feedback_dropped"] == 1.0

    def test_table_update_bumps_catalog_and_pool_versions(self, catalog):
        catalog_version = catalog.version
        pool_version = catalog.pool.version
        new = catalog.notify_table_update("R")
        assert new == 1
        assert catalog.table_version("R") == 1
        assert catalog.version == catalog_version + 1
        assert catalog.pool.version == pool_version + 1

    def test_stale_universe_masks_cannot_be_reused(self, catalog):
        """Section 3.4 prune masks are a pure function of the pool's
        membership, fixed when it is built, and of the interned
        predicates: after a ``notify_table_update`` a universe's masks
        equal a fresh universe's, before and after it interns more."""
        predicates = frozenset({JOIN_RS, FilterPredicate(RA, 0, 5)})
        more = frozenset({FilterPredicate(SB, 0, 5)})
        pool = catalog.pool
        universe = PredicateUniverse(pool)
        universe.intern(predicates)
        universe.prune_masks(0)
        catalog.notify_table_update("S")
        assert catalog.pool is pool
        fresh = PredicateUniverse(pool)
        for interned in (predicates, more):
            universe.intern(interned)
            fresh.intern(interned)
            masks = [universe.prune_masks(bit) for bit in range(universe.size)]
            assert masks == [fresh.prune_masks(bit) for bit in range(fresh.size)]

    def test_lifecycle_metrics_flow(self, catalog, two_table_db):
        catalog.attach_feedback(FeedbackStore())
        catalog.notify_table_update("S")
        snapshot = catalog.stats_snapshot()
        assert snapshot.catalog["invalidations"] == 1.0
        assert snapshot.catalog["stale_sits"] == 4.0
        assert snapshot.catalog["sit_count"] == float(len(catalog))
        assert snapshot.meta["subsystem"] == "catalog"

        def gauges(catalog) -> tuple:
            block = catalog.stats_snapshot().catalog
            return (block["version"], block["sit_count"], block["stale_sits"])

        def status(catalog) -> tuple:
            block = catalog.status()
            return tuple(
                float(block[key]) for key in ("version", "sits", "stale_sits")
            )

        assert gauges(catalog) == status(catalog)
        catalog.add(make_sit(RX, {JOIN_RS}, diff=0.1))  # publishes a pool
        assert gauges(catalog) == status(catalog) == (3.0, 7.0, 4.0)
        # a refresh needs data: the same SITs over the two-table database
        built = StatisticsCatalog.from_pool(catalog.pool, database=two_table_db)
        built.notify_table_update("R")
        assert gauges(built) == status(built) == (2.0, 7.0, 5.0)
        built.refresh()
        assert gauges(built) == status(built) == (3.0, 7.0, 0.0)


class TestErrorFunctionIndependence:
    def test_snapshot_pool_is_usable_by_algorithms(self, catalog):
        from repro.core.get_selectivity import GetSelectivity

        snapshot = catalog.snapshot()
        algorithm = GetSelectivity.create(snapshot.pool, NIndError())
        result = algorithm(
            frozenset({JOIN_RS, FilterPredicate(RA, 0, 5)})
        )
        assert 0.0 <= result.selectivity <= 1.0
