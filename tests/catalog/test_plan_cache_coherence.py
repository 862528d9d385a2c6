"""Plan-cache coherence through the catalog's single invalidation path.

The regression the compiled-plan cache must never introduce: a plan
compiled against snapshot V being *served* after the underlying table
changed.  ``StatisticsCatalog.notify_table_update`` bumps the published
pool's derived-state version; every :class:`~repro.core.plancache.
PlanCache` lookup revalidates that counter, so a mutation between
compile and replay evicts the plan and the next request recompiles.  A
hot snapshot swap (``refresh``) retires the owning session — and its
cache object — wholesale.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.catalog import EstimationSession, StatisticsCatalog
from repro.core.predicates import Attribute, FilterPredicate, JoinPredicate
from repro.engine.database import Database, Table
from repro.engine.expressions import Query
from repro.engine.schema import ForeignKey, Schema, TableSchema
from repro.service import EstimationService, ServiceConfig

RX = Attribute("R", "x")
RA = Attribute("R", "a")
SY = Attribute("S", "y")
SB = Attribute("S", "b")
JOIN = JoinPredicate(RX, SY)


def make_s_table(schema: Schema, seed: int, s_shift: float) -> Table:
    rng = np.random.default_rng(seed + 1)
    return Table(
        schema.table("S"),
        {
            "y": np.arange(50, dtype=np.float64),
            "b": (rng.integers(0, 100, 50) + s_shift)
            .clip(0, 99)
            .astype(np.float64),
        },
    )


def make_database(seed: int = 0) -> Database:
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
    db.add_table(make_s_table(schema, seed, 0.0))
    return db


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


class TestTableUpdateInvalidation:
    def test_mutation_between_compile_and_replay_forces_recompile(
        self, database, catalog, workload
    ):
        """The headline regression test: compile, mutate the table,
        replay — the stale plan must be evicted, not served."""
        session = EstimationSession(catalog)
        query = workload[1]  # touches S.b

        compiled = session.estimate(query)
        replayed = session.estimate(query)
        assert not compiled.plan_cache_hit
        assert replayed.plan_cache_hit
        assert session.plan_cache.status()["compiles"] == 1

        # the table changes under the compiled plan
        database.add_table(make_s_table(database.schema, seed=0, s_shift=0.0))
        catalog.notify_table_update("S")

        after = session.estimate(query)
        assert not after.plan_cache_hit  # recompiled, not served stale
        status = session.plan_cache.status()
        assert status["compiles"] == 2
        assert status["evictions"] >= 1
        # and the recompiled answer is the full DP's answer
        cold = EstimationSession(catalog, plan_cache=False).estimate(query)
        assert after.selectivity == cold.selectivity
        assert after.error == cold.error
        # steady state resumes behind the fresh plan
        assert session.estimate(query).plan_cache_hit

    def test_update_invalidates_every_shape_at_once(
        self, database, catalog, workload
    ):
        session = EstimationSession(catalog)
        for query in workload:
            session.estimate(query)
        assert len(session.plan_cache) == len(workload)
        catalog.notify_table_update("R")
        assert not session.estimate(workload[0]).plan_cache_hit
        assert not session.estimate(workload[1]).plan_cache_hit
        assert session.plan_cache.status()["evictions"] >= len(workload)


class TestHotSwap:
    def test_refresh_retires_the_old_cache_and_recompiles_on_new_stats(
        self, database, catalog, workload
    ):
        in_flight = EstimationSession(catalog, name="in-flight")
        query = workload[1]  # filters S.b: the refresh moves its estimate
        before = in_flight.estimate(query)
        assert in_flight.estimate(query).plan_cache_hit

        # the world changes and the catalog hot-swaps its statistics
        database.add_table(make_s_table(database.schema, seed=99, s_shift=30.0))
        catalog.notify_table_update("S")
        report = catalog.refresh()
        assert report.rebuilt_count > 0
        assert not in_flight.is_current

        # snapshot isolation survives the eviction: the in-flight session
        # recompiles off its *pinned* statistics and answers identically
        after = in_flight.estimate(query)
        assert after.selectivity == before.selectivity
        assert after.error == before.error

        # a fresh session gets its own cache, compiled on the new snapshot
        fresh = EstimationSession(catalog, name="fresh")
        assert fresh.plan_cache is not in_flight.plan_cache
        swapped = fresh.estimate(query)
        assert not swapped.plan_cache_hit
        assert swapped.selectivity != before.selectivity
        cold = EstimationSession(catalog, plan_cache=False).estimate(query)
        assert swapped.selectivity == cold.selectivity
        assert fresh.estimate(query).plan_cache_hit


class TestCatalogAggregation:
    """The catalog keeps no ledger of plan caches: the service that owns
    them reports them, counting each distinct live cache once."""

    @staticmethod
    def serve(catalog, workers):
        config = ServiceConfig(workers=workers, queue_depth=64)
        return EstimationService(catalog, config=config)

    def test_catalog_status_aggregates_session_caches(
        self, catalog, workload
    ):
        with self.serve(catalog, workers=2) as service:
            deadline = time.monotonic() + 10.0
            while len(service._sessions) < 2:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            for _ in range(2):
                for query in workload:
                    service.estimate(query)
            block = dict(service.stats_snapshot().plan_cache)
            # both worker sessions hold the one cache over the served pool
            assert {id(session.plan_cache) for session in service._sessions} == {
                id(service._plan_cache)
            }
        assert "plan_cache" not in catalog.status()
        assert block["compiles"] == block["plans"] == float(len(workload))
        assert block["hits"] >= len(workload)
        assert 0.0 < block["hit_rate"] <= 1.0

    def test_retired_sessions_fall_out_of_the_aggregate(
        self, database, catalog, workload
    ):
        query = workload[1]
        with self.serve(catalog, workers=1) as service:
            service.estimate(query)
            assert service.estimate(query).plan_cache_hit
            retired = service._plan_cache
            database.add_table(
                make_s_table(database.schema, seed=99, s_shift=30.0)
            )
            catalog.notify_table_update("S")
            assert catalog.refresh().rebuilt_count > 0
            service.estimate(query)  # the worker rolls onto the new pool
            block = dict(service.stats_snapshot().plan_cache)
            live = service._plan_cache
        assert live is not retired
        # the retired cache is no longer counted live, but its events are
        assert block["plans"] == float(len(live)) == 1.0
        assert block["compiles"] == 2.0
        assert block["hits"] == 1.0
