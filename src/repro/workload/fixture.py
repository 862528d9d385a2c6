"""The snowflake fixture: database -> random SPJ workload -> J_n catalog.

Every entry point that needs "a database, some queries and a catalog
built over them" — the ``catalog`` / ``serve`` CLI commands, the
``python -m repro.bench`` suites and ``scripts/smoke.py`` — builds it
here, so the three-step sequence exists once.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.catalog.catalog import StatisticsCatalog
from repro.engine.database import Database
from repro.engine.expressions import Query
from repro.workload.queries import WorkloadConfig, WorkloadGenerator
from repro.workload.snowflake import SnowflakeConfig, generate_snowflake


class SnowflakeFixture(NamedTuple):
    database: Database
    #: the workload the catalog is built over
    queries: list[Query]
    catalog: StatisticsCatalog
    #: the next ``holdout`` queries of the same generator stream — same
    #: join/filter mix, unseen by the catalog build
    holdout: list[Query]


def snowflake_fixture(
    scale: float,
    seed: int,
    queries: int,
    *,
    join_count: int = 2,
    filter_count: int = 2,
    max_joins: int = 1,
    holdout: int = 0,
    path=None,
) -> SnowflakeFixture:
    """Generate the Section 5 snowflake database at ``scale``, draw
    ``queries`` (+ ``holdout``) random SPJ queries from one seeded
    stream, and build the ``J_{max_joins}`` catalog over the first
    ``queries`` of them — or, given ``path``, load a saved catalog
    (v2 JSON) onto the database instead of building one."""
    database = generate_snowflake(SnowflakeConfig(scale=scale, seed=seed))
    generator = WorkloadGenerator(
        database,
        WorkloadConfig(
            join_count=join_count, filter_count=filter_count, seed=seed
        ),
    )
    workload = generator.generate(queries)
    if path is not None:
        catalog = StatisticsCatalog.load(path, database=database)
    else:
        catalog = StatisticsCatalog.build(
            database, workload, max_joins=max_joins
        )
    return SnowflakeFixture(
        database, workload, catalog, generator.generate(holdout)
    )
