"""Shared fixtures: small deterministic databases and SIT pools."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.get_selectivity import GetSelectivity
from repro.core.predicates import Attribute, FilterPredicate, JoinPredicate
from repro.engine.database import Database, Table
from repro.engine.executor import Executor
from repro.engine.schema import ForeignKey, Schema, TableSchema
from repro.histograms.base import Bucket
from repro.stats.builder import SITBuilder
from repro.stats.pool import SITPool
from repro.workload.snowflake import SnowflakeConfig, generate_snowflake
from repro.workload.tpch import TPCHConfig, generate_tpch


@pytest.fixture(scope="session")
def two_table_db() -> Database:
    """R(x, a) joining S(y, b): skewed FK, a correlated with x.

    * ``R.x`` references ``S.y`` (keys 0..49) with Zipf-ish frequencies.
    * ``R.a = 2x + noise`` so filters on ``a`` correlate with the key.
    * ``S.b`` is uniform on [0, 100).
    """
    rng = np.random.default_rng(0)
    schema = Schema()
    schema.add_table(TableSchema("R", ("x", "a")))
    schema.add_table(TableSchema("S", ("y", "b"), primary_key="y"))
    schema.add_foreign_key(ForeignKey("R", "x", "S", "y"))
    db = Database(schema)
    weights = 1.0 / (np.arange(1, 51) ** 1.2)
    weights /= weights.sum()
    r_x = rng.choice(50, size=2000, p=weights).astype(np.float64)
    r_a = (r_x * 2 + rng.integers(0, 5, 2000)).astype(np.float64)
    db.add_table(Table(schema.table("R"), {"x": r_x, "a": r_a}))
    db.add_table(
        Table(
            schema.table("S"),
            {
                "y": np.arange(50, dtype=np.float64),
                "b": rng.integers(0, 100, 50).astype(np.float64),
            },
        )
    )
    return db


@pytest.fixture(scope="session")
def two_table_attrs() -> dict[str, Attribute]:
    return {
        "Rx": Attribute("R", "x"),
        "Ra": Attribute("R", "a"),
        "Sy": Attribute("S", "y"),
        "Sb": Attribute("S", "b"),
    }


@pytest.fixture(scope="session")
def two_table_join(two_table_attrs) -> JoinPredicate:
    return JoinPredicate(two_table_attrs["Rx"], two_table_attrs["Sy"])


@pytest.fixture(scope="session")
def two_table_pool(two_table_db, two_table_attrs, two_table_join) -> SITPool:
    """Base histograms plus SITs on the join expression."""
    builder = SITBuilder(two_table_db)
    return SITPool(
        [
            *(builder.build_base(a) for a in two_table_attrs.values()),
            *builder.build_many(
                frozenset((two_table_join,)),
                [two_table_attrs["Ra"], two_table_attrs["Sb"]],
            ),
        ]
    )


@pytest.fixture(scope="session")
def two_table_executor(two_table_db) -> Executor:
    return Executor(two_table_db)


@pytest.fixture(scope="session")
def tiny_snowflake() -> Database:
    return generate_snowflake(SnowflakeConfig(scale=0.05, seed=11))


@pytest.fixture(scope="session")
def small_snowflake() -> Database:
    return generate_snowflake(SnowflakeConfig(scale=0.15, seed=11))


@pytest.fixture(scope="session")
def tpch_db() -> Database:
    return generate_tpch(TPCHConfig())


def make_filter(attribute: Attribute, low: float, high: float) -> FilterPredicate:
    return FilterPredicate(attribute, low, high)


def with_reference_engine(estimator):
    """Swap a ``SITEstimator``'s DP for the reference implementation.

    ``GetSelectivity.create(..., engine="legacy")`` is the only place the
    oracle can be asked for by name; tests that want it under an
    estimator or a session (``with_reference_engine(session.estimator)``)
    put it there through this helper.
    """
    estimator.algorithm = GetSelectivity.create(
        estimator.pool,
        estimator.error_function,
        engine="legacy",
        sit_driven_pruning=estimator.algorithm.sit_driven_pruning,
    )
    return estimator


@pytest.fixture()
def bucket_births(monkeypatch) -> list:
    """One entry per :class:`Bucket` built while the test runs.

    A :class:`~repro.histograms.base.Histogram` is slotted and has no
    ``__dict__`` a ``Bucket`` tuple could be left in, so "no bucket" is a
    question about construction: this counts every ``Bucket.__init__``
    (through the ``__post_init__`` it calls)."""
    births: list = []
    post_init = Bucket.__post_init__

    def counted(bucket) -> None:
        births.append(bucket)
        post_init(bucket)

    monkeypatch.setattr(Bucket, "__post_init__", counted)
    return births
