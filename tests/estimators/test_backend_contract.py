"""The ``Estimator`` protocol's shared surface, backend by backend.

:class:`repro.estimators.Estimator` gives every backend the same
conveniences (``selectivity``, ``cardinality``, ``cardinality_sql``,
``parse_sql``, ``explain``), the same identity (``engine``,
``snapshot_version``, ``table_version``) and the same optional
capabilities (``reset``, ``space_bytes``, tracing).  Each case here runs
on all of :data:`repro.estimators.BACKENDS`, so a backend that overrides
one of them cannot drift from the contract unnoticed.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.catalog import StatisticsCatalog
from repro.engine.expressions import Query
from repro.estimators import BACKENDS, create_estimator
from repro.obs.trace import Trace
from repro.sql.binder import BindingError

SQL = (
    "SELECT * FROM R, S WHERE R.x = S.y "
    "AND R.a BETWEEN 10 AND 40 AND S.b BETWEEN 20 AND 60"
)


@pytest.fixture()
def catalog(two_table_db, two_table_pool) -> StatisticsCatalog:
    return StatisticsCatalog.from_pool(two_table_pool, database=two_table_db)


@pytest.fixture()
def queries(parity_queries) -> list[Query]:
    return [Query.of(*predicates) for predicates in parity_queries]


@pytest.fixture(params=BACKENDS)
def backend(request) -> str:
    return request.param


@pytest.fixture()
def estimator(backend, two_table_db, two_table_pool):
    return create_estimator(backend, two_table_db, two_table_pool)


def test_estimate_is_estimate_predicates(estimator, queries):
    for query in queries:
        assert (
            estimator.estimate(query).selectivity
            == estimator.estimate_predicates(frozenset(query.predicates)).selectivity
        )


def test_selectivity_is_the_estimates(estimator, queries):
    for query in queries:
        assert estimator.selectivity(query) == estimator.estimate(query).selectivity


def test_cardinality_scales_by_the_cross_product(estimator, queries, two_table_db):
    for query in queries:
        expected = estimator.selectivity(query) * two_table_db.cross_product_size(
            query.tables
        )
        assert estimator.cardinality(query) == pytest.approx(expected, rel=1e-12)


def test_cardinality_sql_is_the_bound_querys(estimator):
    query = estimator.parse_sql(SQL)
    assert query.tables == frozenset({"R", "S"})
    assert len(query.filters) == 2
    assert estimator.cardinality_sql(SQL) == pytest.approx(
        estimator.cardinality(query), rel=1e-12
    )


def test_parse_sql_refuses_an_unknown_table(estimator):
    with pytest.raises(BindingError, match="T"):
        estimator.parse_sql("SELECT * FROM T WHERE T.a BETWEEN 1 AND 2")


def test_explain_agrees_with_the_estimate(estimator, queries, backend):
    for query in queries:
        explained = estimator.explain(query)
        result = estimator.estimate(query)
        assert explained.selectivity == result.selectivity
        assert explained.backend == backend
        assert explained.tables == tuple(sorted(query.tables))


def test_explain_takes_sql_text(estimator):
    explained = estimator.explain(SQL)
    assert explained.selectivity == estimator.estimate(
        estimator.parse_sql(SQL)
    ).selectivity
    json.loads(explained.to_json())


def test_space_bytes_counts_what_is_held(estimator, queries, backend, two_table_pool):
    for query in queries:
        estimator.estimate(query)
    held = estimator.space_bytes()
    assert isinstance(held, float)
    assert math.isfinite(held) and held > 0.0
    if backend == "sit":
        assert held == sum(sit.space_bytes for sit in two_table_pool)


def test_reset_is_a_cold_start_with_the_same_answers(estimator, queries):
    before = [estimator.estimate(query).selectivity for query in queries]
    estimator.reset()
    assert [estimator.estimate(query).selectivity for query in queries] == before


def test_engine_label(estimator, backend):
    # the SIT backend names its DP engine; peers default to their tag
    expected = {"sit": "bitmask"}.get(backend, backend)
    assert estimator.engine == expected


def test_snapshot_version_follows_the_statistics(
    backend, two_table_db, two_table_pool, catalog
):
    assert create_estimator(backend, two_table_db, two_table_pool).snapshot_version == 0
    catalog.notify_table_update("R")
    pinned = create_estimator(backend, two_table_db, catalog)
    assert pinned.snapshot_version == catalog.version > 0


def test_table_version_reads_the_live_catalog(backend, two_table_db, catalog):
    estimator = create_estimator(backend, two_table_db, catalog)
    assert estimator.table_version("S") == catalog.table_version("S")
    catalog.notify_table_update("S")
    assert estimator.table_version("S") == catalog.table_version("S")
    # one notify through the estimator reaches the catalog once
    assert estimator.notify_table_update("S") == catalog.table_version("S")


def test_tracing_is_an_optional_capability(estimator, queries, backend):
    trace = estimator.enable_tracing()
    if backend == "sit":
        assert isinstance(trace, Trace)
        assert estimator.trace is trace
        estimator.estimate(queries[-1])
        assert trace.calls
        estimator.disable_tracing()
        assert estimator.trace is None
        recorded = trace.snapshot()
        estimator.estimate(queries[0])
        assert trace.snapshot() == recorded
    else:
        # no tracing here: every call says so instead of raising
        assert trace is None
        assert estimator.trace is None
        estimator.disable_tracing()
        assert estimator.trace is None


def test_stats_snapshot_is_json_ready_and_tagged(estimator, queries, backend):
    for query in queries:
        estimator.estimate(query)
    snapshot = estimator.stats_snapshot()
    assert snapshot.meta["backend"] == backend
    assert snapshot.meta["estimator"] == estimator.name
    payload = json.loads(json.dumps(snapshot.to_dict()))
    assert payload["meta"]["backend"] == backend
