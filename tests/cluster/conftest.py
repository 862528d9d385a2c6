"""Fixtures for the cluster tier: a catalog over the two-table database
plus predicate-set workloads whose templates split across the shards."""

from __future__ import annotations

import pytest

from repro.catalog import StatisticsCatalog
from repro.core.predicates import FilterPredicate


@pytest.fixture()
def cluster_catalog(two_table_db, two_table_pool) -> StatisticsCatalog:
    """A fresh catalog per test (swap tests bump its version)."""
    return StatisticsCatalog.from_pool(two_table_pool, database=two_table_db)


@pytest.fixture()
def cluster_queries(two_table_attrs, two_table_join) -> list[frozenset]:
    """Two query templates (filters on R.a and on S.b), many constants —
    the shape the fingerprint router splits across shards."""
    queries: list[frozenset] = []
    for index in range(30):
        low = float(index % 20)
        queries.append(
            frozenset(
                {
                    two_table_join,
                    FilterPredicate(two_table_attrs["Ra"], low, low + 12.0),
                }
            )
        )
        queries.append(
            frozenset(
                {
                    two_table_join,
                    FilterPredicate(two_table_attrs["Sb"], low, low + 30.0),
                }
            )
        )
    return queries
