"""Fixtures for the resilience suite."""

from __future__ import annotations

import pytest

from repro.catalog import StatisticsCatalog
from repro.core.predicates import FilterPredicate
from repro.engine.expressions import Query
from repro.stats.builder import SITBuilder


@pytest.fixture()
def join_filter_query(two_table_attrs, two_table_join) -> Query:
    """The workhorse query: R ⋈ S with a filter on the correlated R.a."""
    return Query.of(
        two_table_join, FilterPredicate(two_table_attrs["Ra"], 10.0, 40.0)
    )


@pytest.fixture()
def catalog(two_table_db, two_table_pool) -> StatisticsCatalog:
    """A fresh refresh-capable catalog per test."""
    return StatisticsCatalog.from_pool(
        two_table_pool,
        database=two_table_db,
        builder=SITBuilder(two_table_db),
    )
