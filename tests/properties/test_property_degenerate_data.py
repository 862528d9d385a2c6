"""Level 0 raises nothing on degenerate data.

The degradation ladder below level 0 exists for real defects; this
property holds that no *data* is one.  Over a small snowflake (a fact
table with two dimensions, one of them with a sub-dimension) it draws
empty tables, constant columns, the extreme finite floats (``±1.7e308``,
``±5e-324``, signed zeros) and filter bounds out to ``±inf``; the pool is
the base histogram of every attribute plus join SITs over up to three
joins.  GS-Diff, GS-nInd and GS-Opt must each answer strictly (any
exception fails the example) at level 0 with a selectivity in [0, 1].
"""

from __future__ import annotations

import math

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.predicates import (
    Attribute,
    FilterPredicate,
    JoinPredicate,
    tables_of,
)
from repro.engine.database import Database, Table
from repro.engine.executor import Executor
from repro.engine.schema import ForeignKey, Schema, TableSchema
from repro.estimators import make_gs_diff, make_gs_nind, make_gs_opt
from repro.resilience import LEVEL_NORMAL
from repro.stats.builder import SITBuilder
from repro.stats.pool import SITPool, connected_join_subsets

#: table -> columns; ``F`` is the fact table, ``C`` hangs off ``A``
TABLES = {
    "F": ("a_id", "b_id", "m"),
    "A": ("id", "c_id", "p"),
    "B": ("id", "q"),
    "C": ("id", "r"),
}
FOREIGN_KEYS = (("F", "a_id", "A"), ("F", "b_id", "B"), ("A", "c_id", "C"))
JOINS = tuple(
    JoinPredicate(Attribute(table, column), Attribute(target, "id"))
    for table, column, target in FOREIGN_KEYS
)
ATTRIBUTES = tuple(
    Attribute(table, column)
    for table, columns in TABLES.items()
    for column in columns
)

TINY = 5e-324
HUGE = 1.7e308
VALUES = st.sampled_from(
    [0.0, -0.0, 1.0, 2.0, 3.0, -1.0, TINY, -TINY, HUGE, -HUGE]
)
BOUNDS = VALUES | st.sampled_from([-math.inf, math.inf])


@st.composite
def columns(draw, rows: int) -> list[float]:
    if draw(st.booleans()):
        return [draw(VALUES)] * rows  # a constant column
    return draw(st.lists(VALUES, min_size=rows, max_size=rows))


@st.composite
def databases(draw) -> Database:
    schema = Schema()
    for table, names in TABLES.items():
        schema.add_table(TableSchema(table, names))
    for table, column, target in FOREIGN_KEYS:
        schema.add_foreign_key(ForeignKey(table, column, target, "id"))
    database = Database(schema)
    for table, names in TABLES.items():
        rows = draw(st.sampled_from([0, 1, 2, 5, 12]))
        database.add_table(
            Table(
                schema.table(table),
                {name: draw(columns(rows)) for name in names},
            )
        )
    return database


@st.composite
def filters(draw) -> FilterPredicate:
    attribute = draw(st.sampled_from(ATTRIBUTES))
    low, high = sorted((draw(BOUNDS), draw(BOUNDS)))
    return FilterPredicate(attribute, low, high)


@st.composite
def cases(draw):
    database = draw(databases())
    joins = draw(st.sets(st.sampled_from(JOINS), max_size=len(JOINS)))
    chosen = draw(st.lists(filters(), min_size=0 if joins else 1, max_size=3))
    predicates = frozenset(joins) | frozenset(chosen)
    return database, predicates, draw(st.integers(0, len(JOINS)))


def build_pool(database: Database, join_budget: int) -> SITPool:
    """Base histograms of every attribute plus SITs over every connected
    set of up to ``join_budget`` joins, on the attributes of its tables."""
    builder = SITBuilder(database)
    sits = [builder.build_base(attribute) for attribute in ATTRIBUTES]
    for expression in connected_join_subsets(frozenset(JOINS), join_budget):
        tables = tables_of(expression)
        sits.extend(
            builder.build_many(
                expression, [a for a in ATTRIBUTES if a.table in tables]
            )
        )
    return SITPool(sits)


@seed(20040613)
@settings(max_examples=200, deadline=None)
@given(case=cases())
def test_level_zero_answers_degenerate_data(case):
    database, predicates, join_budget = case
    pool = build_pool(database, join_budget)
    estimators = (
        make_gs_diff(database, pool, strict=True),
        make_gs_nind(database, pool, strict=True),
        make_gs_opt(database, pool, Executor(database), strict=True),
    )
    for estimator in estimators:
        result = estimator.estimate_predicates(predicates)
        assert result.degradation_level == LEVEL_NORMAL, estimator.name
        assert 0.0 <= result.selectivity <= 1.0, (estimator.name, result)
