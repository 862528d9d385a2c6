"""One value count per column.

A SIT's histogram and its ``diff_H`` share one count of the expression
result's values, and a base column's count is memoized beside the base
SITs until ``invalidate_table`` evicts it with them.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
import repro.histograms.base as histograms_base
from repro.catalog import StatisticsCatalog
from repro.core.predicates import FilterPredicate, tables_of
from repro.engine.executor import Executor
from repro.engine.expressions import Query
from repro.histograms import equidepth, equiwidth, maxdiff, wavelet
from repro.histograms.base import ValueCounts
from repro.stats import builder, diff, sampling
from repro.stats.diff import exact_diff
from repro.workload.fixture import snowflake_fixture

from tests.catalog.test_lifecycle import JOIN, SB, make_database, make_s_table


@pytest.fixture(scope="module")
def snowflake():
    database, queries, _, _ = snowflake_fixture(0.05, 11, 4, max_joins=2)
    return database, queries


def expression_values(database, sit) -> np.ndarray:
    """The SIT attribute's values over its expression, counted afresh."""
    if sit.attribute.table in tables_of(sit.expression):
        return Executor(database).execute(sit.expression).column(sit.attribute)
    return database.column(sit.attribute)


def assert_exact_diffs(catalog, database) -> None:
    for sit in catalog:
        if sit.is_base:
            assert sit.diff == 0.0
        else:
            assert sit.diff == exact_diff(
                database.column(sit.attribute), expression_values(database, sit)
            ), str(sit)


@pytest.fixture()
def counts(monkeypatch) -> list:
    """One entry per value count made (a :class:`ValueCounts` handed on
    is not a count), wherever ``values_and_frequencies`` is called."""
    made: list = []
    count = histograms_base.values_and_frequencies

    def counted(values):
        if not isinstance(values, ValueCounts):
            made.append(len(values))
        return count(values)

    for module in (
        histograms_base,
        maxdiff,
        equidepth,
        equiwidth,
        wavelet,
        builder,
        diff,
        sampling,
    ):
        monkeypatch.setattr(module, "values_and_frequencies", counted)
    return made


class TestSharedCounts:
    def test_every_diff_is_the_exact_diff(self, snowflake):
        database, queries = snowflake
        catalog = StatisticsCatalog.build(database, queries, max_joins=2)
        assert any(not sit.is_base for sit in catalog)
        assert_exact_diffs(catalog, database)

    def test_one_count_per_sit_plus_one_per_base_attribute(self, snowflake, counts):
        database, queries = snowflake
        catalog = StatisticsCatalog.build(database, queries, max_joins=2)
        catalog.add_missing_base_histograms()
        sits = list(catalog)
        attributes = {sit.attribute for sit in sits}
        assert 0 < len(counts) <= len(sits) + len(attributes)

    def test_a_base_column_is_counted_once(
        self, two_table_db, two_table_attrs, two_table_join, counts
    ):
        sit_builder = builder.SITBuilder(two_table_db)
        sb = two_table_attrs["Sb"]
        sit_builder.build_base(sb)
        sit_builder.build_base(sb)
        assert len(counts) == 1
        # S.b over the join: one count of the result, shared by the
        # histogram and diff_H; the base count is the memoized one
        sit_builder.build_many(frozenset({two_table_join}), [sb])
        assert len(counts) == 2


class TestTheMemoFollowsTheTable:
    def test_a_rebuilt_diff_reflects_the_new_column(self):
        database = make_database()
        workload = [Query.of(JOIN, FilterPredicate(SB, 10, 40))]
        catalog = StatisticsCatalog.build(database, workload, max_joins=1)
        before = {str(sit): sit.diff for sit in catalog if sit.attribute == SB}
        database.add_table(make_s_table(database.schema, seed=3, s_shift=40.0))
        catalog.notify_table_update("S")
        assert catalog.refresh().rebuilt
        after = {str(sit): sit.diff for sit in catalog if sit.attribute == SB}
        assert after.keys() == before.keys() and after != before
        assert_exact_diffs(catalog, database)

    def test_invalidate_table_evicts_the_tables_counts(
        self, two_table_db, two_table_attrs
    ):
        sit_builder = builder.SITBuilder(two_table_db)
        for attribute in two_table_attrs.values():
            sit_builder.build_base(attribute)
        assert sit_builder.invalidate_table("S") == 2
        assert {a.table for a in sit_builder._base_counts} == {"R"}


def test_a_diff_leaves_numpy_ma_unloaded():
    """``np.union1d`` deduplicates through ``np.unique``, whose masked
    array check imports ``numpy.ma``; the merge in ``exact_diff`` does
    not, so a build pays no such import."""
    script = (
        "import sys, numpy as np\n"
        "from repro.stats.diff import exact_diff\n"
        "exact_diff(np.arange(5.0), np.arange(3.0, 9.0))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    ran = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert ran.returncode == 0, ran.stderr
    assert ran.stdout.strip() == "False"
