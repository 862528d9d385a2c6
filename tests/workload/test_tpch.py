"""Tests for the motivating-example mini TPC-H generator."""

import numpy as np
import pytest

from repro.core.predicates import Attribute, JoinPredicate
from repro.engine.executor import Executor
from repro.workload.tpch import (
    USA,
    TPCHConfig,
    generate_tpch,
    motivating_query,
    tpch_schema,
)


class TestSchema:
    def test_three_tables_two_fks(self):
        schema = tpch_schema()
        assert set(schema.tables) == {"customer", "orders", "lineitem"}
        assert len(schema.foreign_keys) == 2


class TestGeneration:
    def test_deterministic(self):
        first = generate_tpch(TPCHConfig(seed=1))
        second = generate_tpch(TPCHConfig(seed=1))
        np.testing.assert_array_equal(
            first.column(Attribute("orders", "total_price")),
            second.column(Attribute("orders", "total_price")),
        )

    def test_usa_majority(self):
        db = generate_tpch(TPCHConfig(usa_fraction=0.8))
        nation = db.column(Attribute("customer", "nation"))
        assert (nation == USA).mean() == pytest.approx(0.8, abs=0.08)

    def test_lineitems_per_order_skewed(self):
        db = generate_tpch()
        orderkey = db.column(Attribute("lineitem", "orderkey")).astype(int)
        counts = np.bincount(orderkey)
        assert counts.max() > 10 * max(np.median(counts), 1)

    def test_total_price_correlates_with_lineitem_count(self):
        """The intro's first skew: expensive orders have many line-items."""
        db = generate_tpch()
        orderkey = db.column(Attribute("lineitem", "orderkey")).astype(int)
        counts = np.bincount(orderkey, minlength=db.row_count("orders"))
        price = db.column(Attribute("orders", "total_price"))
        correlation = np.corrcoef(counts, price)[0, 1]
        assert correlation > 0.8

    def test_busy_customers_mostly_usa(self):
        """The intro's second skew: order volume correlates with nation."""
        db = generate_tpch()
        custkey = db.column(Attribute("orders", "custkey")).astype(int)
        nation = db.column(Attribute("customer", "nation"))
        counts = np.bincount(custkey, minlength=db.row_count("customer"))
        busy = np.argsort(counts)[-20:]
        assert (nation[busy] == USA).mean() > 0.8


class TestMotivatingQuery:
    def test_structure(self):
        db = generate_tpch()
        query = motivating_query(db)
        assert query.join_count == 2
        assert query.filter_count == 2
        assert query.tables == frozenset(("customer", "orders", "lineitem"))

    def test_non_empty(self):
        db = generate_tpch()
        query = motivating_query(db)
        assert Executor(db).cardinality(query.predicates) > 0

    def test_traditional_estimate_underestimates(self):
        """The scenario the whole paper is motivated by: with base
        statistics and independence the cardinality is a severe
        underestimate."""
        from repro.estimators import make_nosit
        from repro.stats.builder import SITBuilder
        from repro.stats.pool import SITPool

        db = generate_tpch()
        query = motivating_query(db)
        builder = SITBuilder(db)
        pool = SITPool(
            [
                builder.build_base(attribute)
                for table in db.schema.tables.values()
                for attribute in table.attributes
            ]
        )
        estimate = make_nosit(db, pool).cardinality(query)
        true = Executor(db).cardinality(query.predicates)
        assert estimate < true / 3
