"""Property-based tests over the full estimation pipeline.

Random micro-databases, random predicate sets and random SIT pools drive
the invariants the framework guarantees:

* estimates are valid selectivities in [0, 1];
* errors are non-negative and monotone in pool richness (more statistics
  never increase the *ranked* error of the chosen decomposition);
* the DP is deterministic and its memo is self-consistent;
* GVM and getSelectivity agree with exact evaluation when the predicate
  set is fully covered by exact statistics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DiffError, NIndError
from repro.core.get_selectivity import GetSelectivity
from repro.core.gvm import GreedyViewMatching
from repro.core.predicates import (
    Attribute,
    FilterPredicate,
    JoinPredicate,
    attributes_of,
)
from repro.engine.database import Database, Table
from repro.engine.executor import Executor
from repro.engine.schema import Schema, TableSchema
from repro.stats.builder import SITBuilder
from repro.stats.pool import SITPool, connected_join_subsets


@st.composite
def database_and_predicates(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    schema = Schema()
    schema.add_table(TableSchema("R", ("x", "a")))
    schema.add_table(TableSchema("S", ("y", "b")))
    schema.add_table(TableSchema("T", ("z", "c")))
    db = Database(schema)
    for name, columns in (("R", ("x", "a")), ("S", ("y", "b")), ("T", ("z", "c"))):
        rows = int(rng.integers(5, 60))
        data = {
            column: rng.integers(0, 8, rows).astype(float) for column in columns
        }
        db.add_table(Table(schema.table(name), data))

    choices = [
        JoinPredicate(Attribute("R", "x"), Attribute("S", "y")),
        JoinPredicate(Attribute("S", "b"), Attribute("T", "z")),
        FilterPredicate(Attribute("R", "a"), 1, 5),
        FilterPredicate(Attribute("S", "b"), 0, 3),
        FilterPredicate(Attribute("T", "c"), 2, 7),
    ]
    predicates = frozenset(
        draw(st.sets(st.sampled_from(choices), min_size=1, max_size=5))
    )
    sit_join_budget = draw(st.integers(0, 2))
    return db, predicates, sit_join_budget


def build_pool(db, predicates, join_budget):
    builder = SITBuilder(db)
    attributes = sorted(attributes_of(predicates))
    sits = [builder.build_base(attribute) for attribute in attributes]
    joins = frozenset(p for p in predicates if p.is_join)
    for expression in connected_join_subsets(joins, join_budget):
        from repro.core.predicates import tables_of

        expression_tables = tables_of(expression)
        matching = [a for a in attributes if a.table in expression_tables]
        sits.extend(builder.build_many(expression, matching))
    return SITPool(sits)


class TestEstimationInvariants:
    @given(setting=database_and_predicates())
    @settings(max_examples=30, deadline=None)
    def test_selectivity_in_unit_interval(self, setting):
        db, predicates, budget = setting
        pool = build_pool(db, predicates, budget)
        for error_function in (NIndError(), DiffError(pool)):
            algorithm = GetSelectivity(pool, error_function)
            result = algorithm(predicates)
            assert 0.0 <= result.selectivity <= 1.0 + 1e-9
            assert result.error >= 0.0
            assert result.coverage >= 0.0

    @given(setting=database_and_predicates())
    @settings(max_examples=25, deadline=None)
    def test_deterministic(self, setting):
        db, predicates, budget = setting
        pool = build_pool(db, predicates, budget)
        first = GetSelectivity(pool, NIndError())(predicates)
        second = GetSelectivity(pool, NIndError())(predicates)
        assert first.selectivity == second.selectivity
        assert first.error == second.error

    @given(setting=database_and_predicates())
    @settings(max_examples=25, deadline=None)
    def test_memo_self_consistent(self, setting):
        """Re-querying any memoized subset returns the identical result."""
        db, predicates, budget = setting
        pool = build_pool(db, predicates, budget)
        algorithm = GetSelectivity(pool, NIndError())
        algorithm(predicates)
        for subset, result in list(algorithm.cached_results().items()):
            assert algorithm(subset) is result

    @given(setting=database_and_predicates())
    @settings(max_examples=25, deadline=None)
    def test_richer_pools_never_increase_ranked_error(self, setting):
        db, predicates, _ = setting
        poor = build_pool(db, predicates, 0)
        rich = build_pool(db, predicates, 2)
        poor_error = GetSelectivity(poor, NIndError())(predicates).error
        rich_error = GetSelectivity(rich, NIndError())(predicates).error
        assert rich_error <= poor_error + 1e-9

    @given(setting=database_and_predicates())
    @settings(max_examples=25, deadline=None)
    def test_gvm_selectivity_valid(self, setting):
        db, predicates, budget = setting
        pool = build_pool(db, predicates, budget)
        from repro.engine.expressions import Query

        gvm = GreedyViewMatching(pool)
        selectivity = gvm.estimate(Query(predicates)).selectivity
        assert 0.0 <= selectivity <= 1.0 + 1e-9

    @given(setting=database_and_predicates())
    @settings(max_examples=20, deadline=None)
    def test_single_filter_estimates_are_exact(self, setting):
        """With exact (small-domain) histograms, a one-filter query is
        estimated exactly by every technique."""
        db, predicates, budget = setting
        filters = [p for p in predicates if not p.is_join]
        if not filters:
            return
        predicate = filters[0]
        single = frozenset({predicate})
        pool = build_pool(db, single, 0)
        truth = Executor(db).selectivity(single)
        result = GetSelectivity(pool, NIndError())(single)
        assert result.selectivity == pytest.approx(truth, abs=1e-9)
