"""One end-to-end journey through every layer of the library.

SQL text -> canonical query -> SIT pool (budgeted catalog refresh) -> DP
estimation -> optimizer exploration -> costed plan -> physical execution
-> feedback.  If this test passes, every public seam composes.
"""

import pytest

from repro.advisor.feedback import FeedbackEstimator
from repro.catalog import RefreshPolicy, StatisticsCatalog
from repro.core.errors import DiffError
from repro.estimators import make_gs_diff
from repro.engine.executor import Executor
from repro.optimizer.cost import CostModel
from repro.optimizer.execution import execute_plan
from repro.optimizer.explorer import explore
from repro.optimizer.integration import MemoCoupledEstimator
from repro.sql.binder import parse_query
from repro.stats.io import dumps_pool, loads_pool
from repro.workload.snowflake import SnowflakeConfig, generate_snowflake

SQL = (
    "SELECT * FROM sales, customer "
    "WHERE sales.customer_id = customer.customer_id "
    "AND customer.income BETWEEN 10 AND 80 "
    "AND sales.price <= 60"
)


@pytest.fixture(scope="module")
def pipeline():
    database = generate_snowflake(SnowflakeConfig(scale=0.1, seed=21))
    query = parse_query(SQL, database.schema)
    catalog = StatisticsCatalog.build(database, [query], max_joins=1)
    catalog.refresh(RefreshPolicy(max_sits=6, min_diff=0.01), [query])
    pool = catalog.pool
    executor = Executor(database)
    return database, query, pool, executor


class TestFullPipeline:
    def test_sql_parses_to_expected_shape(self, pipeline):
        _, query, _, _ = pipeline
        assert query.join_count == 1
        assert query.filter_count == 2

    def test_estimation_close_to_truth(self, pipeline):
        database, query, pool, executor = pipeline
        estimator = make_gs_diff(database, pool)
        true = executor.cardinality(query.predicates)
        assert estimator.cardinality(query) == pytest.approx(true, rel=0.5)

    def test_pool_survives_serialization(self, pipeline):
        database, query, pool, _ = pipeline
        restored = loads_pool(dumps_pool(pool))
        original = make_gs_diff(database, pool).cardinality(query)
        roundtrip = make_gs_diff(database, restored).cardinality(query)
        assert roundtrip == pytest.approx(original)

    def test_plan_executes_to_exact_truth(self, pipeline):
        database, query, pool, executor = pipeline
        estimator = make_gs_diff(database, pool)
        exploration = explore(query)
        model = CostModel(
            database,
            lambda predicates: estimator.algorithm(predicates).selectivity,
        )
        plan = model.best_plan(exploration.memo, exploration.root)
        result = execute_plan(database, plan)
        assert result.row_count == executor.cardinality(query.predicates)

    def test_memo_coupled_agrees_with_dp_on_this_query(self, pipeline):
        database, query, pool, _ = pipeline
        coupled = MemoCoupledEstimator(database, pool, DiffError(pool))
        full = make_gs_diff(database, pool)
        assert coupled.cardinality(query) == pytest.approx(
            full.cardinality(query), rel=0.5
        )

    def test_feedback_makes_the_estimate_exact(self, pipeline):
        database, query, pool, executor = pipeline
        feedback = FeedbackEstimator(make_gs_diff(database, pool))
        feedback.observe(executor, query)
        assert feedback.cardinality(query) == executor.cardinality(
            query.predicates
        )
