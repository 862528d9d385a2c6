"""Extensions beyond the paper's core: Group-By estimation & sampled SITs.

* **Group-By** (deferred to [3] in the paper): the number of groups of
  ``GROUP BY a`` over an SPJ query, estimated from the best-conditioned
  SIT for ``a`` plus Cardenas' correction.
* **Sample-based SITs** (the abstract's "other statistical estimators"):
  SITs built from a uniform sample of the expression result instead of a
  full scan, trading accuracy for construction cost.

Run:  python examples/extensions.py
"""

import numpy as np

from repro import Executor, Query, make_gs_diff
from repro.core.groupby import estimate_group_count
from repro.core.predicates import Attribute, FilterPredicate, JoinPredicate
from repro.stats.builder import SITBuilder
from repro.stats.pool import SITPool, build_workload_pool
from repro.stats.sampling import SamplingSITBuilder
from repro.workload.snowflake import SnowflakeConfig, generate_snowflake


def main() -> None:
    db = generate_snowflake(SnowflakeConfig(scale=0.3, seed=5))
    executor = Executor(db)

    join = JoinPredicate(
        Attribute("sales", "customer_id"), Attribute("customer", "customer_id")
    )
    price = db.column(Attribute("sales", "price"))
    cheap = FilterPredicate(
        Attribute("sales", "price"), 0, float(np.quantile(price, 0.3))
    )
    query = Query.of(join, cheap)
    group_attr = Attribute("customer", "nation_id")

    # --- Group-By estimation ------------------------------------------
    builder = SITBuilder(db)
    workload = build_workload_pool(builder, [query], max_joins=1)
    # Workload pools only cover attributes the queries mention; grouping
    # needs a statistic on the grouping attribute too.
    pool = SITPool(
        [
            *workload,
            builder.build_base(group_attr),
            builder.build(group_attr, frozenset({join})),
        ]
    )
    estimator = make_gs_diff(db, pool)

    result = executor.execute(query.predicates)
    values = result.column(group_attr)
    true_groups = len(np.unique(values[~np.isnan(values)]))
    estimate = estimate_group_count(estimator, query, group_attr)
    print(f"query: {query}")
    print(f"GROUP BY {group_attr}:")
    print(f"  true group count:      {true_groups}")
    print(f"  estimated group count: {estimate:.1f}\n")

    # --- Sampled SITs --------------------------------------------------
    true_card = executor.cardinality(query.predicates)
    print(f"cardinality estimation (true = {true_card:,}):")
    print(f"  exact-scan SITs:  {estimator.cardinality(query):>12,.0f}")
    for rate in (0.25, 0.05):
        sampled_builder = SamplingSITBuilder(
            db, sample_fraction=rate, min_sample_rows=100
        )
        sampled_pool = build_workload_pool(sampled_builder, [query], max_joins=1)
        sampled = make_gs_diff(db, sampled_pool)
        print(f"  {rate:>4.0%} sample SITs: {sampled.cardinality(query):>12,.0f}")


if __name__ == "__main__":
    main()
