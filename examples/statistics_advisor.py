"""Choosing which SITs to keep: static selection through the catalog.

The paper assumes a pool of SITs exists; this example shows the companion
decision — given a workload and a budget, which statistics on query
expressions are worth materializing?  The catalog builds the ``J_2``
candidates and a budgeted refresh keeps the best of them in the order of
the one ranker (``repro.stats.pool.rank_sits``: ``diff_H`` x
applicability / cost); the example verifies the chosen few capture most
of the full pool's accuracy.

Run:  python examples/statistics_advisor.py
"""

from repro.bench.harness import Harness
from repro.catalog import RefreshPolicy, StatisticsCatalog
from repro.estimators import make_gs_diff
from repro.stats.pool import rank_sits
from repro.workload.queries import WorkloadConfig, WorkloadGenerator
from repro.workload.snowflake import SnowflakeConfig, generate_snowflake


def main() -> None:
    db = generate_snowflake(SnowflakeConfig(scale=0.2, seed=9))
    generator = WorkloadGenerator(
        db, WorkloadConfig(join_count=3, filter_count=3, seed=2)
    )
    queries = generator.generate(6)
    harness = Harness(db)

    catalog = StatisticsCatalog.build(db, queries, max_joins=2)
    full_pool = catalog.pool
    catalog.refresh(RefreshPolicy(max_sits=8, min_diff=0.01), queries)
    kept = rank_sits(catalog, (query.joins for query in queries))
    print("top SITs for the workload:")
    for sit, score, applicability in kept:
        print(f"  {sit} (score={score:.3f}, queries={applicability})")

    def mean_error(pool):
        evaluation = harness.evaluate(
            queries,
            pool,
            {"GS-Diff": make_gs_diff},
            include_gvm=False,
            max_subqueries=30,
        )
        return evaluation.report("GS-Diff").mean_absolute_error

    print("\nGS-Diff mean absolute error over all sub-queries (paper metric):")
    print(f"  base histograms only:   {mean_error(full_pool.base_only()):>8.1f}")
    print(
        f"  budgeted pool ({len(kept):>2} SITs): {mean_error(catalog.pool):>8.1f}"
    )
    conditioned = sum(1 for s in full_pool if not s.is_base)
    print(f"  full J2 pool ({conditioned:>3} SITs): {mean_error(full_pool):>8.1f}")


if __name__ == "__main__":
    main()
