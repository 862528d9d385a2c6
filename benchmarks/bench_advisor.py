"""SIT-selection ablation: ranker-chosen pools versus arbitrary pools.

The paper shows 1-2-join SITs deliver most of the accuracy; static
selection — the catalog's budgeted refresh, in the order of
``repro.stats.pool.rank_sits`` (``diff_H`` x applicability / cost) —
turns that finding into a policy.  This ablation compares, at equal SIT
budgets, the selected pool against a pool of the same size chosen
arbitrarily (first-come) and against the full ``J_2`` pool, measured by
GS-Diff accuracy on the 3-way join workload.
"""

from repro.bench.reporting import render_table
from repro.catalog import RefreshPolicy, StatisticsCatalog
from repro.estimators import make_gs_diff
from repro.stats.pool import SITPool

BUDGETS = (4, 8, 16)
#: below this a SIT gives no benefit over the base histogram (Example 4)
MIN_DIFF = 0.01


def test_advisor_ablation(benchmark, database, harness, workloads, write_result):
    queries = workloads[3][:6]

    def run():
        full_pool = StatisticsCatalog.build(database, queries, 2).pool
        base_sits = [sit for sit in full_pool if sit.is_base]
        conditioned = [sit for sit in full_pool if not sit.is_base]

        def evaluate(pool):
            evaluation = harness.evaluate(
                queries,
                pool,
                {"GS-Diff": make_gs_diff},
                include_gvm=False,
                max_subqueries=30,
            )
            return evaluation.report("GS-Diff").mean_absolute_error

        rows = [("base only (J0)", len(base_sits), evaluate(SITPool(list(base_sits))))]
        for budget in BUDGETS:
            catalog = StatisticsCatalog.from_pool(full_pool, database)
            catalog.refresh(
                RefreshPolicy(max_sits=budget, min_diff=MIN_DIFF), queries
            )
            advisor_pool = catalog.pool
            arbitrary = SITPool(
                list(base_sits) + sorted(conditioned, key=str)[:budget]
            )
            rows.append(
                (
                    f"advisor, budget {budget}",
                    len(advisor_pool),
                    evaluate(advisor_pool),
                )
            )
            rows.append(
                (
                    f"arbitrary, budget {budget}",
                    len(arbitrary),
                    evaluate(arbitrary),
                )
            )
        rows.append(("full J2 pool", len(full_pool), evaluate(full_pool)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    table = render_table(
        "SIT-selection ablation - GS-Diff accuracy at equal budgets (3-way joins)",
        ["pool", "SITs", "mean |error|"],
        [[name, str(size), f"{error:,.1f}"] for name, size, error in rows],
    )
    write_result("ablation_advisor", table)

    errors = {name: error for name, _, error in rows}
    # Advisor pools beat arbitrary pools of the same budget (or tie), and
    # budgeted advisor pools approach the full pool.
    for budget in BUDGETS:
        assert (
            errors[f"advisor, budget {budget}"]
            <= errors[f"arbitrary, budget {budget}"] * 1.10 + 1e-9
        )
    assert errors["advisor, budget 16"] <= errors["base only (J0)"]
