"""Section 4.2 ablation: memo-coupled getSelectivity versus the full DP.

The paper proposes coupling getSelectivity with the optimizer's own search
so only memo-entry-induced decompositions are scored.  An optimizer asks
for the cardinality of every memo group, so the pass is measured against
what it replaces: the full DP answering every group, smallest first (each
answer after the first reuses the DP's memo).  Per workload, at Figure 6's
query counts, the table reports

* ``explore ms`` — building the memo, which both paths need (charged to
  neither);
* ``memo cold ms`` — the pass on a fresh estimator over a join-cold pool;
  ``memo warm ms`` — a second pass on the same estimator;
* ``DP groups ms`` — a fresh DP over a join-cold pool answering every
  group;
* both paths' view-matching calls;
* both paths' q-error against the engine's exact cardinality of every
  group (median and max; a warm pass answers what the cold one did), and
  how many groups the pass answers differently from the DP (it cannot
  see every decomposition, so its pick may differ).

Timings are the best of ``ROUNDS`` per query, summed over the queries.
"""

import time
from statistics import median

from repro.bench.reporting import render_table
from repro.core.errors import DiffError
from repro.core.get_selectivity import GetSelectivity
from repro.obs.metrics import q_error
from repro.optimizer.explorer import explore, subplan_predicate_sets
from repro.optimizer.integration import MemoCoupledEstimator
from repro.stats.pool import SITPool

#: queries per workload, as in Figure 6
QUERIES = {3: 6, 5: 4, 7: 2}
ROUNDS = 3


def best_of(run):
    """``(best seconds, last result)`` of ``ROUNDS`` calls of ``run``."""
    best = float("inf")
    for _ in range(ROUNDS):
        started = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_memo_coupling_ablation(
    benchmark, database, harness, workloads, pools, write_result
):
    def run():
        rows = []
        for join_count, count in QUERIES.items():
            row = dict.fromkeys(
                ("explore", "cold", "warm", "dp", "memo_calls", "dp_calls"), 0.0
            )
            row["differ"] = 0
            memo_errors, dp_errors = [], []
            for query in workloads[join_count][:count]:
                seconds, exploration = best_of(lambda: explore(query))
                row["explore"] += seconds
                groups = subplan_predicate_sets(exploration)

                def cold_pass():
                    fresh = SITPool(list(pools[join_count]))
                    coupled = MemoCoupledEstimator(
                        database, fresh, DiffError(fresh)
                    )
                    return coupled, coupled.estimate_memo(exploration)

                seconds, (coupled, cold) = best_of(cold_pass)
                row["cold"] += seconds
                row["memo_calls"] += coupled.matcher.calls
                seconds, warm = best_of(lambda: coupled.estimate_memo(exploration))
                row["warm"] += seconds
                assert warm == cold

                def per_group_dp():
                    fresh = SITPool(list(pools[join_count]))
                    dp = GetSelectivity(fresh, DiffError(fresh))
                    return dp, {p: dp(p).selectivity for p in groups}

                seconds, (dp, answers) = best_of(per_group_dp)
                row["dp"] += seconds
                row["dp_calls"] += dp.matcher.calls

                for key, estimate in cold.items():
                    if not key.predicates:
                        continue
                    true = harness.true_cardinality(key.predicates)
                    size = database.cross_product_size(key.tables)
                    answer = answers[key.predicates]
                    row["differ"] += estimate.selectivity != answer
                    memo_errors.append(q_error(estimate.selectivity * size, true))
                    dp_errors.append(q_error(answer * size, true))
            row["memo_q"] = (median(memo_errors), max(memo_errors))
            row["dp_q"] = (median(dp_errors), max(dp_errors))
            row["groups"] = len(memo_errors)
            rows.append((join_count, count, row))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    table = render_table(
        "Section 4.2 ablation - memo-coupled pass vs full DP on every memo "
        "group (GS-Diff)",
        [
            "joins",
            "queries",
            "groups",
            "explore ms",
            "memo cold ms",
            "memo warm ms",
            "DP groups ms",
            "memo vm calls",
            "DP vm calls",
            "memo q-err p50/max",
            "DP q-err p50/max",
            "answers != DP",
        ],
        [
            [
                str(join_count),
                str(count),
                f"{row['groups']:,}",
                f"{row['explore'] * 1000:.1f}",
                f"{row['cold'] * 1000:.1f}",
                f"{row['warm'] * 1000:.1f}",
                f"{row['dp'] * 1000:.1f}",
                f"{row['memo_calls']:,.0f}",
                f"{row['dp_calls']:,.0f}",
                "{:.3f} / {:.2f}".format(*row["memo_q"]),
                "{:.3f} / {:.2f}".format(*row["dp_q"]),
                f"{row['differ']:,}",
            ]
            for join_count, count, row in rows
        ],
    )
    write_result("section4_memo_coupling", table)

    for _, _, row in rows:
        # The decision gate: the pass is cheaper than the DP it replaces,
        # in view-matching calls and in cold wall time ...
        assert row["memo_calls"] < row["dp_calls"]
        assert row["cold"] < row["dp"]
        # ... and the decompositions it cannot see cost little accuracy.
        assert row["memo_q"][0] <= 2 * row["dp_q"][0]
