"""The ``estimators`` suite: the backend shootout, accuracy vs latency
vs space.

Races the three :mod:`repro.estimators` backends — the paper's SIT/DP
path, the per-table Bayesian-network estimator and the guaranteed-sample
estimator — over the synthetic snowflake workload plus the TPC-H
motivating query.  Run with::

    PYTHONPATH=src python -m repro.bench estimators [output.json]

Per backend, over the snowflake workload:

* **accuracy** — median / maximum q-error against the exact
  :class:`~repro.engine.executor.Executor` truth (q-error is the
  symmetric ratio ``max(est, true) / min(est, true)`` with an additive
  floor so empty results stay finite);
* **latency** — best-of-``repeats`` per-query milliseconds in the steady
  regime (the estimator is ``reset()`` between queries, models and
  caches stay warm — the optimizer's per-query cost);
* **space** — ``space_bytes()``: histogram arrays for SIT, CPTs +
  bin edges for the BN, reservoir rows for sampling.

The sampling backend additionally reports how often the truth fell
inside its distribution-free ``error_bound`` (the VC guarantee must hold
on every query) and the mean bound width.

The block also re-times the SIT DP's n7 steady scenario (the
``get_selectivity`` acceptance gate's workload) on this machine and
reports the drift against the recorded ``BENCH_core.json`` number — the
refactor onto the :class:`~repro.estimators.base.Estimator` protocol
must not regress the gate by more than ``SIT_REGRESSION_PCT_MAX``.
"""

from __future__ import annotations

import statistics

from repro.bench.suites import best_of
from repro.bench.suites.core import warm_steady_dp
from repro.engine.executor import Executor
from repro.estimators import BACKENDS, create_estimator
from repro.obs.metrics import q_error
from repro.workload.fixture import snowflake_fixture
from repro.workload.tpch import TPCHConfig, generate_tpch, motivating_query

#: the acceptance bar on SIT n7 steady drift vs the recorded gate run
SIT_REGRESSION_PCT_MAX = 5.0

SNOWFLAKE_SCALE = 0.15
SNOWFLAKE_SEED = 42
WORKLOAD_QUERIES = 12


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def tpch_motivating():
    """The Figure 1 motivating query on the skewed mini TPC-H database."""
    from repro.stats.builder import SITBuilder
    from repro.stats.pool import build_workload_pool

    database = generate_tpch(TPCHConfig())
    query = motivating_query(database)
    pool = build_workload_pool(SITBuilder(database), [query], max_joins=2)
    return database, pool, query


# ----------------------------------------------------------------------
# Per-backend measurement
# ----------------------------------------------------------------------
def bench_backend(name, database, pool, queries, truths, repeats: int) -> dict:
    estimator = create_estimator(name, database, pool)
    # warm pass: reservoirs drawn, BN models built, SIT caches populated
    results = [estimator.estimate(query) for query in queries]

    def steady_pass() -> None:
        for query in queries:
            estimator.reset()
            estimator.estimate(query)

    per_pass = best_of(steady_pass, repeats)
    errors = [
        q_error(result.selectivity, truth)
        for result, truth in zip(results, truths)
    ]
    out = {
        "median_q_error": statistics.median(errors),
        "max_q_error": max(errors),
        "latency_per_query_ms": per_pass * 1000.0 / len(queries),
        "space_bytes": float(estimator.space_bytes()),
    }
    if name == "sample":
        bounds = [result.error_bound for result in results]
        holds = [
            abs(result.selectivity - truth) <= result.error_bound
            for result, truth in zip(results, truths)
        ]
        out["mean_error_bound"] = sum(bounds) / len(bounds)
        out["bound_holds_rate"] = sum(holds) / len(holds)
    return out


# ----------------------------------------------------------------------
def run(recorded: dict | None = None, repeats: int = 7) -> dict:
    recorded_n7_steady_ms = (
        (recorded or {})
        .get("get_selectivity", {})
        .get("n7", {})
        .get("bitmask", {})
        .get("steady_ms")
    )
    # the Section 5 synthetic database with a mixed SPJ workload and a
    # J2 SIT pool (the configuration the paper's Figure 7 sweep uses)
    database, queries, catalog, _ = snowflake_fixture(
        SNOWFLAKE_SCALE, SNOWFLAKE_SEED, WORKLOAD_QUERIES, max_joins=2
    )
    pool = catalog.pool
    executor = Executor(database)
    truths = [executor.selectivity(query.predicates) for query in queries]

    block: dict = {
        "workload": {
            "database": "snowflake",
            "scale": SNOWFLAKE_SCALE,
            "seed": SNOWFLAKE_SEED,
            "queries": len(queries),
            "pool_sits": len(pool),
        },
        "backends": {},
    }
    for name in BACKENDS:
        block["backends"][name] = bench_backend(
            name, database, pool, queries, truths, repeats
        )

    tpch_database, tpch_pool, tpch_query = tpch_motivating()
    tpch_truth = Executor(tpch_database).selectivity(tpch_query.predicates)
    tpch: dict = {"true_selectivity": tpch_truth}
    for name in BACKENDS:
        estimator = create_estimator(name, tpch_database, tpch_pool)
        result = estimator.estimate(tpch_query)
        tpch[name] = {
            "selectivity": result.selectivity,
            "q_error": q_error(result.selectivity, tpch_truth),
        }
    block["tpch_motivating_query"] = tpch

    # a microsecond-scale measurement needs a deeper best-of to reach
    # the noise floor the recorded gate run was taken at
    *_, steady_run = warm_steady_dp(7)
    steady_ms = best_of(steady_run, max(repeats, 15)) * 1000.0
    gate: dict = {
        "sit_n7_steady_ms": steady_ms,
        "regression_pct_max": SIT_REGRESSION_PCT_MAX,
    }
    if recorded_n7_steady_ms:
        drift = (steady_ms / recorded_n7_steady_ms - 1.0) * 100.0
        gate["recorded_n7_steady_ms"] = recorded_n7_steady_ms
        gate["drift_pct"] = drift
        gate["within_gate"] = drift <= SIT_REGRESSION_PCT_MAX
    block["sit_gate"] = gate
    return {"estimators": block}


def render(blocks: dict) -> str:
    block = blocks["estimators"]
    work = block["workload"]
    lines = [
        f"estimator shootout (snowflake scale {work['scale']}, "
        f"{work['queries']} queries, {work['pool_sits']} SITs):",
        f"  {'backend':>8}  {'med q-err':>10}  {'max q-err':>10}  "
        f"{'ms/query':>9}  {'space KiB':>10}",
    ]
    for name, row in block["backends"].items():
        lines.append(
            f"  {name:>8}  {row['median_q_error']:>10.3f}  "
            f"{row['max_q_error']:>10.3f}  "
            f"{row['latency_per_query_ms']:>9.3f}  "
            f"{row['space_bytes'] / 1024.0:>10.1f}"
        )
    sample = block["backends"]["sample"]
    lines.append(
        f"  sampling guarantee: mean bound "
        f"{sample['mean_error_bound']:.4f}, holds on "
        f"{sample['bound_holds_rate'] * 100.0:.0f}% of queries"
    )
    tpch = block["tpch_motivating_query"]
    lines.append(
        "tpch motivating query "
        f"(true sel {tpch['true_selectivity']:.6f}): "
        + ", ".join(
            f"{name} q-err {tpch[name]['q_error']:.2f}" for name in BACKENDS
        )
    )
    gate = block["sit_gate"]
    line = f"sit n7 steady: {gate['sit_n7_steady_ms']:.3f} ms"
    if "drift_pct" in gate:
        line += (
            f" (recorded {gate['recorded_n7_steady_ms']:.3f} ms, "
            f"drift {gate['drift_pct']:+.1f}%, "
            f"gate <= +{gate['regression_pct_max']:.0f}%: "
            f"{'pass' if gate['within_gate'] else 'FAIL'})"
        )
    lines.append(line)
    return "\n".join(lines)
