"""The ``advisor`` suite: self-tuning vs static ``diff_H`` selection,
under budget.

The experiment behind :mod:`repro.advisor`: on a skewed snowflake
workload, impose a space budget that excludes at least half of the
candidate conditioned SITs (the sum of the smaller half of their
footprints), then compare three configurations on a *held-out* workload
(a disjoint suffix of the same generator stream — same join/filter mix,
queries unseen during feedback):

* **base-only** — base histograms, no conditioned SITs;
* **static** — the ranker's order (:func:`repro.stats.pool.rank_sits`
  over the feedback workload), greedily packed into the budget — the
  best one can do without looking at live traffic;
* **tuned** — what :class:`~repro.advisor.loop.SelfTuningAdvisor`
  accepts after observing the feedback workload, with the safety gate's
  three constraints verified on its held-out safety split.

The gate (it decides the runner's exit code): the tuned configuration's
median q-error on the holdout workload must not exceed the static
selection's.  Run with::

    PYTHONPATH=src python -m repro.bench advisor [output.json]
"""

from __future__ import annotations

from repro.advisor import AdvisorConfig, SelfTuningAdvisor
from repro.advisor.search import median, q_error
from repro.catalog import EstimationSession
from repro.engine.executor import Executor
from repro.estimators.sit import SITEstimator
from repro.stats.pool import SITPool, rank_sits
from repro.workload.fixture import snowflake_fixture

SNOWFLAKE_SCALE = 0.15
FEEDBACK_SEED = 42
FEEDBACK_QUERIES = 20
HOLDOUT_QUERIES = 12
MAX_JOINS = 2

#: the advisor's safety bounds for the bench run (space budget is
#: computed from the candidate pool; see :func:`run`)
MAX_Q_ERROR = 1000.0
REFRESH_BUDGET_S = 60.0


def static_selection(conditioned, feedback, budget: float) -> set[str]:
    """The static pick: ranker order, greedily packed into the byte
    budget (best score first, skipping what no longer fits)."""
    chosen: set[str] = set()
    used = 0.0
    for sit, _, _ in rank_sits(conditioned, (q.joins for q in feedback)):
        space = sit.space_bytes
        if used + space <= budget:
            chosen.add(str(sit))
            used += space
    return chosen


def holdout_q_errors(database, base, conditioned, chosen, holdout, executor):
    """Median/max holdout q-error of ``base + chosen`` conditioned SITs."""
    pool = SITPool([*base, *(sit for sit in conditioned if str(sit) in chosen)])
    estimator = SITEstimator(database, pool)
    errors = [
        q_error(
            estimator.estimate(query).selectivity,
            executor.selectivity(query.predicates),
        )
        for query in holdout
    ]
    return {
        "sits": len(chosen),
        "space_bytes": sum(
            sit.space_bytes for sit in conditioned if str(sit) in chosen
        ),
        "median_q_error": median(errors),
        "max_q_error": max(errors),
    }


def run(recorded: dict | None = None) -> dict:
    # one workload distribution, disjoint query split: the holdout
    # queries are unseen by both advisors but share the feedback
    # stream's join/filter mix (the regime self-tuning targets); base
    # histograms cover both, so every configuration answers every query
    database, feedback, catalog, holdout = snowflake_fixture(
        SNOWFLAKE_SCALE,
        FEEDBACK_SEED,
        FEEDBACK_QUERIES,
        max_joins=MAX_JOINS,
        holdout=HOLDOUT_QUERIES,
    )
    catalog.add_missing_base_histograms()
    base = [sit for sit in catalog.pool if sit.is_base]
    conditioned = [sit for sit in catalog.pool if not sit.is_base]
    spaces = sorted(sit.space_bytes for sit in conditioned)
    budget = sum(spaces[: len(spaces) // 2])

    advisor = SelfTuningAdvisor(
        catalog,
        config=AdvisorConfig(
            max_q_error=MAX_Q_ERROR,
            space_budget_bytes=budget,
            refresh_budget_s=REFRESH_BUDGET_S,
            min_feedback=8,
            min_interval_s=0.0,
        ),
    )
    session = EstimationSession(catalog)
    session.feedback_sink = advisor.record_result
    for query in feedback:
        session.estimate(query)
    report = advisor.tick()

    executor = Executor(database)
    static_chosen = static_selection(conditioned, feedback, budget)
    configurations = {
        "base_only": holdout_q_errors(
            database, base, conditioned, set(), holdout, executor
        ),
        "static": holdout_q_errors(
            database, base, conditioned, static_chosen, holdout, executor
        ),
        "tuned": holdout_q_errors(
            database, base, conditioned, set(report.chosen), holdout, executor
        ),
    }
    tuned_median = configurations["tuned"]["median_q_error"]
    static_median = configurations["static"]["median_q_error"]
    block = {
        "workload": {
            "database": "snowflake",
            "scale": SNOWFLAKE_SCALE,
            "feedback_seed": FEEDBACK_SEED,
            "feedback_queries": len(feedback),
            "holdout_queries": len(holdout),
            "candidate_sits": len(conditioned),
            "space_budget_bytes": budget,
            "budget_fraction_of_pool": budget / sum(spaces) if spaces else 0.0,
        },
        "tuning": report.to_dict(),
        "configurations": configurations,
        "gate": {
            "tuned_median_q_error": tuned_median,
            "static_median_q_error": static_median,
            "within_gate": tuned_median <= static_median,
            "tuned_accepted": report.status == "accepted",
            "space_within_budget": (
                configurations["tuned"]["space_bytes"] <= budget
            ),
        },
    }
    return {"advisor": block}


def passed(blocks: dict) -> bool:
    return blocks["advisor"]["gate"]["within_gate"]


def render(blocks: dict) -> str:
    block = blocks["advisor"]
    work = block["workload"]
    lines = [
        f"advisor bench (snowflake scale {work['scale']}, "
        f"{work['feedback_queries']} feedback / "
        f"{work['holdout_queries']} holdout queries, "
        f"{work['candidate_sits']} candidate SITs, budget "
        f"{work['space_budget_bytes'] / 1024.0:.1f} KiB = "
        f"{work['budget_fraction_of_pool'] * 100.0:.0f}% of pool):",
        f"  {'config':>9}  {'SITs':>5}  {'space KiB':>10}  "
        f"{'med q-err':>10}  {'max q-err':>10}",
    ]
    for name, row in block["configurations"].items():
        lines.append(
            f"  {name:>9}  {row['sits']:>5}  "
            f"{row['space_bytes'] / 1024.0:>10.1f}  "
            f"{row['median_q_error']:>10.3f}  {row['max_q_error']:>10.3f}"
        )
    tuning = block["tuning"]
    decision = tuning["decision"] or {}
    lines.append(
        f"tuning: {tuning['status']} "
        f"(safety worst q-err {decision.get('worst_q_error', float('nan')):.2f}, "
        f"space {decision.get('space_bytes', 0.0) / 1024.0:.1f} KiB, "
        f"refresh {decision.get('refresh_seconds', 0.0):.3f}s)"
    )
    gate = block["gate"]
    lines.append(
        f"gate tuned <= static median q-error: "
        f"{gate['tuned_median_q_error']:.3f} vs "
        f"{gate['static_median_q_error']:.3f} "
        f"({'pass' if gate['within_gate'] else 'FAIL'})"
    )
    return "\n".join(lines)
