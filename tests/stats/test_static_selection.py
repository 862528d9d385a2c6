"""Static SIT selection on the Section 5 snowflake, seed by seed.

Static selection is the one way a SIT pool is chosen:
``StatisticsCatalog.build(...)`` builds the ``J_2`` candidates and
``refresh(RefreshPolicy(max_sits=, min_diff=), queries)`` keeps the best
of them in :func:`repro.stats.pool.rank_sits` order.  These cases pin
what that path promises on three seeded workloads (42, 7 and 11): the
budget keeps exactly the ranker's prefix, the benefit floor holds, the
pick is deterministic and stable under a second refresh, it survives a
save/load round trip and a table update, and the candidate pool beats
base histograms alone on queries it never saw.
"""

from __future__ import annotations

import statistics

import pytest

from repro.catalog import RefreshPolicy, StatisticsCatalog
from repro.engine.executor import Executor
from repro.estimators.sit import SITEstimator
from repro.obs.metrics import q_error
from repro.stats.pool import SITPool, rank_sits
from repro.workload.fixture import snowflake_fixture

SEEDS = [42, 7, 11]
SCALE = 0.05
QUERIES = 20
HOLDOUT = 40


def build(seed: int, holdout: int = 0):
    return snowflake_fixture(
        SCALE, seed, QUERIES, max_joins=2, holdout=holdout
    )


def conditioned_names(catalog) -> list[str]:
    return sorted(str(sit) for sit in catalog.pool if not sit.is_base)


def base_names(catalog) -> list[str]:
    return sorted(str(sit) for sit in catalog.pool if sit.is_base)


def ranked_names(sits, queries, min_diff: float = 0.0) -> list[str]:
    eligible = [sit for sit in sits if sit.diff >= min_diff]
    return [
        str(sit)
        for sit, _, _ in rank_sits(eligible, (q.joins for q in queries))
    ]


@pytest.mark.parametrize("budget", [0, 1, 4, 16])
@pytest.mark.parametrize("seed", SEEDS)
def test_budget_keeps_the_rankers_prefix(seed, budget):
    _, queries, catalog, _ = build(seed)
    bases = base_names(catalog)
    candidates = conditioned_names(catalog)
    expected = ranked_names(catalog.pool, queries)[:budget]
    report = catalog.refresh(RefreshPolicy(max_sits=budget), queries)
    assert conditioned_names(catalog) == sorted(expected)
    assert base_names(catalog) == bases
    assert len(report.dropped) == len(candidates) - budget


@pytest.mark.parametrize("min_diff", [0.1, 0.45])
@pytest.mark.parametrize("seed", SEEDS)
def test_benefit_floor_keeps_every_sit_above_it(seed, min_diff):
    _, queries, catalog, _ = build(seed)
    above = sorted(
        str(sit)
        for sit in catalog.pool
        if not sit.is_base and sit.diff >= min_diff
    )
    assert above, "the floor should leave something to keep"
    catalog.refresh(RefreshPolicy(min_diff=min_diff), queries)
    assert conditioned_names(catalog) == above
    assert all(
        sit.diff >= min_diff for sit in catalog.pool if not sit.is_base
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_a_second_refresh_keeps_the_pick(seed):
    _, queries, catalog, _ = build(seed)
    policy = RefreshPolicy(max_sits=8, min_diff=0.01)
    catalog.refresh(policy, queries)
    picked = list(catalog.pool)
    report = catalog.refresh(policy, queries)
    assert report.rebuilt == []
    assert report.dropped == []
    # nothing was stale: the very same SIT objects are kept
    assert all(a is b for a, b in zip(catalog.pool, picked))
    assert len(catalog.pool) == len(picked)


@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_same_pick(seed):
    picks = []
    for _ in range(2):
        _, queries, catalog, _ = build(seed)
        catalog.refresh(RefreshPolicy(max_sits=6, min_diff=0.01), queries)
        picks.append(
            [(str(sit), sit.diff) for sit in catalog.pool if not sit.is_base]
        )
    assert picks[0] == picks[1]
    assert len(picks[0]) == 6


@pytest.mark.parametrize("seed", SEEDS)
def test_pick_survives_a_save_load_round_trip(seed, tmp_path):
    database, queries, catalog, holdout = build(seed, holdout=10)
    catalog.refresh(RefreshPolicy(max_sits=6, min_diff=0.01), queries)
    path = tmp_path / "catalog.json"
    catalog.save(path)
    loaded = StatisticsCatalog.load(path, database=database)
    assert conditioned_names(loaded) == conditioned_names(catalog)
    assert base_names(loaded) == base_names(catalog)
    before = SITEstimator(database, catalog)
    after = SITEstimator(database, loaded)
    for query in holdout:
        assert after.estimate(query).selectivity == pytest.approx(
            before.estimate(query).selectivity, rel=1e-12, abs=1e-15
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_refresh_after_a_table_update_keeps_the_budget(seed):
    _, queries, catalog, _ = build(seed)
    policy = RefreshPolicy(max_sits=6, min_diff=0.01)
    catalog.refresh(policy, queries)
    catalog.notify_table_update("customer")
    stale = catalog.stale_sits()
    assert stale, "the pick should read the updated table"
    report = catalog.refresh(policy, queries)
    assert report.rebuilt_count == len(stale)
    assert catalog.stale_sits() == []
    assert len(conditioned_names(catalog)) <= 6


@pytest.mark.parametrize("seed", SEEDS)
def test_candidates_beat_base_histograms_on_held_out_queries(seed):
    """The paper's claim on the static path: with the ``J_2`` candidates
    built from one workload, queries drawn after it (never seen by the
    build) are estimated better than from base histograms alone — at
    the median and at p90 of the q-error."""
    database, queries, catalog, holdout = build(seed, holdout=HOLDOUT)
    catalog.add_missing_base_histograms()
    executor = Executor(database)
    truth = [executor.selectivity(query.predicates) for query in holdout]

    def q_errors(pool: SITPool) -> list[float]:
        estimator = SITEstimator(database, pool)
        return sorted(
            q_error(estimator.estimate(query).selectivity, true)
            for query, true in zip(holdout, truth)
        )

    base_only = q_errors(SITPool([sit for sit in catalog.pool if sit.is_base]))
    candidates = q_errors(catalog.pool)
    p90 = int(0.9 * HOLDOUT)
    assert statistics.median(candidates) < statistics.median(base_only)
    assert candidates[p90] <= base_only[p90]
