"""Parity and overhead properties of the resilience layer.

The contract from the issue: an *armed but never-firing* fault plan is
bit-identical to the no-resilience path (the guards are observation, not
perturbation), a seeded plan makes degradation fully deterministic, and
the disarmed guards are cheap enough for the optimizer inner loop (the
``BENCH_core.json`` gate tracks the <=5% budget; here we pin the shape
of the benchmark that enforces it)."""

from __future__ import annotations

import pytest

from repro.estimators import SITEstimator
from repro.resilience.faults import (
    FaultPlan,
    FaultRule,
    POINT_SIT_MATCH,
    armed,
)
from repro.service import EstimationService, ServiceConfig

SQL = "SELECT * FROM R, S WHERE R.x = S.y AND R.a BETWEEN 10 AND 40"


def zero_fault_plan() -> FaultPlan:
    """Armed, evaluated, and incapable of firing within any test run."""
    return FaultPlan(
        [FaultRule(point=POINT_SIT_MATCH, probability=0.0, max_fires=None)],
        seed=0,
    )


class TestZeroFaultBitIdentity:
    def test_estimator_results_are_bit_identical(
        self, two_table_db, two_table_pool, join_filter_query
    ):
        baseline = SITEstimator(
            two_table_db, two_table_pool
        ).estimate(join_filter_query)
        with armed(zero_fault_plan()):
            under_plan = SITEstimator(
                two_table_db, two_table_pool
            ).estimate(join_filter_query)
        # the whole result object, not an approx: same selectivity bits,
        # same error, same decomposition, level 0, nothing excluded
        assert under_plan == baseline
        assert under_plan.degradation_level == 0
        assert under_plan.excluded_sits == ()

    def test_service_estimates_are_bit_identical(self, catalog):
        config = ServiceConfig(workers=1)
        with EstimationService(catalog, config=config) as service:
            baseline = service.estimate(SQL, timeout=None)
            with armed(zero_fault_plan()):
                under_plan = service.estimate(SQL, timeout=None)
        assert under_plan.selectivity == baseline.selectivity
        assert under_plan.cardinality == baseline.cardinality
        assert under_plan.error == baseline.error
        assert under_plan.degradation_level == 0

    def test_zero_fault_plan_reports_zero_fires(
        self, two_table_db, two_table_pool, join_filter_query
    ):
        plan = zero_fault_plan()
        with armed(plan):
            SITEstimator(two_table_db, two_table_pool).estimate(
                join_filter_query
            )
        assert plan.total_fires == 0
        assert plan.stats() == {}


class TestDeterminism:
    def flaky_plan(self, seed: int) -> FaultPlan:
        return FaultPlan(
            [
                FaultRule(
                    point=POINT_SIT_MATCH,
                    probability=0.5,
                    max_fires=None,
                )
            ],
            seed=seed,
        )

    def run_sequence(
        self, db, pool, query, seed: int
    ) -> list[tuple[int, tuple, float]]:
        estimator = SITEstimator(db, pool)
        outcomes = []
        with armed(self.flaky_plan(seed)):
            for _ in range(10):
                result = estimator.estimate(query)
                outcomes.append(
                    (
                        result.degradation_level,
                        result.excluded_sits,
                        result.selectivity,
                    )
                )
        return outcomes

    def test_same_seed_same_degradation_sequence(
        self, two_table_db, two_table_pool, join_filter_query
    ):
        first = self.run_sequence(
            two_table_db, two_table_pool, join_filter_query, seed=3
        )
        second = self.run_sequence(
            two_table_db, two_table_pool, join_filter_query, seed=3
        )
        assert first == second

    def test_different_seeds_may_diverge(
        self, two_table_db, two_table_pool, join_filter_query
    ):
        sequences = {
            tuple(
                self.run_sequence(
                    two_table_db, two_table_pool, join_filter_query, seed=s
                )
            )
            for s in range(6)
        }
        assert len(sequences) > 1  # the seed is load-bearing


class TestOverheadGate:
    def test_bench_reports_parity_and_overhead(self):
        from repro.bench.suites.core import bench_fault_overhead

        report = bench_fault_overhead(5, 3)
        assert report["zero_fault_bit_identical"] is True
        assert report["disarmed_ms"] > 0.0
        assert report["armed_zero_fault_ms"] > 0.0
        assert isinstance(report["armed_overhead_pct"], float)

    def test_exit_code_gates_the_guards_by_count_and_parity(self):
        """``passed`` (the CI step's exit code) fails when the armed
        rule was evaluated other than once per SIT each run's answer
        reads, or when the armed plan changed an answer."""
        from repro.bench.suites.core import bench_fault_overhead, passed

        report = bench_fault_overhead(5, 3)
        assert report["steady_runs"] == 4
        assert report["rule_evaluations"] == (
            report["steady_runs"] * report["answer_attribute_matches"]
        ) > 0

        def result(**guards):
            return {
                "gates": {"n5_cold_speedup": 2.0, "cold_target": 1.5},
                "resilience": {"n7_fault_guards": {**report, **guards}},
            }

        assert passed(result())
        assert not passed(result(rule_evaluations=report["rule_evaluations"] + 1))
        assert not passed(result(zero_fault_bit_identical=False))
        assert not passed(
            {**result(), "gates": {"n5_cold_speedup": 1.4, "cold_target": 1.5}}
        )

    def test_gate_keys_present_in_bench_payload(self):
        """The BENCH_core gates must carry the resilience entries (the
        CI job reads these keys; renaming them silently un-gates) — and
        the committed gate file must hold exactly the gates the ``core``
        suite derives from its own recorded blocks."""
        import json
        import pathlib

        from repro.bench.suites.core import gates

        gate_file = pathlib.Path(__file__).parents[2] / "BENCH_core.json"
        recorded = json.loads(gate_file.read_text())
        gate = gates(recorded)
        assert "n7_fault_guards_armed_overhead_pct" in gate
        assert gate["n7_fault_guards_zero_fault_bit_identical"] is True
        assert gate == recorded["gates"]
