"""Tests for the experiment harness and reporting."""

import pytest

from repro.bench.config import BenchConfig
from repro.bench.harness import Harness
from repro.bench.reporting import (
    figure5_rows,
    render_figure5,
    render_figure6,
    render_figure7,
    render_figure8,
    render_summary,
    render_table,
)
from repro.estimators import make_gs_diff, make_gs_nind, make_nosit
from repro.stats.builder import SITBuilder
from repro.stats.pool import build_workload_pool
from repro.workload.queries import WorkloadConfig, WorkloadGenerator


@pytest.fixture(scope="module")
def evaluation(tiny_snowflake_module):
    db = tiny_snowflake_module
    generator = WorkloadGenerator(
        db, WorkloadConfig(join_count=3, filter_count=2, seed=2)
    )
    queries = generator.generate(3)
    pool = build_workload_pool(SITBuilder(db), queries, max_joins=2)
    harness = Harness(db)
    return harness.evaluate(
        queries,
        pool,
        {"noSit": make_nosit, "GS-nInd": make_gs_nind, "GS-Diff": make_gs_diff},
        max_subqueries=15,
    )


@pytest.fixture(scope="module")
def tiny_snowflake_module():
    from repro.workload.snowflake import SnowflakeConfig, generate_snowflake

    return generate_snowflake(SnowflakeConfig(scale=0.05, seed=11))


class TestHarness:
    def test_reports_for_all_techniques(self, evaluation):
        assert set(evaluation.reports) == {"noSit", "GS-nInd", "GS-Diff", "GVM"}

    def test_per_query_counts(self, evaluation):
        for report in evaluation.reports.values():
            assert len(report.per_query) == 3

    def test_errors_non_negative(self, evaluation):
        for report in evaluation.reports.values():
            assert report.mean_absolute_error >= 0.0
            for query_metrics in report.per_query:
                assert query_metrics.mean_absolute_error >= 0.0

    def test_gs_not_worse_than_nosit(self, evaluation):
        nosit = evaluation.report("noSit").mean_absolute_error
        gs = evaluation.report("GS-Diff").mean_absolute_error
        assert gs <= nosit * 1.05 + 1e-9

    def test_vm_calls_positive(self, evaluation):
        for report in evaluation.reports.values():
            assert report.mean_vm_calls > 0

    def test_truth_cached(self, tiny_snowflake_module, evaluation):
        assert evaluation.true_cardinalities

    def test_estimates_recorded_per_subquery(self, evaluation):
        for report in evaluation.reports.values():
            for query_metrics in report.per_query:
                assert query_metrics.estimates
                assert query_metrics.query.predicates in query_metrics.estimates

    def test_stats_surfaced_for_getselectivity_techniques(self, evaluation):
        for name, report in evaluation.reports.items():
            for query_metrics in report.per_query:
                if name == "GVM":
                    assert query_metrics.snapshot is None
                else:
                    snapshot = query_metrics.snapshot
                    assert snapshot.caches["memo_entries"] > 0
                    # one invocation per pair explored and per bound the
                    # query scored first (bounds outlive the per-query reset)
                    counters = snapshot.counters
                    assert counters["explored_decompositions"] > 0
                    assert counters["matcher_calls"] == (
                        counters["explored_decompositions"]
                        + counters["bound_scores"]
                    )

    def test_session_snapshots_surfaced(self, evaluation):
        snapshots = evaluation.session_snapshots
        assert set(snapshots) == {
            name for name in evaluation.reports if name != "GVM"
        }
        for snapshot in snapshots.values():
            assert snapshot.catalog["match_cache_hit_rate"] == 0.0
            assert snapshot.meta["queries"] == len(
                next(iter(evaluation.reports.values())).per_query
            )


class TestReporting:
    def test_render_table_alignment(self):
        table = render_table("T", ["a", "bb"], [["1", "2"], ["33", "444"]])
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "444" in table

    def test_figure5(self, evaluation):
        pairs = figure5_rows(evaluation, "GVM", "GS-nInd")
        assert len(pairs) == 3
        rendered = render_figure5(evaluation)
        assert "points under x=y" in rendered

    def test_figure6(self, evaluation):
        rendered = render_figure6({3: evaluation})
        assert "GVM" in rendered and "GS-nInd" in rendered

    def test_figure7(self, evaluation):
        rendered = render_figure7(
            {"J2": evaluation}, ["noSit", "GS-nInd", "GS-Diff"], 3
        )
        assert "J2" in rendered
        rendered_missing = render_figure7({"J2": evaluation}, ["GS-Opt"], 3)
        assert "-" in rendered_missing

    def test_figure8(self, evaluation):
        rendered = render_figure8({"J2": evaluation}, "GS-Diff", 3)
        assert "decomposition analysis" in rendered

    def test_summary(self, evaluation):
        assert "GS-Diff" in render_summary(evaluation.report("GS-Diff"))


class TestBenchConfig:
    def test_defaults(self, monkeypatch):
        for name in ("REPRO_SCALE", "REPRO_QUERIES", "REPRO_SUBQUERIES", "REPRO_SEED"):
            monkeypatch.delenv(name, raising=False)
        config = BenchConfig.from_env()
        assert config.scale == 0.25
        assert config.queries_per_workload == 12

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        monkeypatch.setenv("REPRO_QUERIES", "7")
        monkeypatch.setenv("REPRO_SUBQUERIES", "9")
        monkeypatch.setenv("REPRO_SEED", "3")
        config = BenchConfig.from_env()
        assert config.scale == 0.5
        assert config.queries_per_workload == 7
        assert config.subqueries_per_query == 9
        assert config.seed == 3
