"""Tests for SIT construction from a database."""

import sys
import threading

import numpy as np
import pytest

from repro.core.predicates import Attribute, FilterPredicate, JoinPredicate
from repro.engine.executor import Executor
from repro.histograms.equidepth import build_equidepth
from repro.stats.builder import SITBuilder
from repro.stats.diff import exact_diff


class TestBuildBase(object):
    def test_base_histogram_matches_column(self, two_table_db, two_table_attrs):
        builder = SITBuilder(two_table_db)
        sit = builder.build_base(two_table_attrs["Ra"])
        assert sit.is_base
        assert sit.diff == 0.0
        assert sit.histogram.total == 2000

    def test_base_cached(self, two_table_db, two_table_attrs):
        builder = SITBuilder(two_table_db)
        first = builder.build_base(two_table_attrs["Ra"])
        second = builder.build_base(two_table_attrs["Ra"])
        assert first is second

    def test_invalidate_table_evicts_cached_bases(
        self, two_table_db, two_table_attrs
    ):
        builder = SITBuilder(two_table_db)
        ra = builder.build_base(two_table_attrs["Ra"])
        sb = builder.build_base(two_table_attrs["Sb"])
        assert builder.invalidate_table("R") == 1
        assert builder.invalidate_table("R") == 0  # already evicted
        assert builder.build_base(two_table_attrs["Ra"]) is not ra
        # other tables' caches survive
        assert builder.build_base(two_table_attrs["Sb"]) is sb

    def test_invalidate_table_races_builds_on_another_thread(
        self, two_table_db, two_table_attrs, two_table_join
    ):
        """A refresh builds on one thread while a writer's
        ``invalidate_table`` evicts on another: the eviction scans the
        memos the build inserts into, and nothing raises.  (Scanning the
        live dicts ends in ``dictionary changed size during
        iteration``.)"""
        builder = SITBuilder(two_table_db)
        expression = frozenset({two_table_join})
        attributes = [two_table_attrs["Ra"], two_table_attrs["Sb"]]
        errors: list[Exception] = []
        start = threading.Barrier(2)
        built = threading.Event()

        def build() -> None:
            try:
                start.wait(timeout=30.0)
                for _ in range(300):
                    builder.build_many(expression, attributes)
                    for attribute in two_table_attrs.values():
                        builder.build_base(attribute)
            except Exception as error:  # reported by the assert below
                errors.append(error)
            finally:
                built.set()

        def invalidate() -> None:
            try:
                start.wait(timeout=30.0)
                while not built.is_set():
                    builder.invalidate_table("S")
            except Exception as error:  # reported by the assert below
                errors.append(error)

        threads = [
            threading.Thread(target=body, daemon=True)
            for body in (build, invalidate)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestBuildOnExpression:
    def test_histogram_covers_join_result(
        self, two_table_db, two_table_attrs, two_table_join
    ):
        builder = SITBuilder(two_table_db)
        sit = builder.build(two_table_attrs["Ra"], frozenset({two_table_join}))
        executor = Executor(two_table_db)
        true_rows = executor.cardinality(frozenset({two_table_join}))
        assert sit.histogram.total == true_rows

    def test_diff_zero_when_distribution_preserved(
        self, two_table_db, two_table_attrs, two_table_join
    ):
        # Every R row joins exactly once (FK integrity in the fixture), so
        # R.a's distribution over the join equals its base distribution.
        builder = SITBuilder(two_table_db)
        sit = builder.build(two_table_attrs["Ra"], frozenset({two_table_join}))
        assert sit.diff == pytest.approx(0.0, abs=1e-9)

    def test_diff_positive_when_skewed(
        self, two_table_db, two_table_attrs, two_table_join
    ):
        # S.b over the join is reweighted by the Zipfian foreign key.
        builder = SITBuilder(two_table_db)
        sit = builder.build(two_table_attrs["Sb"], frozenset({two_table_join}))
        assert sit.diff > 0.2

    def test_exact_diff_matches_manual_computation(
        self, two_table_db, two_table_attrs, two_table_join
    ):
        builder = SITBuilder(two_table_db)
        sit = builder.build(two_table_attrs["Sb"], frozenset({two_table_join}))
        executor = Executor(two_table_db)
        result = executor.execute(frozenset({two_table_join}))
        manual = exact_diff(
            two_table_db.column(two_table_attrs["Sb"]),
            result.column(two_table_attrs["Sb"]),
        )
        assert sit.diff == pytest.approx(manual)

    def test_approximate_diff_mode(self, two_table_db, two_table_attrs, two_table_join):
        builder = SITBuilder(two_table_db, exact_diffs=False)
        sit = builder.build(two_table_attrs["Sb"], frozenset({two_table_join}))
        exact_builder = SITBuilder(two_table_db, exact_diffs=True)
        exact_sit = exact_builder.build(
            two_table_attrs["Sb"], frozenset({two_table_join})
        )
        assert sit.diff == pytest.approx(exact_sit.diff, abs=0.15)

    def test_build_many_shares_execution(
        self, two_table_db, two_table_attrs, two_table_join
    ):
        builder = SITBuilder(two_table_db)
        sits = builder.build_many(
            frozenset({two_table_join}),
            [two_table_attrs["Ra"], two_table_attrs["Sb"]],
        )
        assert len(sits) == 2
        assert {s.attribute for s in sits} == {
            two_table_attrs["Ra"],
            two_table_attrs["Sb"],
        }

    def test_filter_expression(self, two_table_db, two_table_attrs):
        builder = SITBuilder(two_table_db)
        predicate = FilterPredicate(two_table_attrs["Ra"], 0, 30)
        sit = builder.build(two_table_attrs["Rx"], frozenset({predicate}))
        executor = Executor(two_table_db)
        assert sit.histogram.total == executor.cardinality(
            frozenset({predicate})
        )

    def test_unreferenced_table_attribute_uses_base_distribution(
        self, two_table_db, two_table_attrs
    ):
        builder = SITBuilder(two_table_db)
        predicate = FilterPredicate(two_table_attrs["Sb"], 0, 50)
        sit = builder.build(two_table_attrs["Ra"], frozenset({predicate}))
        assert sit.diff == pytest.approx(0.0, abs=1e-12)

    def test_custom_histogram_builder(self, two_table_db, two_table_attrs):
        builder = SITBuilder(
            two_table_db, histogram_builder=build_equidepth, max_buckets=16
        )
        sit = builder.build_base(two_table_attrs["Ra"])
        assert sit.histogram.bucket_count <= 16
