"""Tests for sample-based SITs."""

import numpy as np
import pytest

from repro.estimators import make_gs_diff
from repro.core.predicates import FilterPredicate
from repro.engine.executor import Executor
from repro.engine.expressions import Query
from repro.stats.builder import SITBuilder
from repro.stats.pool import SITPool
from repro.stats.sampling import SamplingSITBuilder


class TestSamplingBuilder:
    def test_invalid_fraction(self, two_table_db):
        with pytest.raises(ValueError):
            SamplingSITBuilder(two_table_db, sample_fraction=0.0)
        with pytest.raises(ValueError):
            SamplingSITBuilder(two_table_db, sample_fraction=1.5)

    def test_total_mass_estimates_result_size(
        self, two_table_db, two_table_attrs, two_table_join
    ):
        builder = SamplingSITBuilder(
            two_table_db, sample_fraction=0.25, min_sample_rows=50
        )
        sit = builder.build(two_table_attrs["Ra"], frozenset({two_table_join}))
        true = Executor(two_table_db).cardinality(frozenset({two_table_join}))
        assert sit.histogram.total == pytest.approx(true, rel=0.05)

    def test_small_results_taken_whole(
        self, two_table_db, two_table_attrs
    ):
        builder = SamplingSITBuilder(
            two_table_db, sample_fraction=0.1, min_sample_rows=10_000
        )
        sit = builder.build_base(two_table_attrs["Sb"])
        # S has 50 rows < min_sample_rows: exact.
        assert sit.histogram.total == 50

    def test_full_fraction_equals_exact_builder(
        self, two_table_db, two_table_attrs, two_table_join
    ):
        sampled = SamplingSITBuilder(two_table_db, sample_fraction=1.0)
        exact = SITBuilder(two_table_db)
        s = sampled.build(two_table_attrs["Sb"], frozenset({two_table_join}))
        e = exact.build(two_table_attrs["Sb"], frozenset({two_table_join}))
        assert s.histogram.total == e.histogram.total
        assert s.diff == pytest.approx(e.diff)

    def test_sampled_diff_close_to_exact(
        self, two_table_db, two_table_attrs, two_table_join
    ):
        sampled = SamplingSITBuilder(
            two_table_db, sample_fraction=0.3, min_sample_rows=100
        )
        exact = SITBuilder(two_table_db)
        s = sampled.build(two_table_attrs["Sb"], frozenset({two_table_join}))
        e = exact.build(two_table_attrs["Sb"], frozenset({two_table_join}))
        assert s.diff == pytest.approx(e.diff, abs=0.15)

    def test_deterministic_per_seed(self, two_table_db, two_table_attrs, two_table_join):
        def build():
            builder = SamplingSITBuilder(
                two_table_db, sample_fraction=0.2, sampling_seed=9
            )
            return builder.build(
                two_table_attrs["Ra"], frozenset({two_table_join})
            )

        assert build().histogram.total == build().histogram.total


class TestSampledEstimation:
    def test_end_to_end_accuracy_reasonable(
        self, two_table_db, two_table_attrs, two_table_join
    ):
        """Sampled SITs plug into getSelectivity unchanged and stay in the
        same accuracy ballpark as exact SITs."""
        query = Query.of(
            two_table_join, FilterPredicate(two_table_attrs["Ra"], 0, 20)
        )
        true = Executor(two_table_db).cardinality(query.predicates)

        def error(builder):
            pool = SITPool(
                [
                    *(builder.build_base(a) for a in two_table_attrs.values()),
                    *builder.build_many(
                        frozenset({two_table_join}),
                        [two_table_attrs["Ra"], two_table_attrs["Sb"]],
                    ),
                ]
            )
            return abs(make_gs_diff(two_table_db, pool).cardinality(query) - true)

        exact_error = error(SITBuilder(two_table_db))
        sampled_error = error(
            SamplingSITBuilder(
                two_table_db, sample_fraction=0.25, min_sample_rows=100
            )
        )
        assert sampled_error <= max(3 * exact_error, 0.25 * true)
