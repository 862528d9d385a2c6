"""The column builders against the loop builders they replaced.

``reference_builders`` keeps the loop builders verbatim: one ``Bucket``
per bucket, handed to ``Histogram(buckets)``.  Every builder here must
produce the same four columns, ``null_count`` and ``total`` bit for bit,
from the values and from their :class:`ValueCounts` alike, and
``exact_diff`` must equal the ``np.union1d`` version.
"""

import numpy as np
import pytest

from repro.histograms.base import Histogram, ValueCounts, values_and_frequencies
from repro.histograms.equidepth import build_equidepth
from repro.histograms.equiwidth import build_equiwidth
from repro.histograms.maxdiff import build_maxdiff
from repro.histograms.wavelet import build_wavelet
from repro.stats.diff import exact_diff
from repro.stats.sampling import SamplingSITBuilder, chao1_distinct

from tests.histograms import reference_builders as reference

BUILDERS = [
    (build_maxdiff, reference.build_maxdiff),
    (build_equidepth, reference.build_equidepth),
    (build_equiwidth, reference.build_equiwidth),
    (build_wavelet, reference.build_wavelet),
]


def _case_values() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(20261017)
    skewed = rng.zipf(1.4, 6000).clip(max=5000).astype(np.float64)
    skewed[rng.choice(6000, 300, replace=False)] = np.nan
    # equal counts on an even grid: every adjacent area difference but
    # the last is 0, so maxDiff picks its cuts among ties
    tied = np.repeat(np.arange(0.0, 900.0, 3.0), 4)
    # a repeating count pattern: many equal nonzero differences
    pattern = np.repeat(np.arange(600.0), np.tile([1, 5, 2], 200))
    return {
        "empty": np.array([], dtype=np.float64),
        "all_nan": np.full(40, np.nan),
        "single_value": np.full(75, 42.0),
        "single_value_with_nulls": np.array([7.0, np.nan, 7.0, 7.0, np.nan]),
        "few_distinct": rng.integers(0, 12, 500).astype(np.float64),
        "at_budget": np.arange(16.0),
        "one_past_budget": np.arange(17.0),
        "many_distinct_floats": rng.normal(0.0, 1.0, 4000),
        "many_distinct_skewed": skewed,
        "tied_area_differences": tied,
        "repeating_differences": pattern,
        "negative": -rng.integers(1, 10_000, 3000).astype(np.float64),
        "huge": rng.integers(0, 5000, 3000).astype(np.float64) * 1e300,
        "huge_and_negative": np.concatenate(
            [rng.uniform(-1e18, -1e15, 800), rng.uniform(1e15, 1e18, 800)]
        ),
        "integer_column": rng.integers(-300, 300, 2500),
        "signed_zeros": np.array([-0.0, 0.0, 0.0, -0.0, 1.0, -1.0] * 20),
    }


CASES = _case_values()


def assert_same_histogram(got: Histogram, expected: Histogram) -> None:
    for column, oracle in zip(got.bucket_arrays(), expected.bucket_arrays()):
        assert column.dtype == oracle.dtype == np.float64
        assert column.tobytes() == oracle.tobytes()
    assert got.null_count == expected.null_count
    assert got.total == expected.total
    assert got.frequency == expected.frequency


BUDGETS = (1, 3, 16, 200)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize(
    "build, oracle", BUILDERS, ids=[b.__name__ for b, _ in BUILDERS]
)
def test_builders_match_the_loop_builders(build, oracle, case):
    values = CASES[case]
    counted = values_and_frequencies(values)
    for budget in BUDGETS:
        expected = oracle(values, budget)
        assert_same_histogram(build(values, budget), expected)
        assert_same_histogram(build(counted, budget), expected)


class TestValueCounts:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_count_as_before(self, case):
        counted = values_and_frequencies(CASES[case])
        distinct, counts, nulls = reference.values_and_frequencies(CASES[case])
        assert isinstance(counted, ValueCounts)
        assert counted.distinct.tobytes() == distinct.tobytes()
        assert counted.counts.dtype == counts.dtype == np.int64
        assert counted.counts.tobytes() == counts.tobytes()
        assert counted.nulls == nulls

    def test_a_count_passes_through(self):
        counted = values_and_frequencies(CASES["few_distinct"])
        assert values_and_frequencies(counted) is counted

    def test_chao1_from_the_count(self):
        sample = CASES["many_distinct_skewed"]
        assert chao1_distinct(values_and_frequencies(sample)) == (
            reference.chao1_distinct(sample)
        )


@pytest.mark.parametrize("case", sorted(CASES))
def test_sampled_histogram_matches_the_loop(two_table_db, case):
    sample = np.asarray(CASES[case], dtype=np.float64)
    for budget in BUDGETS:
        builder = SamplingSITBuilder(two_table_db, max_buckets=budget)
        for scale in (1.0, 2.5, 10.0):
            assert_same_histogram(
                builder._continuous_histogram(sample, scale),
                reference.continuous_histogram(sample, scale, budget),
            )


class TestExactDiff:
    def test_matches_union1d_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            base = rng.integers(-40, 40, rng.integers(0, 200)).astype(np.float64)
            expression = rng.integers(-60, 20, rng.integers(0, 200)).astype(
                np.float64
            )
            expression[: rng.integers(0, 5)] = np.nan
            expected = reference.exact_diff(base, expression)
            assert exact_diff(base, expression) == expected
            assert (
                exact_diff(
                    values_and_frequencies(base), values_and_frequencies(expression)
                )
                == expected
            )

    def test_matches_union1d_on_the_cases(self):
        for left in CASES.values():
            for right in ("empty", "signed_zeros", "huge", "negative"):
                assert exact_diff(left, CASES[right]) == reference.exact_diff(
                    left, CASES[right]
                )
