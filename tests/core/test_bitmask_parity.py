"""Randomized parity suite: bitmask ``GetSelectivity`` vs the legacy oracle.

The bitmask rewrite (interned universe, submask enumeration, bitwise
connected components, mask-keyed caches) must be *behaviour preserving*:
on every workload it has to return bit-identical selectivity, error,
coverage, decomposition and SIT matches to the original frozenset
implementation (``GetSelectivity.create(..., engine="legacy")``), including exact
tie-breaks between equal-error decompositions.

The corpus below generates 200+ predicate sets (3-9 predicates, mixed
filter/join, connected and separable, uniform histograms to force ties and
skewed ones to break them) and sweeps error functions (nInd, Diff) and
Section 3.4 pruning across it.

Line 16 runs on the answer's chain only: a solved memo node keeps what
the search compares until an answer (or ``cached_results``) reads it.
The realization checks below hold that to the same oracle — a cold
solve estimates exactly the answer's factors, every memo entry realized
later equals a fresh instance's and the oracle's answer, and a memo
emptied at ``MEMO_LIMIT`` with unrealized nodes in it loses nothing.
"""

from __future__ import annotations

import random

import pytest

import repro.core.get_selectivity as get_selectivity
from repro.core.errors import DiffError, NIndError
from repro.core.get_selectivity import (
    EstimationResult,
    GetSelectivity,
    LegacyGetSelectivity,
    NoApplicableStatisticsError,
)
from repro.core.plancache import PlanCache
from repro.core.predicates import (
    Attribute,
    FilterPredicate,
    JoinPredicate,
    attributes_of,
    connected_components,
)
from repro.histograms.base import Bucket, Histogram
from repro.stats.pool import SITPool
from repro.stats.sit import SIT

TABLES = [f"T{i}" for i in range(6)]
COLUMNS = ["a", "b", "c"]

#: (size, how many corpus entries of that size) — 222 cases total, skewed
#: towards small sizes so the exponential legacy oracle stays fast.
SIZE_PLAN = [(3, 60), (4, 55), (5, 45), (6, 35), (7, 15), (8, 8), (9, 4)]


def random_histogram(rng: random.Random) -> Histogram:
    count = rng.randint(1, 4)
    edges = sorted(rng.sample(range(0, 401), 2 * count))
    buckets = []
    for i in range(count):
        low, high = float(edges[2 * i]), float(edges[2 * i + 1])
        frequency = float(rng.randint(10, 1000))
        distinct = float(rng.randint(1, max(1, int(min(frequency, high - low + 1)))))
        buckets.append(Bucket(low, high, frequency, distinct))
    return Histogram(buckets, null_count=float(rng.choice([0, 0, 0, 5])))


def random_predicates(rng: random.Random, size: int) -> frozenset:
    n_tables = rng.randint(2, min(5, size))
    tables = rng.sample(TABLES, n_tables)
    joins = []
    for i in range(1, n_tables):
        left = Attribute(tables[rng.randrange(i)], rng.choice(COLUMNS))
        right = Attribute(tables[i], rng.choice(COLUMNS))
        joins.append(JoinPredicate(left, right))
    if len(joins) > 1 and rng.random() < 0.35:
        joins.pop(rng.randrange(len(joins)))  # disconnect: separable case
    predicates: set = set(joins)
    while len(predicates) < size:
        table = rng.choice(tables)
        low = rng.randint(0, 390)
        high = low + rng.randint(0, 60)
        predicates.add(
            FilterPredicate(Attribute(table, rng.choice(COLUMNS)), float(low), float(high))
        )
    return frozenset(predicates)


def random_pool(rng: random.Random, predicates: frozenset) -> SITPool:
    attributes = sorted(attributes_of(predicates))
    uniform_ties = rng.random() < 0.3
    shared = Histogram([Bucket(0.0, 400.0, 1000.0, 200.0)])

    def histogram() -> Histogram:
        return shared if uniform_ties else random_histogram(rng)

    sits = [
        SIT(attribute, frozenset(), histogram(), diff=0.0) for attribute in attributes
    ]
    joins = sorted((p for p in predicates if p.is_join), key=str)
    for _ in range(rng.randint(0, 6)):
        if not joins:
            break
        expression = frozenset(rng.sample(joins, rng.randint(1, min(3, len(joins)))))
        attribute = rng.choice(attributes)
        diff = 0.0 if uniform_ties else round(rng.random(), 3)
        sits.append(SIT(attribute, expression, histogram(), diff=diff))
    return SITPool(sits)


def build_corpus() -> list[tuple[int, frozenset, SITPool, str, bool]]:
    rng = random.Random(20260806)
    corpus = []
    index = 0
    for size, count in SIZE_PLAN:
        for _ in range(count):
            predicates = random_predicates(rng, size)
            pool = random_pool(rng, predicates)
            error_name = "nInd" if index % 2 == 0 else "Diff"
            pruning = index % 3 == 0
            corpus.append((index, predicates, pool, error_name, pruning))
            index += 1
    return corpus


CORPUS = build_corpus()


def make_pair(pool, error_name, pruning):
    def error_function():
        return NIndError() if error_name == "nInd" else DiffError(pool)

    fast = GetSelectivity(pool, error_function(), sit_driven_pruning=pruning)
    oracle = GetSelectivity.create(
        pool, error_function(), sit_driven_pruning=pruning, engine="legacy"
    )
    assert isinstance(oracle, LegacyGetSelectivity)
    assert not isinstance(type(fast), type(LegacyGetSelectivity)) or not isinstance(
        fast, LegacyGetSelectivity
    )
    return fast, oracle


def assert_equal_results(fast_result, oracle_result):
    assert fast_result.selectivity == oracle_result.selectivity
    assert fast_result.error == oracle_result.error
    assert fast_result.coverage == oracle_result.coverage
    assert fast_result.decomposition == oracle_result.decomposition
    assert fast_result.matches == oracle_result.matches


@pytest.mark.parametrize(
    "index,predicates,pool,error_name,pruning",
    CORPUS,
    ids=[f"case{c[0]:03d}-n{len(c[1])}-{c[3]}{'-prune' if c[4] else ''}" for c in CORPUS],
)
def test_bitmask_matches_legacy(index, predicates, pool, error_name, pruning):
    fast, oracle = make_pair(pool, error_name, pruning)
    assert_equal_results(fast(predicates), oracle(predicates))
    # The memo answers sub-queries for free; those must agree too.  Use the
    # oracle's memo as the probe set (same subsets exist in both).
    rng = random.Random(index)
    subsets = sorted(oracle.cached_results(), key=lambda s: sorted(map(str, s)))
    for subset in rng.sample(subsets, min(3, len(subsets))):
        assert_equal_results(fast(subset), oracle(subset))


def test_corpus_is_large_and_varied():
    assert len(CORPUS) >= 200
    sizes = {len(c[1]) for c in CORPUS}
    assert sizes == {3, 4, 5, 6, 7, 8, 9}
    assert any(c[3] == "nInd" for c in CORPUS)
    assert any(c[3] == "Diff" for c in CORPUS)
    assert any(c[4] for c in CORPUS) and any(not c[4] for c in CORPUS)
    # Both separable and non-separable workloads are exercised.
    assert any(len(connected_components(c[1])) > 1 for c in CORPUS)
    assert any(len(connected_components(c[1])) == 1 for c in CORPUS)


def test_missing_statistics_parity():
    rng = random.Random(7)
    predicates = random_predicates(rng, 4)
    pool = random_pool(rng, predicates)
    # Drop one base histogram: both paths must refuse identically.
    victim = sorted(attributes_of(predicates))[0]
    crippled = SITPool([s for s in pool if not (s.is_base and s.attribute == victim)])
    fast, oracle = make_pair(crippled, "nInd", False)
    with pytest.raises(NoApplicableStatisticsError):
        fast(predicates)
    with pytest.raises(NoApplicableStatisticsError):
        oracle(predicates)


def test_incremental_interning_keeps_parity():
    """Calling the same instance on sub-queries first (growing the universe
    across calls, as the optimizer's cardinality-request loop does) must
    not change any answer."""
    rng = random.Random(99)
    for _ in range(10):
        predicates = random_predicates(rng, 6)
        pool = random_pool(rng, predicates)
        fast, oracle = make_pair(pool, "Diff", False)
        ordered = sorted(predicates, key=str)
        # Probe connected prefixes bottom-up, then the full set.
        for end in range(1, len(ordered) + 1):
            subset = frozenset(ordered[:end])
            assert_equal_results(fast(subset), oracle(subset))


def test_engine_factory_constructs_legacy():
    pool = SITPool([SIT(Attribute("T0", "a"), frozenset(), random_histogram(random.Random(1)))])
    oracle = GetSelectivity.create(pool, NIndError(), engine="legacy")
    assert isinstance(oracle, LegacyGetSelectivity)
    assert not isinstance(GetSelectivity(pool, NIndError()), LegacyGetSelectivity)


@pytest.mark.parametrize(
    "index,predicates,pool,error_name,pruning",
    CORPUS[::17],
    ids=[
        f"snap{c[0]:03d}-n{len(c[1])}-{c[3]}{'-prune' if c[4] else ''}"
        for c in CORPUS[::17]
    ],
)
def test_catalog_snapshot_parity(index, predicates, pool, error_name, pruning):
    """Serving from a ``StatisticsCatalog`` snapshot is bit-identical to
    serving from the bare pool (the catalog publishes, never transforms)."""
    from repro.catalog import StatisticsCatalog
    from repro.estimators import resolve_statistics

    catalog = StatisticsCatalog.from_pool(pool)
    snapshot_pool, snapshot = resolve_statistics(catalog)
    assert snapshot is not None and snapshot.pool is snapshot_pool
    error = NIndError() if error_name == "nInd" else DiffError(pool)
    snap_error = (
        NIndError() if error_name == "nInd" else DiffError(snapshot_pool)
    )
    bare = GetSelectivity(pool, error, sit_driven_pruning=pruning)
    via_snapshot = GetSelectivity(
        snapshot_pool, snap_error, sit_driven_pruning=pruning
    )
    assert_equal_results(bare(predicates), via_snapshot(predicates))


# ----------------------------------------------------------------------
# Line 16 on the answer's chain
# ----------------------------------------------------------------------
def unrealized(algorithm) -> list[int]:
    return [
        mask
        for mask, entry in algorithm._memo.items()
        if not isinstance(entry, EstimationResult)
    ]


@pytest.mark.parametrize(
    "index,predicates,pool,error_name,pruning",
    CORPUS[::5],
    ids=[f"chain{c[0]:03d}-n{len(c[1])}-{c[3]}" for c in CORPUS[::5]],
)
def test_a_cold_solve_estimates_only_the_answers_factors(
    index, predicates, pool, error_name, pruning, monkeypatch
):
    fast, oracle = make_pair(pool, error_name, pruning)
    expected = oracle(predicates)
    estimated = []
    real = get_selectivity.estimate_factor

    def counted(match, **kwargs):
        estimated.append(match.factor)
        return real(match, **kwargs)

    monkeypatch.setattr(get_selectivity, "estimate_factor", counted)
    result = fast(predicates)
    assert_equal_results(result, expected)
    # once per factor of the answer, head first, and for nothing else
    assert estimated == list(result.decomposition.factors)


@pytest.fixture(scope="module")
def snowflake_queries(tiny_snowflake):
    from repro.stats.builder import SITBuilder
    from repro.stats.pool import build_workload_pool
    from repro.workload.queries import WorkloadConfig, WorkloadGenerator

    queries = []
    for joins, filters in ((1, 2), (2, 2), (2, 3), (3, 2)):
        generator = WorkloadGenerator(
            tiny_snowflake,
            WorkloadConfig(join_count=joins, filter_count=filters, seed=41 + joins),
        )
        queries += generator.generate(6)
    pool = build_workload_pool(SITBuilder(tiny_snowflake), queries, max_joins=2)
    return [query.predicates for query in queries], pool


@pytest.mark.parametrize("error_name", ["nInd", "Diff"])
def test_every_memo_entry_realizes_to_the_fresh_and_oracle_answer(
    snowflake_queries, error_name
):
    queries, pool = snowflake_queries
    fast, oracle = make_pair(pool, error_name, False)
    for predicates in queries:
        assert_equal_results(fast(predicates), oracle(predicates))
    held = len(unrealized(fast))
    assert held > 0
    results = fast.cached_results()
    assert not unrealized(fast)  # read: realized, and kept
    assert len(results) > held
    for subset, result in results.items():
        fresh, _ = make_pair(pool, error_name, False)
        assert result == fresh(subset) == oracle(subset)


def test_a_memo_limit_clear_with_unrealized_nodes_loses_no_answer(monkeypatch):
    monkeypatch.setattr(get_selectivity, "MEMO_LIMIT", 24)
    rng = random.Random(4242)
    predicates = random_predicates(rng, 7)
    pool = random_pool(rng, predicates)
    fast, oracle = make_pair(pool, "Diff", False)
    ordered = sorted(predicates, key=str)
    requests = [
        frozenset(rng.sample(ordered, rng.randint(2, len(ordered))))
        for _ in range(40)
    ]
    cleared_with_unrealized = 0
    for subset in requests:
        if len(fast._memo) > get_selectivity.MEMO_LIMIT:
            cleared_with_unrealized += bool(unrealized(fast))
        result = fast(subset)
        assert_equal_results(result, oracle(subset))
        # the answer's chain is in the memo for the plan compiler to walk
        assert PlanCache(pool).compile(subset, fast, result) is not None
    assert cleared_with_unrealized > 0
