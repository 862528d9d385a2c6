"""The ``core`` suite: core-DP and histogram-algebra performance.

Measures the bitmask ``GetSelectivity`` rewrite against the preserved
``LegacyGetSelectivity`` baseline (the seed's frozenset DP on the seed's
loop kernels, timed on this machine), the vectorized histogram algebra
against the pure-Python reference kernels, the cost of tracing on the
steady DP, and incremental catalog refresh against a cold build.  Run with::

    PYTHONPATH=src python -m repro.bench core [output.json]

All timers are ``perf_counter``; cold figures are medians, steady and
micro figures best-of.

Two regimes are timed for the DP:

* ``cold``   — a fresh instance answers the full query once (universe
  interning, factor matching and the enumeration: the legacy oracle's
  exhaustive ``O(3^n)`` one, the bitmask engine's branch and bound);
* ``steady`` — the per-query optimizer regime the harness uses: the same
  instance is ``reset()`` between queries, so the interned universe, the
  scorer's tables, the bounds and the winners' estimates are warm and
  the measured cost is the decomposition search itself, every explored
  pair scored again.

``cold_matcher_calls`` and ``bound_scores`` count the cold solve's
view-matching invocations and, of those, the bounds; the other counters
are one steady solve's.

``analysis_ms`` / ``estimation_ms`` split each technique's time into the
paper's Figure 8 categories (decomposition analysis vs. histogram
manipulation) using the ``GetSelectivity`` timing accumulators.

The histogram microbenchmarks join / diff two ~200-bucket maxDiff
histograms — the paper's SIT format — through both kernel generations.
"""

from __future__ import annotations

import contextlib
import random
import statistics
import time
from typing import Iterator

import numpy as np

import repro.core.matching as _matching

from repro.bench.suites import best_of, time_once
from repro.core.errors import NIndError
from repro.core.get_selectivity import GetSelectivity
from repro.core.predicates import (
    Attribute,
    FilterPredicate,
    JoinPredicate,
    attributes_of,
)
from repro.histograms.base import Bucket, Histogram
from repro.histograms.maxdiff import build_maxdiff
from repro.histograms.operations import (
    join_histograms,
    join_histograms_reference,
    variation_distance,
    variation_distance_reference,
)
from repro.stats.pool import SITPool
from repro.stats.sit import SIT

#: predicate counts benchmarked (the acceptance gate reads ``n7``)
PREDICATE_COUNTS = (5, 7, 9)

COLUMNS = ("a", "b", "c")


# ----------------------------------------------------------------------
# Scenario construction (deterministic)
# ----------------------------------------------------------------------
def _scenario_histogram(rng: random.Random) -> Histogram:
    count = rng.randint(2, 4)
    edges = sorted(rng.sample(range(0, 401), 2 * count))
    buckets = []
    for i in range(count):
        low, high = float(edges[2 * i]), float(edges[2 * i + 1])
        frequency = float(rng.randint(100, 1000))
        distinct = float(rng.randint(1, max(1, int(min(frequency, high - low + 1)))))
        buckets.append(Bucket(low, high, frequency, distinct))
    return Histogram(buckets)


def build_scenario(size: int, seed: int = 0) -> tuple[frozenset, SITPool]:
    """A connected chain-join workload with ``size`` predicates and a pool
    with base SITs on every attribute plus a few conditioned SITs."""
    rng = random.Random(20260806 + seed + size)
    n_tables = min(5, size)
    tables = [f"T{i}" for i in range(n_tables)]
    joins = [
        JoinPredicate(
            Attribute(tables[i - 1], rng.choice(COLUMNS)),
            Attribute(tables[i], rng.choice(COLUMNS)),
        )
        for i in range(1, n_tables)
    ]
    predicates: set = set(joins)
    while len(predicates) < size:
        table = rng.choice(tables)
        low = float(rng.randint(0, 390))
        predicates.add(
            FilterPredicate(
                Attribute(table, rng.choice(COLUMNS)), low, low + rng.randint(0, 60)
            )
        )
    frozen = frozenset(predicates)
    attributes = sorted(attributes_of(frozen))
    sits = [
        SIT(attribute, frozenset(), _scenario_histogram(rng))
        for attribute in attributes
    ]
    for _ in range(4):
        expression = frozenset(rng.sample(joins, rng.randint(1, min(2, len(joins)))))
        sits.append(
            SIT(
                rng.choice(attributes),
                expression,
                _scenario_histogram(rng),
                diff=round(rng.random(), 3),
            )
        )
    return frozen, SITPool(sits)


@contextlib.contextmanager
def seed_kernels() -> Iterator[None]:
    """Run the factor-estimation pipeline on the seed's loop kernels.

    The seed implementation used the pure-Python ``join_histograms``; the
    vectorized kernel is part of this optimisation round, so the honest
    end-to-end baseline patches the reference back in for the legacy DP.
    """
    original = _matching.join_histograms
    _matching.join_histograms = join_histograms_reference
    try:
        yield
    finally:
        _matching.join_histograms = original


def bench_get_selectivity(size: int, repeats: int) -> dict:
    predicates, pool = build_scenario(size)

    def fresh(engine: str) -> GetSelectivity:
        return GetSelectivity.create(pool, NIndError(), engine=engine)

    out: dict = {"predicates": size}
    for name in ("legacy", "bitmask"):
        # legacy == the seed configuration: frozenset DP + loop kernels.
        is_legacy = name == "legacy"
        context = seed_kernels() if is_legacy else contextlib.nullcontext()
        with context:
            cold = statistics.median(
                [
                    time_once(lambda: fresh(name)(predicates))
                    for _ in range(max(3, repeats // 2))
                ]
            )
            algorithm = fresh(name)
            algorithm(predicates)  # warm the pool-pure caches
            cold_counters = algorithm.stats_snapshot().counters

            def steady_run() -> None:
                algorithm.reset()
                algorithm(predicates)

            steady = best_of(steady_run, repeats)
        snapshot = algorithm.stats_snapshot()
        out[name] = {
            "cold_ms": cold * 1000.0,
            "steady_ms": steady * 1000.0,
            "analysis_ms": snapshot.timings["analysis_seconds"] * 1000.0,
            "estimation_ms": snapshot.timings["estimation_seconds"] * 1000.0,
            "matcher_calls": snapshot.counters["matcher_calls"],
            "memo_entries": snapshot.caches["memo_entries"],
            "explored_decompositions": snapshot.counters[
                "explored_decompositions"
            ],
            "cold_matcher_calls": cold_counters["matcher_calls"],
            "bound_scores": cold_counters["bound_scores"],
        }
    out["cold_speedup"] = out["legacy"]["cold_ms"] / out["bitmask"]["cold_ms"]
    out["steady_speedup"] = out["legacy"]["steady_ms"] / out["bitmask"]["steady_ms"]
    return out


def warm_steady_dp(size: int):
    """The ``size``-predicate scenario on a warm bitmask DP.

    Returns ``(algorithm, predicates, first_result, steady_run)``:
    ``steady_run`` is one reset-per-query call — the optimizer regime,
    with the pool-pure caches already populated by ``first_result``."""
    predicates, pool = build_scenario(size)
    algorithm = GetSelectivity.create(pool, NIndError(), engine="bitmask")
    first_result = algorithm(predicates)

    def steady_run() -> None:
        algorithm.reset()
        algorithm(predicates)

    return algorithm, predicates, first_result, steady_run


def bench_tracing_overhead(size: int, repeats: int) -> dict:
    """Steady-state cost of the observability layer on the bitmask DP.

    ``disabled_ms`` is the production configuration (``trace is None``:
    one branch per instrumented call site); ``enabled_ms`` runs the same
    workload with the per-stage :class:`repro.obs.trace.Trace` attached.
    The disabled figure is the one the <=5% acceptance gate tracks against
    the pre-observability baseline recorded in ``BENCH_core.json``.
    """
    algorithm, _, _, steady_run = warm_steady_dp(size)
    disabled = best_of(steady_run, repeats)
    trace = algorithm.enable_tracing()
    enabled = best_of(steady_run, repeats)
    stages = {
        stage: seconds * 1000.0 for stage, seconds, _ in trace.stages()
    }
    counters = dict(trace.counters)
    algorithm.disable_tracing()
    return {
        "predicates": size,
        "disabled_ms": disabled * 1000.0,
        "enabled_ms": enabled * 1000.0,
        "enabled_overhead_pct": (enabled / disabled - 1.0) * 100.0,
        "trace_stage_ms": stages,
        "trace_counters": counters,
    }


def bench_catalog_refresh(repeats: int) -> dict:
    """Incremental catalog refresh against a cold build.

    Builds a ``J1`` workload catalog over the snowflake database, then
    repeatedly invalidates the ``customer`` dimension (the table most
    conditioned SITs depend on) and times ``refresh()``.  Only the
    stale SITs are rebuilt — ``kept`` counts the
    fresh SITs that survive as the *same objects* — so the measured cost
    is the incremental maintenance path, not a cold build.
    """
    from repro.workload.fixture import snowflake_fixture

    scale = 8.0
    catalog = snowflake_fixture(scale, 42, 3).catalog
    # the build's own record of what the cold build cost
    build_seconds = sum(
        catalog.metadata_for(sit).build_seconds for sit in catalog
    )
    table = "customer"

    out: dict = {
        "scale": scale,
        "sits": len(catalog),
        "initial_build_ms": build_seconds * 1000.0,
        "invalidated_table": table,
    }
    runs = max(3, repeats // 3)
    best = float("inf")
    for _ in range(runs):
        catalog.notify_table_update(table)
        started = time.perf_counter()
        report = catalog.refresh()
        best = min(best, time.perf_counter() - started)
    out["full"] = {
        "refresh_ms": best * 1000.0,
        "rebuilt": len(report.rebuilt),
        "kept": len(report.kept),
        "dropped": len(report.dropped),
    }
    out["refresh_vs_build_pct"] = (
        out["full"]["refresh_ms"] / (build_seconds * 1000.0) * 100.0
    )
    return out


def _micro_histograms(buckets: int = 200, size: int = 60_000):
    rng = np.random.default_rng(7)
    skewed = rng.zipf(1.3, size=size).clip(max=50_000).astype(float)
    normal = np.floor(rng.normal(25_000.0, 8_000.0, size=size)).clip(0, 50_000)
    return (
        build_maxdiff(skewed, max_buckets=buckets),
        build_maxdiff(normal, max_buckets=buckets),
    )


def bench_histogram_ops(repeats: int) -> dict:
    left, right = _micro_histograms()
    cases = {
        "histogram_join": (
            lambda: join_histograms_reference(left, right),
            lambda: join_histograms(left, right),
        ),
        "variation_distance": (
            lambda: variation_distance_reference(left, right),
            lambda: variation_distance(left, right),
        ),
    }
    out = {
        "buckets": (left.bucket_count, right.bucket_count),
    }
    for name, (reference, vectorized) in cases.items():
        reference_s = best_of(reference, max(3, repeats // 3))
        vectorized_s = best_of(vectorized, repeats)
        out[name] = {
            "reference_ms": reference_s * 1000.0,
            "vectorized_ms": vectorized_s * 1000.0,
            "speedup": reference_s / vectorized_s,
        }
    return out


# ----------------------------------------------------------------------
def run(recorded: dict | None = None, repeats: int = 9) -> dict:
    """Run every core benchmark; returns the blocks and their gates."""
    result = {
        "meta": {"repeats": repeats},
        "get_selectivity": {
            f"n{size}": bench_get_selectivity(size, repeats)
            for size in PREDICATE_COUNTS
        },
        "histograms": bench_histogram_ops(repeats),
        "observability": {
            "n7_tracing": bench_tracing_overhead(7, repeats),
        },
        "catalog": bench_catalog_refresh(repeats),
    }
    result["gates"] = gates(result)
    return result


def gates(result: dict) -> dict:
    """The acceptance numbers, read off the measured blocks."""
    return {
        # The harness's reset-per-query regime, recorded without a target:
        # the served steady state is the plan cache's replay.
        "n7_steady_speedup": result["get_selectivity"]["n7"]["steady_speedup"],
        # A fresh instance answering once: the bitmask engine prices every
        # (P', Q) on masks and builds a match only for a winner, the
        # oracle builds one per pair.  A same-run ratio, so host speed
        # cancels.
        **{
            f"{key}_cold_speedup": row["cold_speedup"]
            for key, row in result["get_selectivity"].items()
        },
        "cold_target": 1.5,
        "histogram_join_speedup": result["histograms"]["histogram_join"][
            "speedup"
        ],
        "variation_distance_speedup": result["histograms"][
            "variation_distance"
        ]["speedup"],
        "histogram_target": 5.0,
        # Observability acceptance: the production configuration (tracing
        # disabled) must stay within 5% of the pre-observability steady
        # baseline; the same-run enabled overhead is recorded alongside.
        "n7_tracing_enabled_overhead_pct": result["observability"][
            "n7_tracing"
        ]["enabled_overhead_pct"],
        # Lifecycle acceptance: an incremental refresh after one table
        # update must be strictly cheaper than rebuilding the catalog
        # (only the stale SITs are re-executed).
        "catalog_refresh_vs_build_pct": result["catalog"][
            "refresh_vs_build_pct"
        ],
    }


def passed(result: dict) -> bool:
    """The gate the runner's exit code carries: every cold speedup at or
    over ``cold_target`` (the timing gates are read off the file)."""
    found = result["gates"]
    return all(
        value >= found["cold_target"]
        for name, value in found.items()
        if name.endswith("_cold_speedup")
    )


def render(result: dict) -> str:
    lines = ["core DP (getSelectivity), legacy vs bitmask:"]
    for key, row in result["get_selectivity"].items():
        lines.append(
            f"  {key}: cold {row['legacy']['cold_ms']:8.2f} -> "
            f"{row['bitmask']['cold_ms']:8.2f} ms ({row['cold_speedup']:5.1f}x)   "
            f"steady {row['legacy']['steady_ms']:8.2f} -> "
            f"{row['bitmask']['steady_ms']:8.2f} ms ({row['steady_speedup']:5.1f}x)"
        )
    lines.append("histogram algebra, reference vs vectorized:")
    for name in ("histogram_join", "variation_distance"):
        row = result["histograms"][name]
        lines.append(
            f"  {name}: {row['reference_ms']:8.2f} -> "
            f"{row['vectorized_ms']:8.2f} ms ({row['speedup']:5.1f}x)"
        )
    tracing = result["observability"]["n7_tracing"]
    lines.append(
        "observability (bitmask n7 steady): "
        f"disabled {tracing['disabled_ms']:.3f} ms, "
        f"enabled {tracing['enabled_ms']:.3f} ms "
        f"({tracing['enabled_overhead_pct']:+.1f}%)"
    )
    catalog = result["catalog"]
    lines.append(
        f"catalog refresh ({catalog['sits']} SITs, "
        f"stale table {catalog['invalidated_table']!r}): "
        f"full {catalog['full']['refresh_ms']:.1f} ms "
        f"(rebuilt {catalog['full']['rebuilt']}, "
        f"kept {catalog['full']['kept']}); "
        f"{catalog['refresh_vs_build_pct']:.0f}% of a cold build"
    )
    return "\n".join(lines)
