"""Core-DP and histogram-kernel speedup benchmark (bitmask vs. seed).

Runs the runner's ``core`` suite (:mod:`repro.bench.suites.core`) —
legacy (frozenset DP + loop kernels, the seed configuration) against
the bitmask DP + vectorized kernels — and asserts on the blocks it
returns.  The assertions are deliberately conservative (well under the
measured speedups) so the benchmark is robust to noisy machines; the
acceptance numbers live in ``BENCH_core.json``, which only
``python -m repro.bench core`` writes.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_core_dp.py -q
"""

from __future__ import annotations

import pytest

from repro.bench.suites import core as perf


@pytest.fixture(scope="module")
def perf_result():
    return perf.run(repeats=7)


def test_dp_steady_state_speedup(perf_result, write_result):
    """Reset-per-query regime (the optimizer inner loop): the bitmask DP
    must comfortably beat the seed on every workload size."""
    rows = perf_result["get_selectivity"]
    for key, row in rows.items():
        assert row["steady_speedup"] >= 2.0, (key, row["steady_speedup"])
    gates = perf_result["gates"]
    assert gates["n7_steady_speedup"] >= gates["n7_steady_target"]
    write_result("core_dp", perf.render(perf_result))


def test_dp_cold_speedup(perf_result):
    """A fresh-instance call: the bitmask DP prices every (P', Q) on
    masks and builds a match only for a winner, the oracle one per pair."""
    assert perf.passed(perf_result), perf_result["gates"]


def test_histogram_kernel_speedups(perf_result):
    histograms = perf_result["histograms"]
    assert histograms["histogram_join"]["speedup"] >= 3.0
    assert histograms["variation_distance"]["speedup"] >= 5.0


def test_results_are_identical_across_paths(perf_result):
    """The benchmark must compare equal work: both paths answer the same
    query with the same selectivity (parity is exhaustively tested in
    tests/core/test_bitmask_parity.py; this is the bench-level guard)."""
    from repro.core.errors import NIndError
    from repro.core.get_selectivity import GetSelectivity

    for size in perf.PREDICATE_COUNTS:
        predicates, pool = perf.build_scenario(size)
        fast = GetSelectivity.create(pool, NIndError(), engine="bitmask")(
            predicates
        )
        oracle = GetSelectivity.create(pool, NIndError(), engine="legacy")(
            predicates
        )
        assert fast.selectivity == oracle.selectivity
        assert fast.error == oracle.error
        assert fast.decomposition == oracle.decomposition


def test_tracing_overhead_disabled_configuration(perf_result):
    """The observability layer's production configuration (tracing
    disabled) must stay in the same ballpark as the untraced steady
    run; the per-run acceptance number (<=5% vs. the pre-observability
    baseline) is recorded in ``BENCH_core.json``'s observability block.
    The bound here is conservative to tolerate noisy CI machines."""
    tracing = perf_result["observability"]["n7_tracing"]
    steady = perf_result["get_selectivity"]["n7"]["bitmask"]["steady_ms"]
    assert tracing["disabled_ms"] <= steady * 1.5
    # enabled tracing is allowed to cost more, but not pathologically so
    assert tracing["enabled_ms"] <= tracing["disabled_ms"] * 3.0
    assert tracing["trace_stage_ms"].get("dp_enumeration", 0.0) > 0.0


def test_fault_guard_overhead_and_parity(perf_result):
    """The resilience layer's production configuration (no plan armed)
    must stay in the same ballpark as the bare steady run, and an armed
    zero-fault plan must be bit-identical to it; the per-run <=5%
    acceptance number is recorded in ``BENCH_core.json``'s resilience
    block.  The bounds here are conservative for noisy CI machines."""
    guards = perf_result["resilience"]["n7_fault_guards"]
    assert guards["zero_fault_bit_identical"] is True
    steady = perf_result["get_selectivity"]["n7"]["bitmask"]["steady_ms"]
    assert guards["disarmed_ms"] <= steady * 1.5
    assert guards["armed_zero_fault_ms"] <= guards["disarmed_ms"] * 1.5
