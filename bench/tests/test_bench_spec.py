"""``BENCHMARK.json`` and the runner agree, name for name."""

import json

import pytest

from bench import BENCH_DIR, ROOT, repeat, spec


def test_benchmark_json_is_the_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()


def test_spec_stays_inside_the_contract():
    document = spec.benchmark_json()
    assert set(document) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(document["workloads"]) <= 8
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in document["end_to_end"])  # fmt: skip
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in document["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])
    names = [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    names += [w["name"] for w in document["workloads"]]
    assert len(names) == len(set(names))
    assert len(document["per_layer"]) <= 128


@pytest.mark.parametrize("trace", [False, True])
def test_runner_emits_exactly_the_declared_names(trace):
    result = repeat.run_measure("replay_hot", seed=3, seconds=1.0, trace=trace)
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result["metrics"]) == [m.name for m in declared]
    assert {m.name: m.unit for m in declared} == {n: v["unit"] for n, v in result["metrics"].items()}
    assert set(result) == {"correct", "attempted", "failed", "metrics", "exit_code"}
    assert result["correct"] and result["failed"] == 0 and result["exit_code"] == 0


def test_committed_repeat_table_is_within_the_bounds():
    """What the driver demands of two sets of runs of the same code, on
    the table committed with the bounds: every quartile spread (set-up
    excepted) and every set-to-set difference within its metric's bound."""
    record = json.loads((BENCH_DIR / "repeat-table.json").read_text())
    bounds = {m.name: m.bound for m in spec.END_TO_END}
    assert {row["workload"] for row in record["table"]} == set(spec.WORKLOADS)
    for row in record["table"]:
        assert row["bound"] == bounds[row["metric"]]
        assert row["worse_by"] <= row["bound"]
        if row["metric"] != "setup_s":
            assert max(row["spreads"]) <= row["bound"]
