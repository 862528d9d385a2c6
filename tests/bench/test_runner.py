"""``python -m repro.bench``: one writer that merges, one ``meta``."""

from __future__ import annotations

import json

from repro.bench.__main__ import SUITES, main, merge


def test_second_suite_keeps_the_first_suites_blocks(tmp_path):
    output = tmp_path / "gates.json"
    merge(output, "alpha", {"alpha": {"x": 1.0}, "meta": {"repeats": 3}})
    merge(output, "beta", {"beta": {"y": 2.0}, "gates": {"y_ok": True}})
    recorded = json.loads(output.read_text())
    assert recorded["alpha"] == {"x": 1.0}
    assert recorded["beta"] == {"y": 2.0}
    assert recorded["gates"] == {"y_ok": True}
    # one meta for the file: an entry per suite, the suite's own
    # parameters filed under its entry
    assert set(recorded) == {"alpha", "beta", "gates", "meta"}
    assert set(recorded["meta"]) == {"suites"}
    assert set(recorded["meta"]["suites"]) == {"alpha", "beta"}
    assert recorded["meta"]["suites"]["alpha"]["repeats"] == 3
    assert "python" in recorded["meta"]["suites"]["beta"]


def test_rerunning_a_suite_replaces_only_its_own_blocks(tmp_path):
    output = tmp_path / "gates.json"
    merge(output, "alpha", {"alpha": {"x": 1.0}})
    merge(output, "beta", {"beta": {"y": 2.0}})
    merge(output, "alpha", {"alpha": {"x": 3.0}})
    recorded = json.loads(output.read_text())
    assert recorded["alpha"] == {"x": 3.0}
    assert recorded["beta"] == {"y": 2.0}


def test_suite_run_merges_into_an_existing_file(tmp_path, capsys):
    output = tmp_path / "gates.json"
    merge(output, "core", {"gates": {"n7_steady_speedup": 9.0}})
    assert main(["ingest", str(output)]) == 0
    recorded = json.loads(output.read_text())
    assert recorded["gates"] == {"n7_steady_speedup": 9.0}
    ingest = recorded["ingest"]
    assert ingest["gates"]["conservation_ok"] is True
    assert (
        ingest["invalidation"]["accepted_events"]
        + ingest["invalidation"]["shed_events"]
        == ingest["invalidation"]["offered_events"]
    )
    assert set(recorded["meta"]["suites"]) == {"core", "ingest"}
    assert "events/s" in capsys.readouterr().out


def test_no_argument_lists_the_suites(capsys):
    assert main([]) == 0
    listing = capsys.readouterr().out
    for name in SUITES:
        assert name in listing


def test_unknown_suite_is_refused_before_anything_runs(tmp_path, capsys):
    output = tmp_path / "gates.json"
    assert main(["ingest", "nope", str(output)]) == 2
    assert not output.exists()
    assert "unknown suite 'nope'" in capsys.readouterr().err


def test_committed_core_gates_are_the_suites_own():
    """The committed gate file holds exactly the gates the ``core`` suite
    derives from its own recorded blocks (CI reads these keys; a renamed
    one silently un-gates)."""
    import pathlib

    from repro.bench.suites.core import gates

    gate_file = pathlib.Path(__file__).parents[2] / "BENCH_core.json"
    recorded = json.loads(gate_file.read_text())
    assert gates(recorded) == recorded["gates"]


def test_core_exit_code_gates_the_cold_speedups():
    from repro.bench.suites.core import passed

    assert passed({"gates": {"n5_cold_speedup": 2.0, "cold_target": 1.5}})
    assert not passed({"gates": {"n5_cold_speedup": 1.4, "cold_target": 1.5}})
