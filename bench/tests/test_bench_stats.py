"""Percentiles, and that every reported one has samples beyond it."""

import pytest

from bench import inputs, runner, spec, workloads, yardstick
from bench.stats import percentile, quartile_spread, rank_of, samples_beyond, typical


def test_percentile_is_a_measured_value():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0.5) == 3.0
    assert percentile(values, 0.95) == 5.0
    assert percentile(values, 0.0) == 1.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_samples_beyond_counts_what_lies_above_the_rank():
    assert rank_of(0.95, 216) == 205
    assert samples_beyond(0.95, 216) == 10
    assert samples_beyond(0.95, 20) == 0


def test_quartile_spread_matches_the_drivers_definition():
    assert quartile_spread([1.0] * 10) == 0.0
    assert quartile_spread(list(range(1, 11))) == pytest.approx(5.5 / 5.5)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_ten_samples_beyond_p95_on_every_workload(name):
    cls = workloads.WORKLOADS[name]
    templates = sum(count for _, _, count in cls.template_classes)
    per_pass = {
        "replay_hot": templates * inputs.REPLAY_VARIANTS,
        "cold_shapes": templates,
        # one sample is a round trip of ``TCP_BATCH`` estimates
        "serve_tcp": templates * inputs.REPLAY_VARIANTS // workloads.TCP_BATCH,
        "write_storm": templates * workloads.STORM_ROUNDS,
    }[name]
    for passes in (cls.passes, runner.MIN_PASSES):
        assert samples_beyond(0.95, per_pass * passes) >= 10
    # no percentile on the edge of a template's cluster of latencies
    assert templates % 2 == 1


def test_typical_is_taken_per_piece_of_work():
    repeats = [[1.0, 20.0], [3.0, 10.0], [2.0, 40.0]]
    assert typical(repeats) == [2.0, 20.0]
    with pytest.raises(ValueError):
        typical([[1.0, 2.0], [1.0]])


def test_normalised_scales_busy_time_only():
    slow = 2 * yardstick.REFERENCE_NOMINAL_S
    assert yardstick.normalised(0.010, slow) == pytest.approx(0.005)
    assert yardstick.normalised(0.010, slow, idle_s=0.002) == pytest.approx(0.002 + 0.004)
    assert yardstick.normalised(0.001, slow, idle_s=0.002) == pytest.approx(0.001)


def test_passes_are_a_function_of_seconds_alone():
    cls = workloads.WORKLOADS["replay_hot"]
    assert runner.passes_for(cls, spec.RUN_SECONDS) == cls.passes
    assert runner.passes_for(cls, spec.RUN_SECONDS / 2) == cls.passes // 2
    assert runner.passes_for(cls, 0.0) == runner.MIN_PASSES
