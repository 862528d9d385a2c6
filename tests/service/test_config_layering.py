"""Service configuration: validation (the bugfix — the old config
silently accepted nonsense knobs), and the fields of deleted tiers
refused by name."""

from __future__ import annotations

import pytest

from repro.service import ServiceConfig


class TestServiceValidation:
    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("workers", 0),
            ("queue_depth", 0),
            ("max_batch", 0),
            ("default_timeout_s", 0.0),
            ("drain_timeout_s", -1.0),
        ],
    )
    def test_rejects_bad_knob(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**{field: value})

    def test_zero_drain_timeout_is_legal(self):
        assert ServiceConfig(drain_timeout_s=0.0).drain_timeout_s == 0.0

    def test_batch_window_is_a_read_only_zero(self, capsys):
        """No timer on the request path, so no knob for one: the name
        stays readable (measurement code subtracts it as timer idle
        time) and says 0.0; every way of setting it is an error."""
        from repro.__main__ import main

        assert ServiceConfig().batch_window_s == 0.0
        with pytest.raises(TypeError, match="batch_window_s"):
            ServiceConfig(batch_window_s=0.002)
        with pytest.raises(SystemExit):
            main(["serve", "--batch-window-ms", "2"])
        assert "--batch-window-ms" in capsys.readouterr().err

    def test_plan_cache_is_no_knob(self):
        """A plan-stable error function is served through the plan
        cache and any other is not: there is nothing to switch, and a
        caller still naming the old switch fails loudly."""
        with pytest.raises(TypeError, match="plan_cache"):
            ServiceConfig(plan_cache=False)

    def test_advisor_is_no_knob(self):
        with pytest.raises(TypeError, match="advisor"):
            ServiceConfig(advisor=None)


@pytest.mark.parametrize(
    "block", [None, {}, {"max_q_error": 10.0, "min_feedback": 8}],
    ids=["null", "empty", "tuned"],
)
def test_removed_advisor_block_is_unknown(block):
    """The self-tuning advisor is gone: a caller that still passes an
    ``advisor`` block, whatever it holds, is refused by name, and the
    config it would have built has no such attribute."""
    with pytest.raises(TypeError, match="'advisor'"):
        ServiceConfig(workers=2, advisor=block)
    assert not hasattr(ServiceConfig(workers=2), "advisor")


@pytest.mark.parametrize(
    "field",
    [
        "shards",
        "shard_workers",
        "max_held_requests",
        "replicas",
        "ring_points",
        "hedge_delay_s",
        "breaker_threshold",
        "breaker_window_s",
    ],
)
def test_removed_cluster_keys_are_unknown(field):
    """The multi-process tier is gone, and its whole block with it: a
    ``cluster`` block, whatever it holds, and each of its knobs spelled
    flat fail loudly instead of being served single-process."""
    with pytest.raises(TypeError, match="'cluster'"):
        ServiceConfig(cluster={field: 1})
    with pytest.raises(TypeError, match=f"'{field}'"):
        ServiceConfig(**{field: 1})
    assert not hasattr(ServiceConfig(), field)


@pytest.mark.parametrize(
    "field", ["hedge_factor", "min_hedge_delay_s", "startup_timeout_s"]
)
def test_router_constants_are_no_config_keys(field):
    """Nobody set these: they were constants of the deleted cluster
    router, and a caller still naming one is rejected, not ignored."""
    with pytest.raises(TypeError, match=f"'{field}'"):
        ServiceConfig(**{field: 1.0})
    assert not hasattr(ServiceConfig(), field)


@pytest.mark.parametrize(
    "field",
    [
        "breaker_threshold",
        "breaker_window_s",
        "requeue_limit",
        "max_worker_restarts",
    ],
)
def test_removed_healing_keys_are_unknown(field):
    """The service's self-healing tier is gone, and its block with it:
    a ``healing`` block that still names one of its knobs is rejected
    by name, not served without one."""
    with pytest.raises(TypeError, match="'healing'"):
        ServiceConfig(healing={field: 1})
    assert not hasattr(ServiceConfig(), field)


def test_healing_is_no_knob():
    with pytest.raises(TypeError, match="healing"):
        ServiceConfig(healing=None)


def test_cluster_is_no_knob():
    with pytest.raises(TypeError, match="cluster"):
        ServiceConfig(cluster=None)


class TestLegacyShims:
    def test_modern_spelling_is_warning_free(self, recwarn):
        ServiceConfig(workers=3)
        assert not [
            w
            for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]
