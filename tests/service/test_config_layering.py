"""Service configuration: validation (the bugfix — the old config
silently accepted nonsense knobs), keys of deleted tiers refused by
name, from_dict/to_dict round trips of every field."""

from __future__ import annotations

import json
import re

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
            ("port", -1),
            ("port", 70000),
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
        with pytest.raises(ValueError, match="batch_window_s"):
            ServiceConfig.from_dict({"batch_window_s": 0.002})
        assert "batch_window_s" not in ServiceConfig().to_dict()
        with pytest.raises(SystemExit):
            main(["serve", "--batch-window-ms", "2"])
        assert "--batch-window-ms" in capsys.readouterr().err

    def test_plan_cache_is_no_knob(self):
        """A plan-stable error function is served through the plan
        cache and any other is not: there is nothing to switch, and a
        config file still naming the old switch fails loudly."""
        with pytest.raises(ValueError, match="unknown ServiceConfig keys"):
            ServiceConfig.from_dict({"plan_cache": False})
        with pytest.raises(TypeError, match="plan_cache"):
            ServiceConfig(plan_cache=False)
        assert "plan_cache" not in ServiceConfig().to_dict()

    def test_advisor_is_no_knob(self):
        with pytest.raises(TypeError, match="advisor"):
            ServiceConfig(advisor=None)
        assert "advisor" not in ServiceConfig().to_dict()


@pytest.mark.parametrize(
    "block", [None, {}, {"max_q_error": 10.0, "min_feedback": 8}],
    ids=["null", "empty", "tuned"],
)
def test_removed_advisor_block_is_unknown(block):
    """The self-tuning advisor is gone: a deployment file that still has
    an ``advisor`` block — or the ``"advisor": null`` an older
    ``to_dict`` wrote — is refused by name, neither dropped nor
    accepted."""
    with pytest.raises(
        ValueError, match=re.escape("unknown ServiceConfig keys: ['advisor']")
    ):
        ServiceConfig.from_dict({"workers": 2, "advisor": block})


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
    deployment file that still has a ``cluster`` block, whatever it
    holds, fails loudly instead of being served single-process."""
    with pytest.raises(
        ValueError, match=re.escape("unknown ServiceConfig keys: ['cluster']")
    ):
        ServiceConfig.from_dict({"cluster": {field: 1}})


@pytest.mark.parametrize(
    "field", ["hedge_factor", "min_hedge_delay_s", "startup_timeout_s"]
)
def test_router_constants_are_no_config_keys(field):
    """Nobody set these: they were constants of the deleted cluster
    router, and a config file still naming one is rejected, not
    ignored."""
    with pytest.raises(ValueError, match=field):
        ServiceConfig.from_dict({field: 1.0})


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
    a deployment file that still has a ``healing`` block is rejected by
    name, not served without one."""
    with pytest.raises(
        ValueError, match=re.escape("unknown ServiceConfig keys: ['healing']")
    ):
        ServiceConfig.from_dict({"healing": {field: 1}})


def test_healing_is_no_knob():
    with pytest.raises(TypeError, match="healing"):
        ServiceConfig(healing=None)
    assert "healing" not in ServiceConfig().to_dict()


def test_cluster_is_no_knob():
    with pytest.raises(TypeError, match="cluster"):
        ServiceConfig(cluster=None)
    assert "cluster" not in ServiceConfig().to_dict()
    with pytest.raises(ValueError, match="cluster"):
        ServiceConfig.from_dict({"cluster": None})


class TestRoundTrip:
    def test_defaults_round_trip(self):
        config = ServiceConfig()
        assert ServiceConfig.from_dict(config.to_dict()) == config

    def test_full_deployment_fits_in_one_json_file(self):
        """Every field, each off its default, survives a JSON round
        trip: through actual JSON, not just dicts."""
        config = ServiceConfig(
            workers=4,
            queue_depth=64,
            max_batch=8,
            default_timeout_s=1.5,
            drain_timeout_s=2.0,
            port=0,
            backend="bn",
        )
        payload = config.to_dict()
        defaults = ServiceConfig().to_dict()
        assert sorted(payload) == sorted(defaults)
        assert all(payload[key] != defaults[key] for key in payload)
        restored = ServiceConfig.from_dict(json.loads(json.dumps(payload)))
        assert restored == config
        assert restored.to_dict() == payload

    def test_unknown_keys_are_rejected(self):
        with pytest.raises(
            ValueError, match=re.escape("unknown ServiceConfig keys: ['wrokers']")
        ):
            ServiceConfig.from_dict({"wrokers": 2})

    def test_validation_fires_through_from_dict(self):
        with pytest.raises(ValueError, match="max_batch"):
            ServiceConfig.from_dict({"max_batch": 0})


class TestLegacyShims:
    def test_modern_spelling_is_warning_free(self, recwarn):
        config = ServiceConfig(workers=3)
        ServiceConfig.from_dict(config.to_dict())
        assert not [
            w
            for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]
