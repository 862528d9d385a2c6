"""Layered configuration: per-layer validation (the bugfix — the old
flat config silently accepted nonsense knobs), from_dict/to_dict round
trips."""

from __future__ import annotations

import json
import re

import pytest

from repro.advisor import AdvisorConfig
from repro.service import HealingConfig, ServiceConfig


class TestServiceValidation:
    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("workers", 0),
            ("queue_depth", 0),
            ("max_batch", 0),
            ("default_timeout_s", 0.0),
            ("drain_timeout_s", -1.0),
            ("host", ""),
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

    def test_nested_layers_are_type_checked(self):
        with pytest.raises(TypeError, match="healing"):
            ServiceConfig(healing={"breaker_threshold": 3})
        with pytest.raises(TypeError, match="advisor"):
            ServiceConfig(advisor={"max_q_error": 10.0})


class TestHealingValidation:
    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("breaker_threshold", 0),
            ("breaker_window_s", 0.0),
            ("requeue_limit", -1),
            ("max_worker_restarts", -1),
        ],
    )
    def test_rejects_bad_knob(self, field, value):
        with pytest.raises(ValueError, match=field):
            HealingConfig(**{field: value})


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
        config = ServiceConfig(
            workers=4,
            healing=HealingConfig(breaker_threshold=5, requeue_limit=0),
            advisor=AdvisorConfig(max_q_error=50.0),
        )
        # through actual JSON, not just dicts: the serve --config path
        restored = ServiceConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert restored == config
        assert restored.advisor.max_q_error == 50.0
        assert restored.healing.breaker_threshold == 5

    def test_unknown_keys_are_rejected_per_layer(self):
        with pytest.raises(ValueError, match="unknown ServiceConfig"):
            ServiceConfig.from_dict({"wrokers": 2})
        with pytest.raises(ValueError, match="unknown HealingConfig"):
            ServiceConfig.from_dict({"healing": {"threshold": 3}})
        with pytest.raises(ValueError, match="unknown AdvisorConfig"):
            ServiceConfig.from_dict({"advisor": {"max_qerror": 3}})

    def test_nested_validation_fires_through_from_dict(self):
        with pytest.raises(ValueError, match="breaker_threshold"):
            ServiceConfig.from_dict({"healing": {"breaker_threshold": 0}})


class TestLegacyShims:
    def test_modern_spelling_is_warning_free(self, recwarn):
        config = ServiceConfig(
            healing=HealingConfig(breaker_threshold=5),
            advisor=AdvisorConfig(),
        )
        ServiceConfig.from_dict(config.to_dict())
        assert not [
            w
            for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]
