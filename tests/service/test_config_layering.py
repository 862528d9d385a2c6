"""Layered configuration: per-layer validation (the bugfix — the old
flat config silently accepted nonsense knobs), from_dict/to_dict round
trips."""

from __future__ import annotations

import json

import pytest

from repro.service import ClusterConfig, HealingConfig, ServiceConfig


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

    def test_nested_layers_are_type_checked(self):
        with pytest.raises(TypeError, match="healing"):
            ServiceConfig(healing={"breaker_threshold": 3})
        with pytest.raises(TypeError, match="cluster"):
            ServiceConfig(cluster={"shards": 2})


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


class TestClusterValidation:
    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("shards", 0),
            ("ring_points", 0),
            ("shard_workers", 0),
        ],
    )
    def test_rejects_bad_knob(self, field, value):
        with pytest.raises(ValueError, match=field):
            ClusterConfig(**{field: value})


@pytest.mark.parametrize(
    "field", ["hedge_factor", "min_hedge_delay_s", "startup_timeout_s"]
)
def test_router_constants_are_no_config_keys(field):
    """Nobody set these: they are constants in ``cluster/router.py``, and
    a config file still naming one is rejected, not ignored."""
    with pytest.raises(ValueError, match=field):
        ClusterConfig.from_dict({field: 1.0})


@pytest.mark.parametrize(
    "field",
    ["replicas", "hedge_delay_s", "breaker_threshold", "breaker_window_s"],
)
def test_removed_cluster_keys_are_unknown(field):
    """Hedging, replicas and the per-shard breaker are gone: a
    deployment file still naming one fails loudly."""
    with pytest.raises(ValueError, match="unknown ClusterConfig keys"):
        ServiceConfig.from_dict({"cluster": {"shards": 2, field: 1}})


class TestRoundTrip:
    def test_defaults_round_trip(self):
        config = ServiceConfig()
        assert ServiceConfig.from_dict(config.to_dict()) == config

    def test_full_cluster_deployment_fits_in_one_json_file(self):
        config = ServiceConfig(
            workers=4,
            healing=HealingConfig(breaker_threshold=5, requeue_limit=0),
            cluster=ClusterConfig(
                shards=4, ring_points=128, max_held_requests=64
            ),
        )
        # through actual JSON, not just dicts: the serve --config path
        restored = ServiceConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert restored == config
        assert restored.cluster.max_held_requests == 64
        assert restored.healing.breaker_threshold == 5

    def test_null_cluster_round_trips_to_none(self):
        data = ServiceConfig().to_dict()
        assert data["cluster"] is None
        assert ServiceConfig.from_dict(data).cluster is None

    def test_unknown_keys_are_rejected_per_layer(self):
        with pytest.raises(ValueError, match="unknown ServiceConfig"):
            ServiceConfig.from_dict({"wrokers": 2})
        with pytest.raises(ValueError, match="unknown HealingConfig"):
            ServiceConfig.from_dict({"healing": {"threshold": 3}})
        with pytest.raises(ValueError, match="unknown ClusterConfig"):
            ServiceConfig.from_dict({"cluster": {"shard": 2}})

    def test_nested_validation_fires_through_from_dict(self):
        with pytest.raises(ValueError, match="shards"):
            ServiceConfig.from_dict({"cluster": {"shards": 0}})


class TestLegacyShims:
    def test_modern_spelling_is_warning_free(self, recwarn):
        config = ServiceConfig(
            healing=HealingConfig(breaker_threshold=5),
            cluster=ClusterConfig(shards=2),
        )
        ServiceConfig.from_dict(config.to_dict())
        assert not [
            w
            for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]
