"""IngestConfig: validation and dict round-trips."""

from __future__ import annotations

import pytest

from repro.ingest import IngestConfig


class TestIngestConfig:
    def test_defaults_are_valid(self):
        config = IngestConfig()
        assert config.queue_depth == 1024

    def test_round_trip(self):
        config = IngestConfig(
            queue_depth=16,
            coalesce_window_s=0.5,
            max_batch=4,
        )
        assert IngestConfig.from_dict(config.to_dict()) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown IngestConfig keys"):
            IngestConfig.from_dict({"queue_depth": 8, "typo": 1})

    def test_the_removed_apply_retries_is_rejected_by_name(self):
        """An epoch is applied once, so there is no retry budget left to
        configure."""
        with pytest.raises(ValueError, match=r"\['apply_retries'\]"):
            IngestConfig.from_dict({"apply_retries": 3})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"queue_depth": 0},
            {"coalesce_window_s": -0.1},
            {"max_batch": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IngestConfig(**kwargs)
