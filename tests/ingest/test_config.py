"""IngestConfig: defaults and validation."""

from __future__ import annotations

import pytest

from repro.ingest import IngestConfig


class TestIngestConfig:
    def test_defaults_are_valid(self):
        config = IngestConfig()
        assert config.queue_depth == 1024

    def test_unknown_keys_rejected(self):
        with pytest.raises(TypeError, match="'typo'"):
            IngestConfig(queue_depth=8, typo=1)

    def test_the_removed_apply_retries_is_rejected_by_name(self):
        """An epoch is applied once, so there is no retry budget left to
        configure."""
        with pytest.raises(TypeError, match="'apply_retries'"):
            IngestConfig(apply_retries=3)
        assert not hasattr(IngestConfig(), "apply_retries")

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
