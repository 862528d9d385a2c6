"""Tunables of the streaming-ingestion pipeline.

:class:`IngestConfig` follows the layered-config contract of
:mod:`repro.service.config`: a frozen dataclass that validates in
``__post_init__`` and round-trips through ``from_dict`` / ``to_dict``
with unknown keys rejected, so an ingestion deployment fits in the same
JSON document as the service layers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from typing import Any, Mapping

__all__ = ["IngestConfig"]


@dataclass(frozen=True)
class IngestConfig:
    """Knobs of one :class:`repro.ingest.IngestPipeline`."""

    #: bounded admission: update events queued before producers are shed
    #: with a typed :class:`~repro.ingest.pipeline.IngestOverloaded`
    queue_depth: int = 1024
    #: how long one drain cycle lingers to coalesce rapid updates to the
    #: same table into a single invalidation epoch; a ``flush()`` ends
    #: the linger once every event admitted before it has been taken
    coalesce_window_s: float = 0.02
    #: most events folded into one drain cycle
    max_batch: int = 256
    #: attempts to apply one coalesced epoch per drain cycle before the
    #: epoch is re-queued into the next cycle (it is never dropped —
    #: bounded retries keep the apply loop from spinning on a hot fault)
    apply_retries: int = 3
    #: measure estimate drift on every Nth applied epoch (0 disables the
    #: probe sub-stream)
    drift_every: int = 0

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.coalesce_window_s < 0:
            raise ValueError("coalesce_window_s must be >= 0")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.apply_retries < 1:
            raise ValueError("apply_retries must be >= 1")
        if self.drift_every < 0:
            raise ValueError("drift_every must be >= 0 (0 disables)")

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "IngestConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown IngestConfig keys: {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(**dict(data))
