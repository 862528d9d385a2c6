"""Tunables of the streaming-ingestion pipeline.

:class:`IngestConfig` is built like :class:`repro.service.ServiceConfig`:
a frozen dataclass that validates in ``__post_init__``, where a keyword
that is not a field is a ``TypeError`` naming it.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.coalesce_window_s < 0:
            raise ValueError("coalesce_window_s must be >= 0")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
