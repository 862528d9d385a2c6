"""Tunables of the estimation-serving subsystem.

One frozen dataclass, :class:`ServiceConfig`: the request path of one
:class:`~repro.service.EstimationService` (workers, queue, batching,
deadlines, backend).  It validates in ``__post_init__``; a keyword that
is not a field is a ``TypeError`` naming it.  Where the server listens
is no field: ``host`` and ``port`` are arguments of
:func:`~repro.service.run_server` and
:func:`~repro.service.start_in_thread`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one :class:`repro.service.EstimationService`.

    The defaults target an interactive optimizer inner loop: no timer
    on the request path (a free worker serves what is queued at once), a
    queue deep enough to ride out bursts, and explicit load shedding
    rather than unbounded buffering.
    """

    #: worker threads; each owns a snapshot-pinned
    #: :class:`~repro.catalog.EstimationSession`
    workers: int = 2
    #: admission-queue depth; a submit beyond this is shed with
    #: :class:`~repro.service.protocol.Overloaded`
    queue_depth: int = 256
    #: the most requests one micro-batch may carry (a batch is whatever
    #: is queued when a worker becomes free, never waited for)
    max_batch: int = 32
    #: default per-request deadline (seconds; ``None`` = no deadline)
    default_timeout_s: float | None = None
    #: seconds :meth:`EstimationService.close` waits for a graceful
    #: drain before abandoning the remaining queue
    drain_timeout_s: float = 30.0
    #: estimation backend worker sessions are built with
    #: (:data:`repro.estimators.BACKENDS`: ``"sit"``, ``"bn"``,
    #: ``"sample"``)
    backend: str = "sit"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.default_timeout_s is not None and self.default_timeout_s <= 0:
            raise ValueError("default_timeout_s must be > 0 (or None)")
        if self.drain_timeout_s < 0:
            raise ValueError("drain_timeout_s must be >= 0")
        from repro.estimators import BACKENDS

        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )

    @property
    def batch_window_s(self) -> float:
        """Seconds a lone request waits on a timer: ``0.0``, and not a
        knob — batches form from the backlog (DESIGN.md §11).  Read-only,
        for callers that subtract timer idle time from a measurement."""
        return 0.0


__all__ = ["ServiceConfig"]
