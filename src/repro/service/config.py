"""Tunables of the estimation-serving subsystem, layered by concern.

The kwarg sprawl of the original flat ``ServiceConfig`` is split into
composable frozen dataclasses:

* :class:`ServiceConfig` — the request path of one
  :class:`~repro.service.EstimationService` (workers, queue, batching,
  deadlines, bind address);
* :class:`HealingConfig` — the self-healing knobs from
  :mod:`repro.resilience` (circuit breaker, requeue and restart
  budgets), nested as ``ServiceConfig.healing``;
* :class:`repro.advisor.AdvisorConfig` — the self-tuning loop
  (:mod:`repro.advisor`), nested as ``ServiceConfig.advisor`` (``None``
  disables tuning).

Every layer validates in ``__post_init__`` and round-trips through
``from_dict`` / ``to_dict`` so a whole deployment fits in one JSON file
(``python -m repro serve --config service.json``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from repro.advisor.config import AdvisorConfig


@dataclass(frozen=True)
class HealingConfig:
    """Self-healing knobs of one service (:mod:`repro.resilience`)."""

    #: worker faults on one snapshot version inside ``breaker_window_s``
    #: before the circuit breaker trips and the service rolls back to
    #: the last-known-good snapshot
    breaker_threshold: int = 3
    #: sliding fault window of the circuit breaker (seconds)
    breaker_window_s: float = 30.0
    #: how many times a request orphaned by a worker crash is re-queued
    #: before it is failed with a typed error
    requeue_limit: int = 2
    #: crashed-worker resurrections before the service stops respawning
    #: (bounds a crash loop; remaining work is flushed on close)
    max_worker_restarts: int = 8

    def __post_init__(self) -> None:
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_window_s <= 0:
            raise ValueError("breaker_window_s must be > 0")
        if self.requeue_limit < 0:
            raise ValueError("requeue_limit must be >= 0")
        if self.max_worker_restarts < 0:
            raise ValueError("max_worker_restarts must be >= 0")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HealingConfig":
        return cls(**_known_fields(cls, data))


def _known_fields(cls, data: Mapping[str, Any]) -> dict:
    names = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {unknown}")
    return dict(data)


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one :class:`repro.service.EstimationService`.

    The defaults target an interactive optimizer inner loop: no timer
    on the request path (a free worker serves what is queued at once), a
    queue deep enough to ride out bursts, and explicit load shedding
    rather than unbounded buffering.
    Self-healing knobs live in :attr:`healing`.
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
    #: server bind address for the JSON-lines front-end
    host: str = "127.0.0.1"
    #: server port (0 = ephemeral, the bound port is reported)
    port: int = 8642
    #: estimation backend worker sessions are built with
    #: (:data:`repro.estimators.BACKENDS`: ``"sit"``, ``"bn"``,
    #: ``"sample"``)
    backend: str = "sit"
    #: self-healing layer (:mod:`repro.resilience`)
    healing: HealingConfig = field(default_factory=HealingConfig)
    #: self-tuning loop (:mod:`repro.advisor`): when set, the service
    #: collects per-query feedback and runs safety-gated configuration
    #: ticks between batches; ``None`` disables tuning
    advisor: AdvisorConfig | None = None

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
        if not self.host:
            raise ValueError("host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in [0, 65535]")
        from repro.estimators import BACKENDS

        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if not isinstance(self.healing, HealingConfig):
            raise TypeError("healing must be a HealingConfig")
        if self.advisor is not None and not isinstance(
            self.advisor, AdvisorConfig
        ):
            raise TypeError("advisor must be an AdvisorConfig or None")

    @property
    def batch_window_s(self) -> float:
        """Seconds a lone request waits on a timer: ``0.0``, and not a
        knob — batches form from the backlog (DESIGN.md §9).  Read-only,
        for callers that subtract timer idle time from a measurement."""
        return 0.0

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready nested form; ``from_dict`` round-trips it."""
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "healing":
                out[f.name] = value.to_dict()
            elif f.name == "advisor":
                out[f.name] = None if value is None else value.to_dict()
            else:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServiceConfig":
        """Build a config from its nested-dict form."""
        data = dict(data)
        healing = data.pop("healing", None)
        if isinstance(healing, Mapping):
            healing = HealingConfig.from_dict(healing)
        advisor = data.pop("advisor", None)
        if isinstance(advisor, Mapping):
            advisor = AdvisorConfig.from_dict(advisor)
        kwargs = _known_fields(cls, data)
        if healing is not None:
            kwargs["healing"] = healing
        if advisor is not None:
            kwargs["advisor"] = advisor
        return cls(**kwargs)


__all__ = ["HealingConfig", "ServiceConfig"]
