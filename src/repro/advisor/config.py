"""Tunables of the self-tuning loop (:mod:`repro.advisor`).

:class:`AdvisorConfig` follows the layered-config pattern of
:mod:`repro.service.config`: a frozen dataclass that validates in
``__post_init__`` and round-trips through ``from_dict`` / ``to_dict``,
so a deployment file can carry an ``advisor`` block next to
``healing``.

The three *safety constraints* (the gate's hard bounds, verified on the
held-out safety split before any configuration change is applied):

``max_q_error``
    worst-case q-error the proposed configuration may show on the
    safety records;
``space_budget_bytes``
    bytes the proposed *conditioned* SITs may occupy (base histograms
    are always kept and not counted);
``refresh_budget_s``
    estimated seconds a full rebuild of the proposed conditioned SITs
    may cost (sum of recorded per-SIT build times).

This module is import-light by design (standard library only) so the
service layer can nest the config without pulling the tuning loop in.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from typing import Any, Mapping


@dataclass(frozen=True)
class AdvisorConfig:
    """Knobs of one :class:`~repro.advisor.loop.SelfTuningAdvisor`."""

    #: safety bound: worst-case q-error on the safety split
    max_q_error: float = 25.0
    #: safety budget: bytes of conditioned-SIT histograms (``None`` =
    #: unbounded)
    space_budget_bytes: float | None = None
    #: safety budget: estimated rebuild seconds of the proposed
    #: conditioned SITs (``None`` = unbounded)
    refresh_budget_s: float | None = None
    #: feedback records required before a tuning tick runs
    min_feedback: int = 8
    #: fraction of feedback records hashed into the held-out safety
    #: split (the rest form the candidate/search split)
    safety_fraction: float = 0.3
    #: seed of the deterministic candidate/safety hash split
    split_seed: int = 7
    #: greedy-search move budget (configuration evaluations per tick)
    max_moves: int = 24
    #: capacity of the feedback store: served records kept (oldest
    #: dropped past it) and truth entries kept (least recently used
    #: evicted past it)
    log_capacity: int = 1024
    #: seconds between background tuning ticks (the service-side rate
    #: limit; 0 ticks as often as batches allow)
    min_interval_s: float = 1.0
    #: feedback-drift trigger: a tick also becomes ready *before*
    #: ``min_interval_s`` elapses when the rolling median estimated
    #: cardinality of recent feedback shifts from the last tick's
    #: baseline by at least this factor (``None`` disables the trigger;
    #: must be >= 1 when set)
    drift_threshold: float | None = None

    def __post_init__(self) -> None:
        if self.max_q_error < 0:
            raise ValueError("max_q_error must be >= 0")
        if self.space_budget_bytes is not None and self.space_budget_bytes < 0:
            raise ValueError("space_budget_bytes must be >= 0 (or None)")
        if self.refresh_budget_s is not None and self.refresh_budget_s < 0:
            raise ValueError("refresh_budget_s must be >= 0 (or None)")
        if self.min_feedback < 1:
            raise ValueError("min_feedback must be >= 1")
        if not 0.0 < self.safety_fraction < 1.0:
            raise ValueError("safety_fraction must be in (0, 1)")
        if self.max_moves < 1:
            raise ValueError("max_moves must be >= 1")
        if self.log_capacity < 1:
            raise ValueError("log_capacity must be >= 1")
        if self.min_interval_s < 0:
            raise ValueError("min_interval_s must be >= 0")
        if self.drift_threshold is not None and self.drift_threshold < 1.0:
            raise ValueError("drift_threshold must be >= 1 (or None)")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AdvisorConfig":
        names = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - names)
        if unknown:
            raise ValueError(f"unknown AdvisorConfig keys: {unknown}")
        return cls(**dict(data))


__all__ = ["AdvisorConfig"]
