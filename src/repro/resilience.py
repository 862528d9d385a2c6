"""The graceful-degradation ladder: always answer, with the best
statistics still standing.

When level 0 finds no decomposition it can score — an attribute no
statistic covers, or a caller's error function that prices every
decomposition infinite — the estimator does not fail the query; it
walks down the ladder:

* **level 0** — the normal ``getSelectivity`` path (zero overhead: the
  happy path returns the DP's result object untouched);
* **level 3** — *fallback estimator*: a peer backend (typically the
  guaranteed-sampling estimator of :mod:`repro.estimators.sampling`,
  wired in by :func:`repro.estimators.create_estimator`) answers from
  statistics independent of the histograms, carrying its ``backend``
  tag and ``error_bound`` through the result.  When no fallback
  estimator is configured — or it fails — the rung terminates in the
  System-R style *magic constants*: crude but typed, deterministic, and
  never an exception.

The numbers 0 and 3 keep their meaning on the wire; 1 and 2 are never
produced.

``strict=True`` restores fail-fast semantics (level 0's
:class:`~repro.core.get_selectivity.NoApplicableStatisticsError`
propagates to the caller).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.get_selectivity import EstimationResult

# Degradation levels
LEVEL_NORMAL = 0
LEVEL_MAGIC = 3

#: level -> human name (protocol + EXPLAIN rendering)
LEVEL_NAMES = {
    LEVEL_NORMAL: "normal",
    LEVEL_MAGIC: "magic",
}

#: the classical magic selectivity constants (level 3)
MAGIC_FILTER_SELECTIVITY = 1.0 / 3.0
MAGIC_JOIN_SELECTIVITY = 1.0 / 10.0


def magic_selectivity(predicates: Iterable) -> float:
    """The level-3 estimate: fixed constants under full independence.

    A pure, deterministic function of the predicate set — no statistics
    are touched, so it cannot fault.
    """
    selectivity = 1.0
    for predicate in sorted(predicates, key=str):
        selectivity *= (
            MAGIC_JOIN_SELECTIVITY
            if predicate.is_join
            else MAGIC_FILTER_SELECTIVITY
        )
    return selectivity


def magic_result(predicates: frozenset) -> "EstimationResult":
    """The level-3 :class:`EstimationResult` for ``predicates``.

    ``error`` is the full independence-assumption count (one per
    predicate) — the honest statement that *every* assumption was made.
    """
    # local import: keeps repro.resilience importable without the core
    from repro.core.get_selectivity import Decomposition, EstimationResult

    return EstimationResult(
        selectivity=magic_selectivity(predicates),
        error=float(len(predicates)),
        decomposition=Decomposition(()),
        matches=(),
        coverage=0.0,
        degradation_level=LEVEL_MAGIC,
        backend="magic",
    )


class ResilienceTelemetry:
    """Thread-safe counters for the ``resilience`` snapshot namespace.

    Counts degradation outcomes per level and handled faults per typed
    kind.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._levels: dict[int, int] = {}
        self._faults: dict[str, int] = {}

    # ------------------------------------------------------------------
    def record_level(self, level: int) -> None:
        with self._lock:
            self._levels[level] = self._levels.get(level, 0) + 1

    def record_fault(self, fault: BaseException) -> None:
        kind = getattr(fault, "kind", None) or "error"
        with self._lock:
            self._faults[kind] = self._faults.get(kind, 0) + 1

    def as_dict(self) -> dict[str, float]:
        """The ``resilience`` namespace entries this telemetry owns."""
        with self._lock:
            out: dict[str, float] = {}
            for level, count in sorted(self._levels.items()):
                out[f"degraded_level{level}"] = float(count)
            for kind, count in sorted(self._faults.items()):
                out[f"faults_{kind}"] = float(count)
            return out


__all__ = [
    "LEVEL_MAGIC",
    "LEVEL_NAMES",
    "LEVEL_NORMAL",
    "MAGIC_FILTER_SELECTIVITY",
    "MAGIC_JOIN_SELECTIVITY",
    "ResilienceTelemetry",
    "magic_result",
    "magic_selectivity",
]
