"""The graceful-degradation ladder: always answer, with the best
statistics still standing.

When a matched SIT or its histogram fails mid-estimation, or no
statistic covers one of the query's attributes, the estimator does not
fail the query; it walks down the ladder:

* **level 0** — the normal ``getSelectivity`` path, all statistics
  available (zero overhead: the happy path returns the DP's result
  object untouched);
* **level 1** — *re-plan*: the failed SITs are excluded from the pool
  and the DP re-runs over what is left, so the estimate still uses every
  healthy conditioned statistic (excluded SITs are reported);
* **level 2** — *base statistics + independence*: the traditional
  optimizer estimate over base-table histograms only (the paper's
  ``noSit`` variant), reached when re-planning keeps faulting or leaves
  an attribute uncovered, and first when level 0 finds an attribute no
  statistic covers (there is no SIT to exclude, so level 1 is skipped);
* **level 3** — *fallback estimator*: a peer backend (typically the
  guaranteed-sampling estimator of :mod:`repro.estimators.sampling`,
  wired in by :func:`repro.estimators.create_estimator`) answers from
  statistics independent of the failed SIT machinery, carrying its
  ``backend`` tag and ``error_bound`` through the result.  When no
  fallback estimator is configured — or it fails too — the rung
  terminates in the System-R style *magic constants*: crude but typed,
  deterministic, and never an exception.

``strict=True`` restores fail-fast semantics (faults propagate to the
caller), which is what the chaos tests use to prove injection reaches
each point.

Level semantics are *monotone in the set of failed statistics*: failing
a superset of SITs can only keep the level equal or push it higher —
the property suite pins this.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterable

from repro.resilience.faults import EstimationFault

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.get_selectivity import EstimationResult

# Degradation levels
LEVEL_NORMAL = 0
LEVEL_REPLAN = 1
LEVEL_BASE_INDEPENDENCE = 2
LEVEL_MAGIC = 3
#: level 3 now covers any last-resort backend, not just magic constants
LEVEL_FALLBACK = LEVEL_MAGIC
LEVELS = (
    LEVEL_NORMAL,
    LEVEL_REPLAN,
    LEVEL_BASE_INDEPENDENCE,
    LEVEL_MAGIC,
)

#: level -> human name (protocol + EXPLAIN rendering)
LEVEL_NAMES = {
    LEVEL_NORMAL: "normal",
    LEVEL_REPLAN: "replan",
    LEVEL_BASE_INDEPENDENCE: "base_independence",
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


def magic_result(
    predicates: frozenset, excluded_sits: tuple[str, ...] = ()
) -> "EstimationResult":
    """The level-3 :class:`EstimationResult` for ``predicates``.

    ``error`` is the full independence-assumption count (one per
    predicate) — the honest statement that *every* assumption was made.
    """
    # local import: resilience must stay importable from inside the core
    # modules that host injection points (no cycle at import time)
    from repro.core.get_selectivity import Decomposition, EstimationResult

    return EstimationResult(
        selectivity=magic_selectivity(predicates),
        error=float(len(predicates)),
        decomposition=Decomposition(()),
        matches=(),
        coverage=0.0,
        degradation_level=LEVEL_MAGIC,
        excluded_sits=excluded_sits,
        backend="magic",
    )


class ResilienceTelemetry:
    """Thread-safe counters for the ``resilience`` snapshot namespace.

    Counts degradation outcomes per level and handled faults per typed
    kind; mergeable so sessions/services can fold worker telemetry up.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._levels: dict[int, int] = {}
        self._faults: dict[str, int] = {}
        self._replans = 0

    # ------------------------------------------------------------------
    def record_level(self, level: int) -> None:
        with self._lock:
            self._levels[level] = self._levels.get(level, 0) + 1

    def record_fault(self, fault: BaseException) -> None:
        kind = getattr(fault, "kind", None) or "error"
        with self._lock:
            self._faults[kind] = self._faults.get(kind, 0) + 1

    def record_replan(self) -> None:
        with self._lock:
            self._replans += 1

    # ------------------------------------------------------------------
    def merge(self, other: "ResilienceTelemetry") -> None:
        with other._lock:
            levels = dict(other._levels)
            faults = dict(other._faults)
            replans = other._replans
        with self._lock:
            for level, count in levels.items():
                self._levels[level] = self._levels.get(level, 0) + count
            for kind, count in faults.items():
                self._faults[kind] = self._faults.get(kind, 0) + count
            self._replans += replans

    def as_dict(self) -> dict[str, float]:
        """The ``resilience`` namespace entries this telemetry owns."""
        with self._lock:
            out: dict[str, float] = {}
            for level, count in sorted(self._levels.items()):
                out[f"degraded_level{level}"] = float(count)
            for kind, count in sorted(self._faults.items()):
                out[f"faults_{kind}"] = float(count)
            if self._replans:
                out["replans"] = float(self._replans)
            return out

    def __bool__(self) -> bool:
        with self._lock:
            return bool(self._levels or self._faults or self._replans)


__all__ = [
    "EstimationFault",
    "LEVELS",
    "LEVEL_BASE_INDEPENDENCE",
    "LEVEL_FALLBACK",
    "LEVEL_MAGIC",
    "LEVEL_NAMES",
    "LEVEL_NORMAL",
    "LEVEL_REPLAN",
    "MAGIC_FILTER_SELECTIVITY",
    "MAGIC_JOIN_SELECTIVITY",
    "ResilienceTelemetry",
    "magic_result",
    "magic_selectivity",
]
