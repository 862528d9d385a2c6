"""Deterministic fault injection for the estimation stack.

A production estimator does not get to choose when a histogram it
reads turns out unusable — but a *test* of the estimator must be able
to choose exactly that, and reproducibly.  This module provides the
seeded chaos layer:

* **one typed fault**, :class:`HistogramCorrupt`, naming a SIT in play:
  what a real defect at an injection point raises.  A torn or flipped
  catalog file is not injected: the loader's :class:`PoolFormatError`
  and quarantine handle the real file (:mod:`repro.stats.io`);
* **three named injection points** (an answer's histogram joins, the
  ingest pipeline's apply and a refresh racing it).  Each point costs
  one module-global load plus a ``None`` check when no plan is armed,
  so the zero-fault path stays within the serving latency budget;
* a seeded :class:`FaultPlan` of :class:`FaultRule` entries.  Rules fire
  by probability, with a trigger budget (``max_fires``) and a substring
  ``match`` filter on the injection context, so a plan can target *one*
  SIT, *one* snapshot version, or everything at once.  A draw is a hash
  of the seed, the rule, the point and the *content* in play — the
  request the point serves (its key), the detail and the SITs — never
  of call order.  Two runs with the same seed and the same request
  content inject the same faults, however their requests are scheduled
  across workers — the chaos suite's determinism property.

Arming is process-global (:func:`arm` / :func:`disarm` / the
:func:`armed` context manager): injection points live in modules that
must not know about service objects, and chaos tests want one switch for
the whole stack.
"""

from __future__ import annotations

import json
import pathlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Iterable, Iterator, Mapping, Sequence

# ----------------------------------------------------------------------
# Injection points (the names a FaultRule's ``point`` may use)
# ----------------------------------------------------------------------
#: the histograms one factor of an answer reads: one of them is corrupt
POINT_HISTOGRAM_JOIN = "histogram_join"
#: applying one coalesced invalidation epoch in the ingest pipeline
POINT_INGEST_APPLY = "ingest_apply"
#: incremental refresh racing a concurrent invalidation storm
POINT_REFRESH_DURING_STORM = "refresh_during_storm"

#: every injection point threaded through the stack
INJECTION_POINTS = (
    POINT_HISTOGRAM_JOIN,
    POINT_INGEST_APPLY,
    POINT_REFRESH_DURING_STORM,
)


# ----------------------------------------------------------------------
# Typed faults
# ----------------------------------------------------------------------
class EstimationFault(Exception):
    """Base of every typed fault the resilience layer handles.

    ``sit_name`` identifies the statistic the fault took down (``None``
    at a point with no SIT in play); ``injected`` is ``True`` when a
    :class:`FaultPlan` raised it, ``False`` for real faults wrapped into
    the same vocabulary.
    """

    kind = "fault"

    def __init__(
        self,
        message: str = "",
        *,
        sit_name: str | None = None,
        point: str | None = None,
        injected: bool = False,
    ):
        super().__init__(message or self.kind)
        self.sit_name = sit_name
        self.point = point
        self.injected = injected


class HistogramCorrupt(EstimationFault):
    """A SIT's histogram cannot be used (bad bucket data)."""

    kind = "histogram_corrupt"


# ----------------------------------------------------------------------
# Fault rules and plans
# ----------------------------------------------------------------------
def _reject_unknown(data: Mapping, known: tuple[str, ...], what: str) -> None:
    """A plan document is input from outside the program: a misspelt key
    must fail loudly, not fall back to a default that fires."""
    if not isinstance(data, Mapping):
        raise ValueError(f"a {what} must be a JSON object")
    for key in data:
        if key not in known:
            raise ValueError(f"unknown {what} key {key!r}; expected one of {known}")


def request_key(items: Iterable[object]) -> str:
    """A request's content as a draw key: its members' sorted text (a
    string's ``hash`` is salted per process, so it cannot be the key)."""
    return "\x1e".join(sorted(map(str, items)))


@dataclass
class FaultRule:
    """One armed fault: *where* it can fire and *how often*.  Every
    firing raises :class:`HistogramCorrupt`.

    ``probability`` is the share of draws the rule fires on (``0.0`` arms
    it silent: evaluated and counted, never drawn); ``match`` restricts
    the rule to injection contexts whose detail string or SIT names
    contain it (e.g. a SIT's name or a snapshot version).  ``max_fires``
    caps the total number of firings (``None`` = unbounded).  It is the
    one budget whose outcome depends on scheduling: which of two draws
    that both fire spends the last firing is a race between the threads
    making them.
    """

    point: str
    probability: float = 1.0
    max_fires: int | None = 1
    match: str | None = None
    #: mutable firing state (not part of the rule's identity)
    evaluations: int = field(default=0, compare=False)
    fires: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.point not in INJECTION_POINTS:
            raise ValueError(
                f"unknown injection point {self.point!r}; "
                f"expected one of {INJECTION_POINTS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.max_fires is not None and self.max_fires < 0:
            raise ValueError("max_fires must be >= 0 (or None)")

    @property
    def exhausted(self) -> bool:
        return self.max_fires is not None and self.fires >= self.max_fires

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultRule":
        keys = ("point", "probability", "max_fires", "match")
        _reject_unknown(data, keys, "fault rule")
        max_fires = data.get("max_fires", 1)
        match = data.get("match")
        return cls(
            point=str(data["point"]),
            probability=float(data.get("probability", 1.0)),
            max_fires=None if max_fires is None else int(max_fires),
            match=None if match is None else str(match),
        )


class FaultPlan:
    """A seeded, thread-safe set of armed :class:`FaultRule` entries.

    Given the same seed and the same request content, a plan injects
    the identical faults, in any call order and split across any number
    of threads: a rule fires on a hash of ``(seed, rule index, point,
    key, detail, SIT names)``, and the SIT a fault names is picked by
    the same hash.  ``key`` is the request a point serves; at a point
    with none in scope a rule keys on how many times it has met that
    detail.
    """

    def __init__(self, rules: Iterable[FaultRule] = (), seed: int = 0):
        self.rules: list[FaultRule] = list(rules)
        self.seed = int(seed)
        self._lock = threading.Lock()
        #: point -> times fired
        self.fired: dict[str, int] = {}
        #: (rule index, detail) -> draws made without a key
        self._keyless: dict[tuple[int, str], int] = {}

    # ------------------------------------------------------------------
    def check(
        self,
        point: str,
        detail: str = "",
        sits: "Sequence[object] | None" = None,
        key: str | None = None,
    ) -> None:
        """Evaluate every armed rule for ``point``; raise on a firing.

        ``detail`` is matched against rules' ``match`` substrings;
        ``sits`` (when given) are the statistics in play at the point —
        the fired fault picks one (by the draw's hash over the
        str-sorted names) and carries it as ``sit_name`` so the
        degradation ladder knows what to exclude.  ``key`` is the
        content of the request being served (:func:`request_key`).
        """
        fault = self.evaluate(point, detail=detail, sits=sits, key=key)
        if fault is not None:
            raise fault

    def evaluate(
        self,
        point: str,
        detail: str = "",
        sits: "Sequence[object] | None" = None,
        key: str | None = None,
    ) -> EstimationFault | None:
        """Like :meth:`check` but returns the fault instead of raising."""
        with self._lock:
            names: list[str] | None = None  # built once a rule reads them
            for index, rule in enumerate(self.rules):
                if rule.point != point or rule.exhausted:
                    continue
                if names is None and (rule.match is not None or rule.probability):
                    names = sorted(map(str, sits or ()))
                if rule.match is not None and rule.match not in (
                    detail + "\x00" + "\x00".join(names)
                ):
                    continue
                rule.evaluations += 1
                if not rule.probability:
                    continue
                drawn = key
                if drawn is None:  # the nth time this rule met this detail
                    count = self._keyless.get((index, detail), 0)
                    self._keyless[index, detail] = count + 1
                    drawn = f"#{count}"
                text = f"{self.seed}\x1f{index}\x1f{point}\x1f{drawn}\x1f{detail}"
                digest = blake2b("\x1f".join((text, *names)).encode(), digest_size=8)
                draw = int.from_bytes(digest.digest(), "big")
                if draw >= rule.probability * 2.0**64:
                    continue
                rule.fires += 1
                self.fired[point] = self.fired.get(point, 0) + 1
                return _build_fault(rule, point, detail, names, draw)
        return None

    # ------------------------------------------------------------------
    @property
    def total_fires(self) -> int:
        with self._lock:
            return sum(self.fired.values())

    def stats(self) -> dict[str, int]:
        """``{point: fires}`` counters for observability."""
        with self._lock:
            return dict(sorted(self.fired.items()))

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        _reject_unknown(data, ("seed", "rules"), "fault plan")
        return cls(
            rules=[FaultRule.from_dict(r) for r in data.get("rules", ())],
            seed=int(data.get("seed", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Inline JSON (starts with ``{``) or a path to a JSON file —
        the CLI's ``--fault-plan`` argument."""
        spec = spec.strip()
        return cls.from_json(
            spec if spec.startswith("{") else pathlib.Path(spec).read_text()
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultPlan(seed={self.seed}, rules={len(self.rules)})"


def _build_fault(
    rule: FaultRule, point: str, detail: str, names: list[str], draw: int
) -> HistogramCorrupt:
    """The fault a firing raises; it names one of the SITs in play (of
    those the rule's ``match`` selects, when any), picked by ``draw``."""
    sit_name: str | None = None
    if names:
        candidates = names
        if rule.match is not None:
            candidates = [n for n in names if rule.match in n] or names
        sit_name = candidates[draw % len(candidates)]
    message = f"injected {HistogramCorrupt.kind} at {point}"
    if sit_name is not None:
        message += f" ({sit_name})"
    elif detail:
        message += f" ({detail})"
    return HistogramCorrupt(message, sit_name=sit_name, point=point, injected=True)


# ----------------------------------------------------------------------
# Process-global arming
# ----------------------------------------------------------------------
_ACTIVE: FaultPlan | None = None


def active() -> FaultPlan | None:
    """The armed plan, or ``None``.  Injection points call this first;
    the disarmed cost is one global load and a ``None`` check."""
    return _ACTIVE


def arm(plan: FaultPlan) -> FaultPlan:
    """Arm ``plan`` process-wide; returns it for chaining."""
    global _ACTIVE
    _ACTIVE = plan
    return plan


def disarm() -> None:
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def armed(plan: FaultPlan) -> Iterator[FaultPlan]:
    """``with armed(plan): ...`` — scoped arming for tests."""
    previous = _ACTIVE
    arm(plan)
    try:
        yield plan
    finally:
        if previous is None:
            disarm()
        else:
            arm(previous)


def inject(
    point: str,
    detail: str = "",
    sits: "Sequence[object] | None" = None,
) -> None:
    """Evaluate the armed plan (if any) at ``point``; raises on firing."""
    plan = _ACTIVE
    if plan is None:
        return
    plan.check(point, detail=detail, sits=sits)


__all__ = [
    "EstimationFault",
    "FaultPlan",
    "FaultRule",
    "HistogramCorrupt",
    "INJECTION_POINTS",
    "POINT_HISTOGRAM_JOIN",
    "POINT_INGEST_APPLY",
    "POINT_REFRESH_DURING_STORM",
    "active",
    "arm",
    "armed",
    "disarm",
    "inject",
    "request_key",
]
