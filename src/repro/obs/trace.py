"""Zero-dependency tracing for the estimation path.

Design contract
---------------
A *disabled* trace is ``None``.  Instrumented call sites therefore follow
the pattern::

    trace = self.trace
    if trace is not None:
        trace.count("masks_explored")

which costs exactly one attribute load and one branch when tracing is off
— the overhead budget the ``BENCH_core.json`` steady-state gate enforces.
Nothing is allocated, no dict keys appear anywhere (in particular not in
the DP memo), and results are bit-identical with tracing on or off.

When *enabled*, a :class:`Trace` aggregates per-stage wall-clock time and
invocation counts (:meth:`Trace.span` / :meth:`Trace.add_time`) plus named
counters (:meth:`Trace.count`).  The canonical stage names used across the
stack are listed in :data:`STAGES`; they map one-to-one onto the paper's
cost taxonomy (see DESIGN.md):

====================  ====================================================
stage                 meaning
====================  ====================================================
``parse_bind``        SQL text → bound :class:`repro.engine.Query`
``dp_enumeration``    the Figure 3 search itself (memo + submask loop)
``factor_matching``   Section 3.3 view matching of ``Sel(P|Q)`` factors
``histogram_join``    histogram joins of numeric factor estimation
``error_scoring``     error-function evaluation of candidate matches
====================  ====================================================
"""

from __future__ import annotations

import json
import time
from typing import Iterator

#: canonical stage names, in pipeline order
STAGES = (
    "parse_bind",
    "dp_enumeration",
    "factor_matching",
    "histogram_join",
    "error_scoring",
)


class Span:
    """One timed region; a context manager that reports into its trace.

    Spans are cheap, single-use objects.  Nested spans simply accumulate
    into their own stage bucket — stage buckets are additive, which is all
    the Figure 8-style breakdowns need.
    """

    __slots__ = ("trace", "stage", "started", "seconds")

    def __init__(self, trace: "Trace", stage: str):
        self.trace = trace
        self.stage = stage
        self.started = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "Span":
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = time.perf_counter() - self.started
        self.trace.add_time(self.stage, self.seconds)


class Trace:
    """Aggregating recorder of per-stage timings and named counters."""

    __slots__ = ("timings", "calls", "counters")

    def __init__(self) -> None:
        #: stage -> accumulated seconds
        self.timings: dict[str, float] = {}
        #: stage -> number of spans recorded
        self.calls: dict[str, int] = {}
        #: counter name -> accumulated value
        self.counters: dict[str, int] = {}

    # ------------------------------------------------------------------
    def span(self, stage: str) -> Span:
        """A context manager timing one region into ``stage``."""
        return Span(self, stage)

    def add_time(self, stage: str, seconds: float, calls: int = 1) -> None:
        """Record ``seconds`` of work in ``stage`` (``calls`` invocations)."""
        timings = self.timings
        timings[stage] = timings.get(stage, 0.0) + seconds
        self.calls[stage] = self.calls.get(stage, 0) + calls

    def count(self, name: str, n: int = 1) -> None:
        """Bump the named counter by ``n``."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + n

    # ------------------------------------------------------------------
    def merge(self, other: "Trace") -> None:
        """Fold another trace's aggregates into this one."""
        for stage, seconds in other.timings.items():
            self.add_time(stage, seconds, other.calls.get(stage, 0))
        for name, value in other.counters.items():
            self.count(name, value)

    def clear(self) -> None:
        self.timings.clear()
        self.calls.clear()
        self.counters.clear()

    # ------------------------------------------------------------------
    def stages(self) -> Iterator[tuple[str, float, int]]:
        """``(stage, seconds, calls)`` rows, canonical stages first."""
        seen = []
        for stage in STAGES:
            if stage in self.timings:
                seen.append(stage)
        for stage in self.timings:
            if stage not in STAGES:
                seen.append(stage)
        for stage in seen:
            yield stage, self.timings[stage], self.calls.get(stage, 0)

    def snapshot(self) -> dict:
        """Plain-dict view: ``{"timings": ..., "calls": ..., "counters": ...}``."""
        return {
            "timings": dict(self.timings),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stages = ", ".join(f"{s}={t * 1e3:.2f}ms" for s, t, _ in self.stages())
        return f"Trace({stages or 'empty'})"
