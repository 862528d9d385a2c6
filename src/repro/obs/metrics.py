"""Labeled counter/gauge/histogram primitives and the registry behind
every ``stats()`` surface.

The registry is intentionally tiny and dependency-free — Prometheus-style
semantics without Prometheus:

* a :class:`Counter` only goes up (:meth:`Counter.inc`);
* a :class:`Gauge` is set to the latest value (:meth:`Gauge.set`);
* a :class:`HistogramMetric` summarises observations
  (count/sum/min/max plus p50/p95/p99 quantiles from a bounded
  reservoir, :meth:`HistogramMetric.observe` /
  :meth:`HistogramMetric.quantile`).  Once the reservoir is full it
  skips ahead (Li's Algorithm L): one random draw per *kept* sample, not
  per observation, so a latency histogram on a serving thread costs a
  compare per answer.

Instrument names are dotted — the segment before the first ``.`` is the
*namespace* (``timings`` / ``counters`` / ``caches`` are the conventional
ones, see :class:`repro.obs.snapshot.StatsSnapshot`).  Labels are
free-form keyword pairs; the same name with different labels addresses
different time series, exactly like the usual metrics systems::

    registry = MetricsRegistry()
    registry.counter("counters.matcher_calls", engine="bitmask").inc()
    registry.gauge("timings.analysis_seconds").set(0.0123)
    registry.snapshot()
    # {"counters": {"matcher_calls{engine=bitmask}": 1.0},
    #  "timings": {"analysis_seconds": 0.0123}}

``snapshot()`` nests by namespace and is JSON-ready; ``to_json()`` dumps
it.  Registries are also mergeable (:meth:`MetricsRegistry.merge`), which
is how per-query registries roll up into workload-level BENCH output.
"""

from __future__ import annotations

import json
import math
import random
import zlib
from typing import Iterator, Sequence

LabelKey = tuple[tuple[str, str], ...]

#: how many raw observations a :class:`HistogramMetric` retains for
#: quantile estimation.  Below this count quantiles are *exact*; beyond
#: it the histogram keeps a uniform reservoir sample (Li's Algorithm L)
#: so memory stays bounded under serving traffic.
RESERVOIR_SIZE = 512

#: the quantiles rendered in :meth:`HistogramMetric.value_view`
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


def _label_key(labels: dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(labels: LabelKey) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return "{" + inner + "}"


class _Instrument:
    __slots__ = ("name", "labels")
    kind = "instrument"

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels

    @property
    def full_name(self) -> str:
        return self.name + _render_labels(self.labels)

    def value_view(self) -> object:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Instrument):
    """Monotonically increasing value."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, name: str, labels: LabelKey):
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += n

    def value_view(self) -> float:
        return self.value


class Gauge(_Instrument):
    """Last-written value."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey):
        super().__init__(name, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta

    def value_view(self) -> float:
        return self.value


class HistogramMetric(_Instrument):
    """Streaming summary (count / sum / min / max / quantiles).

    Besides the exact streaming aggregates, the histogram keeps a
    bounded uniform reservoir of raw observations
    (:data:`RESERVOIR_SIZE`); :meth:`quantile` reads p50/p95/p99-style
    order statistics off it.  Until the reservoir fills the quantiles
    are exact; after that they are an unbiased sample estimate.  The
    reservoir's RNG is seeded per instrument so snapshots are
    deterministic for a fixed observation sequence.

    A full reservoir samples by Algorithm L: ``_w`` is the largest of the
    kept samples' uniform keys, so the next observation is kept with
    probability ``_w``, and ``_next`` is the ``count`` at which the next
    one is kept — the skip is drawn once, geometric in ``_w``, and every
    observation before it costs one compare.
    """

    __slots__ = ("count", "sum", "min", "max", "_reservoir", "_rng", "_w", "_next")
    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey):
        super().__init__(name, labels)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._reservoir: list[float] = []
        # stable across processes (unlike hash()) so overflowing
        # reservoirs sample identically run to run
        seed = zlib.crc32((name + _render_labels(labels)).encode("utf-8"))
        self._rng = random.Random(seed)
        self._w = 1.0
        self._next = 0

    def observe(self, value: float) -> None:
        count = self.count = self.count + 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if count == self._next:
            self._reservoir[self._rng.randrange(RESERVOIR_SIZE)] = value
            self._w *= math.exp(math.log(1.0 - self._rng.random()) / RESERVOIR_SIZE)
            self._skip()
        elif count <= RESERVOIR_SIZE:
            self._reservoir.append(value)
            if count == RESERVOIR_SIZE:
                self._restart()

    def _skip(self) -> None:
        """Draw ``_next``: the observations passed over before the next
        kept one are geometric with success probability ``_w``."""
        w = self._w
        skipped = math.log(1.0 - self._rng.random()) / math.log1p(-w) if w < 1.0 else 0.0
        self._next = self.count + int(skipped) + 1

    def _restart(self) -> None:
        """Algorithm L's state for a full reservoir that is a uniform
        sample of ``count`` observations: the largest of the kept keys is
        the ``RESERVOIR_SIZE``-th smallest of ``count`` uniforms."""
        self._w = self._rng.betavariate(RESERVOIR_SIZE, self.count - RESERVOIR_SIZE + 1)
        self._skip()

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 <= q <= 1) of the retained reservoir,
        linearly interpolated between order statistics; 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        samples = self._reservoir
        if not samples:
            return 0.0
        ordered = sorted(samples)
        position = q * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    def quantiles(
        self, qs: Sequence[float] = DEFAULT_QUANTILES
    ) -> dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` for the given qs."""
        return {f"p{round(q * 100):d}": self.quantile(q) for q in qs}

    def _absorb(self, other: "HistogramMetric") -> None:
        """Fold another histogram in (used by registry merging).

        Two reservoirs that fit in one are both exact and are joined.
        Otherwise the merged reservoir is a sample of both streams: how
        many of its slots come from ``other`` is drawn as if from
        ``self.count + other.count`` observations of which
        ``other.count`` are the other's (hypergeometric), and the slots
        are filled without replacement from each side's reservoir."""
        mine, theirs = self._reservoir, other._reservoir
        own, total = self.count, self.count + other.count
        self.count = total
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        if len(mine) + len(theirs) <= RESERVOIR_SIZE:
            mine.extend(theirs)
        else:
            rng = self._rng
            kept = 0
            for drawn in range(RESERVOIR_SIZE):
                if rng.random() * (total - drawn) < own - kept:
                    kept += 1
            kept = min(max(kept, RESERVOIR_SIZE - len(theirs)), len(mine))
            self._reservoir = rng.sample(mine, kept) + rng.sample(theirs, RESERVOIR_SIZE - kept)
        if len(self._reservoir) == RESERVOIR_SIZE:
            self._restart()

    def value_view(self) -> dict[str, float]:
        if not self.count:
            return {
                "count": 0,
                "sum": 0.0,
                "min": 0.0,
                "max": 0.0,
                "mean": 0.0,
                "p50": 0.0,
                "p95": 0.0,
                "p99": 0.0,
            }
        view = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }
        view.update(self.quantiles())
        return view


class MetricsRegistry:
    """Get-or-create home of named, labeled instruments."""

    __slots__ = ("_instruments",)

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, LabelKey], _Instrument] = {}

    # ------------------------------------------------------------------
    def _get(self, cls: type, name: str, labels: dict[str, object]) -> _Instrument:
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, key[1])
            self._instruments[key] = instrument
        elif type(instrument) is not cls:
            raise TypeError(
                f"{name!r} is already registered as a {instrument.kind}"
            )
        return instrument

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(Counter, name, labels)  # type: ignore[return-value]

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(Gauge, name, labels)  # type: ignore[return-value]

    def histogram(self, name: str, **labels: object) -> HistogramMetric:
        return self._get(HistogramMetric, name, labels)  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[_Instrument]:
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's instruments into this one (counters and
        histograms accumulate, gauges take the other's value)."""
        for (name, labels), instrument in other._instruments.items():
            kw = dict(labels)
            if isinstance(instrument, Counter):
                self.counter(name, **kw).inc(instrument.value)
            elif isinstance(instrument, HistogramMetric):
                self.histogram(name, **kw)._absorb(instrument)
            else:
                self.gauge(name, **kw).set(instrument.value)  # type: ignore[union-attr]

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, object]]:
        """Nested ``{namespace: {name{labels}: value}}`` view.

        The namespace is the dotted prefix of the instrument name (bare
        names land in ``"metrics"``).  Values are floats for counters and
        gauges, ``{count, sum, min, max, mean}`` dicts for histograms.
        """
        out: dict[str, dict[str, object]] = {}
        for instrument in sorted(
            self._instruments.values(), key=lambda i: i.full_name
        ):
            name = instrument.name
            namespace, _, rest = name.partition(".")
            if not rest:
                namespace, rest = "metrics", name
            entry = rest + _render_labels(instrument.labels)
            out.setdefault(namespace, {})[entry] = instrument.value_view()
        return out

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


def q_error(estimated: float, true: float) -> float:
    """``max(est, true) / min(est, true)`` with both sides raised by
    ``1e-9``, so an empty result stays finite: the one q-error the
    bench suites and the ingest drift probe report."""
    high = max(estimated, true) + 1e-9
    low = min(estimated, true) + 1e-9
    return high / low
