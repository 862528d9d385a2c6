"""The yardstick: how fast the host is running right now.

This class of host runs at two speeds.  The same 225 plan-cache replays
take 15.5 ms or 26.5 ms (1.7x), the host switches between the two every
few seconds, and it can stay at the slow one for a quarter of an hour
(``bench/evidence/host-two-speeds.txt``, ``repeat-at-issue-bounds.txt``).  It is the core running slower,
not the process being descheduled: thread CPU time and wall time agree
within 3 % and vary together, so counting CPU time removes nothing.  No
statistic over the samples of one run can tell a slow program from a
slow half-minute: ten runs of the same code, scored on raw times, spread
by up to 39 % (``bench/evidence/raw-or-normalised.txt``).

So a fixed piece of work that is not the program, :func:`reference_spin`,
is timed between requests, and every sample is divided by how much slower
than :data:`REFERENCE_NOMINAL_S` the yardstick ran beside it.  Reported
times are therefore times on a host where the yardstick takes exactly
0.7 ms — this host when nothing disturbs it.  The constant only fixes
the unit; it cancels when two commits are compared.
"""

from __future__ import annotations

import json
import re
import statistics
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class _SpinItem:
    name: str
    low: float
    high: float

    def width(self) -> float:
        return self.high - self.low

    def __str__(self) -> str:
        return f"{self.low:g}<={self.name}<={self.high:g}"


_SPIN_DOCUMENT = {
    "items": [
        {"name": f"t{i}.c{i % 7}", "low": i * 1.5, "high": i * 2.5 + 1, "tags": ["a", str(i)]}
        for i in range(40)
    ]
}
_SPIN_PATTERN = re.compile(r"t(\d+)\.c(\d)")
_SPIN_EDGES = np.sort(np.random.default_rng(1).uniform(0.0, 1000.0, 200))
_SPIN_FREQUENCIES = np.random.default_rng(2).uniform(1.0, 100.0, 199)
#: a new yardstick reading at most this often, taken between requests
REFERENCE_EVERY_S = 0.05


def reference_spin() -> float:
    """Seconds a fixed piece of work takes right now: the yardstick for
    how much the host is slowing this process down.

    What it does matters.  A tight arithmetic loop slowed down only 0.65x
    as much as the program when the host was disturbed (measured over
    four minutes of alternating readings), a loop over a 40 MB object
    graph only 0.55x: the program runs a wide stretch of interpreter and
    numpy-dispatch code, and that is what contention hurts.  So the
    yardstick is wide too — JSON both ways, dataclasses, string
    formatting, sorting by key, regex, frozensets, hashing, and a dozen
    different small-array numpy calls — and none of it is code of the
    program under test.
    """
    started = time.perf_counter()
    document = json.loads(json.dumps(_SPIN_DOCUMENT, separators=(",", ":")))
    items = [_SpinItem(d["name"], d["low"], d["high"]) for d in document["items"]]
    ordered = sorted(items, key=str)
    keyed = {(item.name, item.low): item for item in ordered}
    both = frozenset(ordered[:20]) | frozenset(ordered[10:30])
    total = 0.0
    for item in ordered:
        match = _SPIN_PATTERN.match(item.name)
        if match and isinstance(item, _SpinItem) and (item.name, item.low) in keyed:
            total += item.width() * int(match.group(2)) + len(both)
    total += hash(tuple(sorted((item.low, item.high) for item in both))) % 7
    edges, frequencies = _SPIN_EDGES, _SPIN_FREQUENCIES
    for k in range(12):
        low, high = 100.0 + k, 700.0 - k
        i = np.searchsorted(edges, low)
        j = np.searchsorted(edges, high, side="right")
        covered = np.clip(
            (np.minimum(edges[1:], high) - np.maximum(edges[:-1], low)) / np.diff(edges), 0.0, 1.0
        )
        total += float((covered * frequencies).sum() / np.cumsum(frequencies)[-1])
        total += float(np.where(covered > 0, 1, 0).sum())
        total += float(np.concatenate((edges[:i], edges[j:])).size)
        total += float(np.dot(covered, frequencies)) + float(np.maximum.reduce(frequencies[i:j]))
    return time.perf_counter() - started


#: the yardstick on an undisturbed host of the kind this was built on
REFERENCE_NOMINAL_S = 0.0007


def normalised(seconds: float, reference_s: float, idle_s: float = 0.0) -> float:
    """``seconds`` as they would have read had the yardstick taken
    ``REFERENCE_NOMINAL_S``; the first ``idle_s`` are a timer's."""
    busy = max(seconds - idle_s, 0.0)
    return seconds - busy + busy * REFERENCE_NOMINAL_S / reference_s


class Yardstick:
    """The reading in force right now, for one load-generating thread:
    the median of the last three (a reading can itself be hit by a
    burst), renewed when it is older than ``REFERENCE_EVERY_S``."""

    def __init__(self) -> None:
        self.recent: list[float] = []
        self.read_at = -REFERENCE_EVERY_S
        self.current = 0.0

    def reading(self) -> float:
        if time.perf_counter() - self.read_at > REFERENCE_EVERY_S:
            self.recent = (self.recent + [reference_spin()])[-3:]
            self.current = statistics.median(self.recent)
            self.read_at = time.perf_counter()
        return self.current


def steady_reading() -> float:
    """Median of three readings: one alone can be hit by a burst and read
    double, which would halve the stretch it is applied to."""
    return statistics.median(reference_spin() for _ in range(3))


class SetupClock:
    """Normalised seconds of a set-up.  The yardstick is read at every
    checkpoint, and each stretch between two checkpoints is divided by
    the mean of the readings at its ends; the readings are not counted."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.reading = steady_reading()
        self.since = time.perf_counter()

    def checkpoint(self) -> None:
        stretch = time.perf_counter() - self.since
        reading = steady_reading()
        self.seconds += normalised(stretch, (self.reading + reading) / 2.0)
        self.reading = reading
        self.since = time.perf_counter()
