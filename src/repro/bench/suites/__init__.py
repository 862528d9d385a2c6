"""The ``python -m repro.bench`` suites and the helpers they share.

A suite is a module with two plain functions:

``run(recorded) -> blocks``
    measure, and return ``{top-level key: block}`` for the runner's one
    writer to merge into the gate file.  ``recorded`` is the file's
    current content (a suite may compare against an earlier block); a
    ``"meta"`` key, if returned, describes the suite's parameters and is
    filed under ``meta.suites.<suite>``.
``render(blocks) -> str``
    the human-readable summary of what ``run`` returned.

A suite whose gate decides the runner's exit code also defines
``passed(blocks) -> bool``.
"""

from __future__ import annotations

import time
from typing import Callable


def time_once(function: Callable[[], object]) -> float:
    started = time.perf_counter()
    function()
    return time.perf_counter() - started


def best_of(function: Callable[[], object], repeats: int) -> float:
    """Minimum wall-clock seconds over ``repeats`` runs (noise floor)."""
    return min(time_once(function) for _ in range(repeats))

