"""Every metric the program registers is read by something.

ROADMAP's observability aim: "every metric we export must be read by a
test, a gate, or a tool; the rest go".  This test keeps it true: it
enumerates the instrument names registered in ``src/repro`` and fails
for any that nothing reads, so a new counter arrives together with its
reader or not at all.

*Registered*: a string literal ``"<namespace>.<key>"`` passed to
``counter(...)`` / ``gauge(...)`` / ``histogram(...)``.  Families
registered through an f-string (``f"plan_cache.{key}"``) forward another
structure's keys and are read through that structure's own tests.

*Read*: the quoted dotted name (``"ingest.events_applied"``), or a
subscript or ``.get(`` of its key (``snapshot.ingest["events_applied"]``,
``stats.get("events_applied"``), appears in ``tests/``, ``scripts/``,
``bench/``, ``benchmarks/``, ``examples/``, the CLI
(``repro/__main__.py``) or the bench runner (``repro/bench/``).  A bare
quoted key is not a read: ``match="closed"`` names no instrument.
"""

from __future__ import annotations

import pathlib
import re

from repro.obs.snapshot import NAMESPACES

ROOT = pathlib.Path(__file__).resolve().parents[2]

REGISTRATION = re.compile(
    r"(?:\bcounter|\bgauge|\bhistogram)\(\s*"
    r"\"((?:%s)\.[a-z_0-9]+)\"" % "|".join(NAMESPACES)
)

READERS = (
    "tests",
    "scripts",
    "bench",
    "benchmarks",
    "examples",
    "src/repro/__main__.py",
    "src/repro/bench",
)


def registered_names() -> set[str]:
    names: set[str] = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        names.update(REGISTRATION.findall(path.read_text()))
    return names


def reader_text() -> str:
    chunks = []
    for entry in READERS:
        path = ROOT / entry
        files = [path] if path.is_file() else sorted(path.rglob("*.py"))
        chunks.extend(
            file.read_text()
            for file in files
            if file != pathlib.Path(__file__).resolve()
        )
    return "\n".join(chunks)


#: the request path's instruments, each registered by a string literal
SERVICE_NAMES = {
    "service.active_sessions",
    "service.answered_on_arrival",
    "service.batch_size",
    "service.batched_requests",
    "service.batches",
    "service.deduplicated",
    "service.degraded",
    "service.latency_ms",
    "service.queue_depth",
    "service.served",
    "service.shed_deadline",
    "service.shed_overload",
    "service.snapshot_swaps",
    "service.sql_template_hits",
    "service.sql_template_misses",
    "service.submitted",
    "service.workers",
}


def test_the_scan_sees_the_registry():
    """The scan finds a fixed set of names, not a count: deleting an
    instrument with its readers is a change this test should allow."""
    names = registered_names()
    assert SERVICE_NAMES <= names
    assert {"catalog.version", "ingest.events_applied"} <= names


def reads(name: str) -> tuple[str, ...]:
    """The spellings that count as a read of ``name``."""
    key = name.split(".", 1)[1]
    return tuple(
        spelling
        for q in "\"'"
        for spelling in (f"{q}{name}{q}", f"[{q}{key}{q}]", f".get({q}{key}{q}")
    )


def test_every_registered_metric_has_a_reader():
    text = reader_text()
    unread = sorted(
        name
        for name in registered_names()
        if not any(spelling in text for spelling in reads(name))
    )
    assert not unread, (
        "registered but never read (give each a reader in a test, or "
        f"delete it): {unread}"
    )
