"""Every metric the program registers is read by something.

ROADMAP's observability aim: "every metric we export must be read by a
test, a gate, or a tool; the rest go".  This test keeps it true: it
enumerates the instrument names registered in ``src/repro`` and fails
for any that nothing reads, so a new counter arrives together with its
reader or not at all.

*Registered*: a string literal ``"<namespace>.<key>"`` passed to
``counter(...)`` / ``gauge(...)`` / ``histogram(...)`` (or the cluster
router's ``_count(...)``).  Families registered through an f-string
(``f"plan_cache.{key}"``) forward another structure's keys and are read
through that structure's own tests.

*Read*: the dotted name, or its key as a quoted string
(``snapshot.cluster["rejoins"]``), appears in ``tests/``, ``scripts/``,
``bench/``, ``benchmarks/``, ``examples/``, the CLI (``repro/__main__.py``)
or the bench runner (``repro/bench/``).
"""

from __future__ import annotations

import pathlib
import re

from repro.obs.snapshot import NAMESPACES

ROOT = pathlib.Path(__file__).resolve().parents[2]

REGISTRATION = re.compile(
    r"(?:\bcounter|\bgauge|\bhistogram|\b_count)\(\s*"
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


def test_the_scan_sees_the_registry():
    names = registered_names()
    assert len(names) > 100
    assert {
        "service.served",
        "cluster.rejoins",
        "catalog.version",
        "ingest.events_applied",
    } <= names


def test_every_registered_metric_has_a_reader():
    text = reader_text()
    unread = sorted(
        name
        for name in registered_names()
        if name not in text
        and f'"{name.split(".", 1)[1]}"' not in text
        and f"'{name.split('.', 1)[1]}'" not in text
    )
    assert not unread, (
        "registered but never read (give each a reader in a test, or "
        f"delete it): {unread}"
    )
