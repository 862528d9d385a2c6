"""The one bench runner: ``python -m repro.bench <suite>... [output.json]``.

Each named suite (:mod:`repro.bench.suites`) is measured in the order
given and its blocks are *merged* into the gate file — ``BENCH_core.json``
at the repository root, unless the last argument is a path (it has a
``/`` or a ``.`` in it, which no suite name does).
Blocks of suites not named in this run stay exactly as recorded; there
is one ``meta``, with one entry per suite saying where and when its
blocks were last measured.  The exit code is 1 when a suite that gates
(``core``'s cold speedups, ``advisor``, ``ingest``) fails its gate.

What the repository benchmark (``BENCHMARK.json``, ``python -m bench``)
reports — request latency and throughput in-process, over TCP and under
a write storm, per-layer plan-cache / service / ingest numbers — is not
measured again here; DESIGN.md's "which number lives where" table maps
every quoted figure to one of the two files.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import platform
import sys
import time

import numpy as np

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parents[3] / "BENCH_core.json"

#: suite name -> what it measures (the listing ``python -m repro.bench``
#: prints); each is the module ``repro.bench.suites.<name>``
SUITES: dict[str, str] = {
    "core": (
        "legacy-vs-bitmask DP (n5/n7/n9), histogram kernels vs reference, "
        "tracing and fault-guard overhead, catalog refresh"
    ),
    "service": "open-loop overload shedding and conservation",
    "estimators": "sit / bn / sample shoot-out: accuracy, latency, space",
    "advisor": "self-tuned vs static diff_H configuration under a budget",
    "ingest": "invalidation throughput and conservation of the pipeline",
}


def read(output: pathlib.Path) -> dict:
    return json.loads(output.read_text()) if output.exists() else {}


def merge(output: pathlib.Path, suite: str, blocks: dict) -> dict:
    """The one writer: fold ``blocks`` into ``output`` and return the
    file's new content.  Never replaces the file — every other key stays
    as recorded."""
    recorded = read(output)
    blocks = dict(blocks)
    suites = dict(recorded.get("meta", {}).get("suites", {}))
    suites[suite] = {
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        **blocks.pop("meta", {}),
    }
    recorded.update(blocks)
    recorded["meta"] = {"suites": suites}
    output.write_text(json.dumps(recorded, indent=2) + "\n")
    return recorded


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    output = DEFAULT_OUTPUT
    if argv and ("/" in argv[-1] or "." in argv[-1]):
        output = pathlib.Path(argv.pop())
    unknown = [name for name in argv if name not in SUITES]
    if unknown or not argv:
        for name in unknown:
            print(f"unknown suite {name!r}", file=sys.stderr)
        print("usage: python -m repro.bench <suite>... [output.json]")
        for name, summary in SUITES.items():
            print(f"  {name:<11}{summary}")
        return 2 if unknown else 0

    failed = []
    recorded = read(output)
    for name in argv:
        module = importlib.import_module(f"repro.bench.suites.{name}")
        started = time.perf_counter()
        blocks = module.run(recorded)
        elapsed = time.perf_counter() - started
        recorded = merge(output, name, blocks)
        print(module.render(blocks))
        print(f"merged {name} into {output} ({elapsed:.1f}s)")
        if not getattr(module, "passed", lambda _: True)(blocks):
            failed.append(name)
    if failed:
        print(f"gate FAILED: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
