"""The ``ingest`` suite: invalidation throughput of the streaming pipeline.

Update events admitted, coalesced into epochs and applied through the
catalog's one ``notify_table_update`` path — events per second from
first submit to quiesce, on this host, with no projection.  Invalidation
cost must be per-*epoch*, not per-*event*, or a hot table amplifies a
write storm into a pool-invalidation storm; a throughput three orders of
magnitude above refresh is what that buys.

What a storm costs the *serving* path (latency under writes, coalesce
ratio, epochs, staleness) is the repository benchmark's ``write_storm``
workload (``BENCHMARK.json``), not this suite.  Run with::

    PYTHONPATH=src python -m repro.bench ingest [output.json]

Gates (they decide the runner's exit code):

* ``events_per_s`` >= 1000;
* conservation — every accepted event applied, the pipeline drained and
  the staleness tracker quiesced (no acked write left unapplied).
"""

from __future__ import annotations

import time

from repro.ingest import IngestConfig, IngestOverloaded, IngestPipeline
from repro.workload.fixture import snowflake_fixture

SCALE = 0.05
SEED = 11
EVENTS_PER_S_FLOOR = 1000.0


def run(recorded: dict | None = None, storm_events: int = 50_000) -> dict:
    catalog = snowflake_fixture(SCALE, SEED, 4).catalog
    tables = sorted(catalog.database.tables)
    shed = 0
    with IngestPipeline(
        catalog, config=IngestConfig(queue_depth=4096)
    ) as pipeline:
        started = time.perf_counter()
        for index in range(storm_events):
            try:
                pipeline.submit(tables[index % len(tables)])
            except IngestOverloaded:
                shed += 1
                time.sleep(0.0002)  # typed backpressure: back off
        drained = pipeline.flush(timeout=120.0)
        elapsed = time.perf_counter() - started
        applied = pipeline.stats_snapshot().ingest.get("events_applied", 0.0)
        quiesced = pipeline.tracker.quiesced()

    accepted = storm_events - shed
    events_per_s = accepted / elapsed
    return {
        "ingest": {
            "workload": {
                "scale": SCALE,
                "seed": SEED,
                "tables": len(tables),
                "sits": len(catalog),
            },
            "invalidation": {
                "offered_events": storm_events,
                "accepted_events": accepted,
                "shed_events": shed,
                "seconds": elapsed,
                "events_per_s": events_per_s,
            },
            "gates": {
                "events_per_s_floor": EVENTS_PER_S_FLOOR,
                "events_per_s_ok": events_per_s >= EVENTS_PER_S_FLOOR,
                "conservation_ok": (
                    drained and quiesced and applied == float(accepted)
                ),
            },
        }
    }


def passed(blocks: dict) -> bool:
    gates = blocks["ingest"]["gates"]
    return gates["events_per_s_ok"] and gates["conservation_ok"]


def render(blocks: dict) -> str:
    invalidation = blocks["ingest"]["invalidation"]
    return (
        f"ingest: {invalidation['accepted_events']} events "
        f"({invalidation['shed_events']} shed) in "
        f"{invalidation['seconds']:.2f}s = "
        f"{invalidation['events_per_s']:.0f} events/s, "
        f"gates: {'pass' if passed(blocks) else 'FAIL'}"
    )
