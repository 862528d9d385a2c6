"""The ``service`` suite: overload shedding.

``open_loop``
    a *shared-factor* stream (requests sampled from a small set of
    distinct queries, the optimizer-inner-loop pattern) arriving at a
    fixed rate — 4x what one sequential
    :class:`~repro.catalog.EstimationSession` sustains on this host,
    measured first — against a deliberately small queue: the overload
    regime.  Admission control must shed with typed ``Overloaded``
    responses, and everything admitted must still be answered
    (``served + shed == offered``, clean drain).

Closed-loop throughput and latency of the service are the repository
benchmark's ``replay_hot`` / ``serve_tcp`` workloads
(``BENCHMARK.json``), not this suite.  Run with::

    PYTHONPATH=src python -m repro.bench service [output.json]
"""

from __future__ import annotations

import random
import sys
import time

from repro.catalog import EstimationSession, StatisticsCatalog
from repro.engine.expressions import Query
from repro.service import EstimationService, Overloaded, ServiceConfig
from repro.workload.fixture import snowflake_fixture

def request_stream(
    queries: list[Query], requests: int, seed: int
) -> list[Query]:
    """The shared-factor stream: ``requests`` draws from the distinct
    query set (duplicates are the point — concurrent consumers of an
    optimizer ask overlapping questions)."""
    rng = random.Random(seed)
    return [rng.choice(queries) for _ in range(requests)]


def _distinct(stream: list[Query]) -> list[Query]:
    return list({id(query): query for query in stream}.values())


def sequential_qps(catalog: StatisticsCatalog, stream: list[Query]) -> float:
    """What one warm session sustains answering the stream one query at
    a time — the yardstick the open-loop arrival rate is a multiple of."""
    session = EstimationSession(catalog)
    for query in _distinct(stream):  # one-off factor construction
        session.estimate(query)
    started = time.perf_counter()
    for query in stream:
        session.estimate(query)
    return len(stream) / (time.perf_counter() - started)


def run_open_loop(
    catalog: StatisticsCatalog,
    stream: list[Query],
    rate_qps: float,
    workers: int,
    queue_depth: int,
) -> dict:
    """Fixed-rate arrivals against a small queue: the overload regime."""
    config = ServiceConfig(
        workers=workers,
        queue_depth=queue_depth,
        max_batch=64,
    )
    interval = 1.0 / rate_qps if rate_qps > 0 else 0.0
    futures = []
    shed = 0
    with EstimationService(catalog, config=config) as service:
        for query in _distinct(stream):  # warm
            service.estimate(query)
        started = time.perf_counter()
        for index, query in enumerate(stream):
            target = started + index * interval
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                futures.append(service.submit(query))
            except Overloaded:
                shed += 1
        # everything admitted must complete (graceful drain)
        for future in futures:
            future.result(timeout=60.0)
        elapsed = time.perf_counter() - started
        snapshot = service.stats_snapshot()
        clean = service.close()
    latency = dict(snapshot.service).get("latency_ms", {})
    offered = len(stream)
    served = len(futures)
    return {
        "offered": offered,
        "offered_qps": rate_qps,
        "served": served,
        "shed": shed,
        "shed_rate": shed / offered if offered else 0.0,
        "seconds": elapsed,
        "achieved_qps": served / elapsed if elapsed > 0 else 0.0,
        "queue_depth": queue_depth,
        "clean_shutdown": clean,
        "p50_ms": latency.get("p50", 0.0),
        "p95_ms": latency.get("p95", 0.0),
        "p99_ms": latency.get("p99", 0.0),
        "conservation_ok": served + shed == offered,
    }


def run(
    recorded: dict | None = None,
    scale: float = 0.15,
    seed: int = 42,
    distinct: int = 4,
    requests: int = 400,
    workers: int = 1,
    overload_queue_depth: int = 8,
) -> dict:
    fixture = snowflake_fixture(
        scale, seed, distinct, join_count=4, filter_count=4, max_joins=2
    )
    catalog = fixture.catalog
    stream = request_stream(fixture.queries, requests, seed)
    print(
        f"workload: {distinct} distinct queries, {requests} requests, "
        f"{len(catalog)} SITs",
        file=sys.stderr,
    )

    # Bench-scoped: shrink the GIL switch interval so worker wake-ups
    # (future completions) propagate promptly instead of waiting out the
    # default 5ms scheduling quantum.  Restored before returning.
    previous_switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    try:
        open_loop = run_open_loop(
            catalog,
            stream,
            rate_qps=4.0 * sequential_qps(catalog, stream),
            workers=workers,
            queue_depth=overload_queue_depth,
        )
    finally:
        sys.setswitchinterval(previous_switch_interval)
    return {
        "meta": {
            "scale": scale,
            "seed": seed,
            "distinct_queries": distinct,
            "requests": requests,
        },
        "service": {"open_loop": open_loop},
    }


def render(blocks: dict) -> str:
    open_loop = blocks["service"]["open_loop"]
    return (
        f"open loop:   shed {open_loop['shed']}/{open_loop['offered']} "
        f"({open_loop['shed_rate']:.0%}) at "
        f"{open_loop['offered_qps']:.0f} qps offered, "
        f"clean={open_loop['clean_shutdown']}, "
        f"conserved={open_loop['conservation_ok']}"
    )
