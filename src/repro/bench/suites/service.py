"""The ``service`` suite: overload shedding and the multi-process tier.

Two regimes on a *shared-factor* workload (a request stream sampled from
a small set of distinct queries, the optimizer-inner-loop pattern where
many concurrent estimations share decomposition factors):

``open_loop``
    requests arrive at a fixed rate — 4x what one sequential
    :class:`~repro.catalog.EstimationSession` sustains on this host,
    measured first — against a deliberately small queue: the overload
    regime.  Admission control must shed with typed ``Overloaded``
    responses, and everything admitted must still be answered
    (``served + shed == offered``, clean drain).
``cluster``
    the same stream, closed loop, through an
    :class:`~repro.cluster.EstimationCluster` at 1 shard and at
    ``shards`` shards, so the report carries the process-parallel
    speedup *measured on this host*.  The block records ``cores``
    (``os.cpu_count()``) because the scaling claim only materialises
    with >= ``shards`` physical cores — on a 1-core container the
    expected honest result is <1x (IPC overhead), and the numbers are
    reported as observed, never projected.

Closed-loop throughput and latency of the single-process service are the
repository benchmark's ``replay_hot`` / ``serve_tcp`` workloads
(``BENCHMARK.json``), not this suite.  Run with::

    PYTHONPATH=src python -m repro.bench service [output.json]
"""

from __future__ import annotations

import os
import random
import sys
import threading
import time

from repro.bench.suites import percentile
from repro.catalog import EstimationSession, StatisticsCatalog
from repro.engine.expressions import Query
from repro.service import (
    ClusterConfig,
    EstimationService,
    Overloaded,
    ServiceConfig,
)
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


def _drive_cluster(
    catalog,
    stream: list[Query],
    shards: int,
    clients: int,
    pipeline: int = 8,
) -> dict:
    """Closed loop through an :class:`~repro.cluster.EstimationCluster`
    of ``shards`` single-worker shard processes: ``clients`` threads,
    each keeping up to ``pipeline`` requests in flight (submit ahead,
    then wait for the oldest); latency is per request, submit to
    completion."""
    from repro.cluster import EstimationCluster

    config = ServiceConfig(
        queue_depth=max(256, len(stream)),
        cluster=ClusterConfig(
            shards=shards,
            shard_workers=1,
            # hedging off for the throughput measurement: a hedge doubles
            # the work of the slowest tail, which is honest for latency
            # but noise when comparing shard counts
            hedge_delay_s=60.0,
        ),
    )
    shards_of_work = [stream[i::clients] for i in range(clients)]
    latencies_by_client: list[list[float]] = [[] for _ in range(clients)]
    errors: list[BaseException] = []

    cluster = EstimationCluster(catalog, config=config)
    try:
        for query in _distinct(stream):  # warm every shard's template
            cluster.estimate(query)

        def client_loop(index: int) -> None:
            try:
                window: list[tuple[float, object]] = []
                record = latencies_by_client[index].append

                def reap() -> None:
                    t0, future = window.pop(0)
                    future.result(timeout=120.0)
                    record((time.perf_counter() - t0) * 1000.0)

                for query in shards_of_work[index]:
                    if len(window) >= pipeline:
                        reap()
                    window.append(
                        (time.perf_counter(), cluster.submit(query))
                    )
                while window:
                    reap()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=client_loop, args=(index,))
            for index in range(clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        snapshot = cluster.stats_snapshot()
    finally:
        cluster.close()
    if errors:
        raise RuntimeError(f"cluster client failed: {errors[0]!r}")
    latencies = [value for client in latencies_by_client for value in client]
    cluster_ns = dict(snapshot.cluster)
    return {
        "shards": shards,
        "clients": clients,
        "pipeline": pipeline,
        "requests": len(latencies),
        "seconds": elapsed,
        "qps": len(latencies) / elapsed if elapsed > 0 else 0.0,
        "mean_ms": sum(latencies) / len(latencies),
        "p50_ms": percentile(latencies, 0.50),
        "p95_ms": percentile(latencies, 0.95),
        "p99_ms": percentile(latencies, 0.99),
        "routed": cluster_ns.get("routed", 0.0),
        "spilled": cluster_ns.get("spilled", 0.0),
        "ejections": cluster_ns.get("ejections", 0.0),
    }


def run_cluster(
    catalog,
    stream: list[Query],
    shards: int,
    clients: int,
) -> dict:
    """The ``cluster`` block: 1 shard vs ``shards`` shards.

    ``cores`` is recorded so the reader can judge the speedup honestly:
    shard processes beat one process only when they run on distinct
    cores.  The numbers are measured, never projected.
    """
    single = _drive_cluster(catalog, stream, shards=1, clients=clients)
    print(f"cluster 1x:  {single['qps']:8.1f} qps", file=sys.stderr)
    sharded = _drive_cluster(catalog, stream, shards=shards, clients=clients)
    cores = os.cpu_count() or 1
    return {
        "cores": cores,
        "single_shard": single,
        "sharded": sharded,
        "speedup_vs_single_shard": (
            sharded["qps"] / single["qps"] if single["qps"] else 0.0
        ),
        "core_limited": cores < shards,
    }


def run(
    recorded: dict | None = None,
    scale: float = 0.15,
    seed: int = 42,
    distinct: int = 4,
    requests: int = 400,
    clients: int = 16,
    workers: int = 1,
    overload_queue_depth: int = 8,
    shards: int = 4,
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
        cluster = run_cluster(catalog, stream, shards=shards, clients=clients)
    finally:
        sys.setswitchinterval(previous_switch_interval)
    return {
        "meta": {
            "scale": scale,
            "seed": seed,
            "distinct_queries": distinct,
            "requests": requests,
        },
        "service": {"open_loop": open_loop, "cluster": cluster},
    }


def render(blocks: dict) -> str:
    open_loop = blocks["service"]["open_loop"]
    cluster = blocks["service"]["cluster"]
    return "\n".join(
        [
            (
                f"open loop:   shed {open_loop['shed']}/{open_loop['offered']} "
                f"({open_loop['shed_rate']:.0%}) at "
                f"{open_loop['offered_qps']:.0f} qps offered, "
                f"clean={open_loop['clean_shutdown']}, "
                f"conserved={open_loop['conservation_ok']}"
            ),
            (
                f"cluster:     {cluster['single_shard']['qps']:.1f} qps at 1 "
                f"shard, {cluster['sharded']['qps']:.1f} qps at "
                f"{cluster['sharded']['shards']} "
                f"({cluster['speedup_vs_single_shard']:.2f}x on "
                f"{cluster['cores']} core(s))"
            ),
        ]
    )
