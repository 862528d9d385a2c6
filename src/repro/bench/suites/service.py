"""The ``service`` suite: overload shedding, and where the cluster wins.

``open_loop``
    a *shared-factor* stream (requests sampled from a small set of
    distinct queries, the optimizer-inner-loop pattern) arriving at a
    fixed rate — 4x what one sequential
    :class:`~repro.catalog.EstimationSession` sustains on this host,
    measured first — against a deliberately small queue: the overload
    regime.  Admission control must shed with typed ``Overloaded``
    responses, and everything admitted must still be answered
    (``served + shed == offered``, clean drain).
``cluster``
    the question the multi-process tier has to answer: does a
    ``SHARDS``-shard :class:`~repro.cluster.EstimationCluster` beat a
    ``WORKERS``-worker :class:`~repro.service.EstimationService` on the
    same host?  Two regimes, on the template classes of the repository
    benchmark's ``cold_shapes`` and ``replay_hot`` workloads over a J2
    catalog: the *cold mix* (every template a plan-cache miss, so DP,
    matching and histogram joins decide) and the *hot stream* (every
    answer a compiled-plan replay, so the hop decides).  Each reports
    estimates/s as q1 / median / q3 over alternating pairs, with the
    host's ``cores``: process parallelism only pays with >= ``SHARDS``
    cores, and the numbers are reported as measured, never projected.

Closed-loop throughput and latency of the single-process service are the
repository benchmark's ``replay_hot`` / ``serve_tcp`` workloads
(``BENCHMARK.json``), not this suite.  Run with::

    PYTHONPATH=src python -m repro.bench service [output.json]
"""

from __future__ import annotations

import os
import random
import sys
import time

from repro.bench.suites import percentile
from repro.catalog import EstimationSession, StatisticsCatalog
from repro.core.plancache import shape_fingerprint
from repro.engine.expressions import Query
from repro.service import (
    ClusterConfig,
    EstimationService,
    Overloaded,
    ServiceConfig,
)
from repro.workload.fixture import snowflake_fixture
from repro.workload.queries import WorkloadConfig, WorkloadGenerator
from repro.workload.snowflake import SnowflakeConfig, generate_snowflake

#: the cluster block compares this many service worker threads with this
#: many shard processes: one per core of the 2-core host it was decided on
WORKERS = SHARDS = 2
#: seed of the cluster block's database and templates (the repository
#: benchmark's fixed seed)
CLUSTER_SEED = 20040613
#: (joins, filters, templates) per class: the catalog is built over the
#: hot classes and the cold mix is drawn apart from it, as in the
#: benchmark's ``replay_hot`` / ``cold_shapes`` workloads
HOT_CLASSES = (
    (1, 2, 4), (1, 3, 3), (2, 2, 3), (2, 3, 3),
    (2, 4, 3), (3, 3, 3), (3, 4, 3), (4, 3, 3),
)  # fmt: skip
COLD_CLASSES = ((2, 2, 15), (2, 3, 16), (3, 3, 12), (3, 4, 4))


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


def draw_templates(
    database, classes: tuple[tuple[int, int, int], ...], seed: int
) -> list[Query]:
    """Up to ``count`` distinct query templates per ``(joins, filters,
    count)`` class, distinct on the plan-cache shape fingerprint, so each
    is its own plan-cache entry and shard placement."""
    templates: list[Query] = []
    for joins, filters, count in classes:
        generator = WorkloadGenerator(
            database,
            WorkloadConfig(
                join_count=joins,
                filter_count=filters,
                seed=seed + 1000 * joins + filters,
            ),
        )
        seen: set = set()
        for _attempt in range(50 * count):
            query = generator.generate_one()
            fingerprint = shape_fingerprint(query.predicates)[0]
            # the generator may drop filters on an empty result
            if len(query.predicates) == joins + filters and fingerprint not in seen:
                seen.add(fingerprint)
                templates.append(query)
                if len(seen) == count:
                    break
    return templates


def _rate(target, groups: list[list[Query]]) -> float:
    """Estimates per second answering ``groups`` in turn, each admitted
    as one group (``submit_many``), the way an optimizer asks for a
    plan's sub-plans."""
    started = time.perf_counter()
    for group in groups:
        for outcome in target.submit_many([(query, None) for query in group]):
            if isinstance(outcome, Exception):
                raise outcome
            outcome.result(timeout=120.0)
    return sum(map(len, groups)) / (time.perf_counter() - started)


def _pairs(measure: dict, pairs: int) -> dict:
    """``pairs`` runs of each side of ``measure`` (``"service"`` and
    ``"cluster"``, each a zero-argument rate), alternating which runs
    first: each side's q1 / median / q3 and the ratio of medians."""
    sides = list(measure)
    runs: dict[str, list[float]] = {side: [] for side in sides}
    for index in range(pairs):
        for side in sides if index % 2 == 0 else sides[::-1]:
            runs[side].append(measure[side]())
    block = {
        side: {
            "q1": percentile(values, 0.25),
            "median": percentile(values, 0.50),
            "q3": percentile(values, 0.75),
            "runs": values,
        }
        for side, values in runs.items()
    }
    block["cluster_vs_service"] = (
        block["cluster"]["median"] / block["service"]["median"]
    )
    return block


def run_cluster(
    catalog: StatisticsCatalog,
    cold: list[Query],
    hot: list[Query],
    pairs: int,
    rounds: int,
) -> dict:
    """The ``cluster`` block: a ``WORKERS``-worker service against a
    ``SHARDS``-shard cluster over the same catalog.

    ``cold_mix`` sends every ``cold`` template once, as one group, to a
    fresh service or cluster per pass; the service's pool joins are
    cleared first, since fresh shard processes start without any.
    ``hot_stream`` sends ``hot`` as ``rounds`` groups through one warmed
    instance per side, so every answer is a compiled-plan replay.
    """
    from repro.cluster import EstimationCluster

    service_config = ServiceConfig(workers=WORKERS)
    cluster_config = ServiceConfig(cluster=ClusterConfig(shards=SHARDS))

    def cold_service() -> float:
        catalog.pool.derived_joins.clear()
        with EstimationService(catalog, config=service_config) as service:
            return _rate(service, [cold])

    def cold_cluster() -> float:
        with EstimationCluster(catalog, config=cluster_config) as cluster:
            return _rate(cluster, [cold])

    cold_mix = _pairs({"service": cold_service, "cluster": cold_cluster}, pairs)
    with EstimationService(catalog, config=service_config) as service, \
            EstimationCluster(catalog, config=cluster_config) as cluster:
        # every worker / shard session compiles every shape
        _rate(service, [hot] * 4)
        _rate(cluster, [hot] * 4)
        hot_stream = _pairs(
            {
                "service": lambda: _rate(service, [hot] * rounds),
                "cluster": lambda: _rate(cluster, [hot] * rounds),
            },
            pairs,
        )
    return {
        "cores": os.cpu_count() or 1,
        "service_workers": WORKERS,
        "shards": SHARDS,
        "pairs": pairs,
        "unit": "estimates/s",
        "cold_mix": dict(cold_mix, requests_per_pass=len(cold)),
        "hot_stream": dict(hot_stream, requests_per_pass=len(hot) * rounds),
        "cluster_wins_cold_mix": (
            cold_mix["cluster"]["median"] >= cold_mix["service"]["median"]
        ),
    }


def run(
    recorded: dict | None = None,
    scale: float = 0.15,
    seed: int = 42,
    distinct: int = 4,
    requests: int = 400,
    workers: int = 1,
    overload_queue_depth: int = 8,
    cluster_scale: float = 1.0,
    pairs: int = 7,
    rounds: int = 20,
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

    database = generate_snowflake(
        SnowflakeConfig(scale=cluster_scale, seed=CLUSTER_SEED)
    )
    hot = draw_templates(database, HOT_CLASSES, CLUSTER_SEED)
    cold = draw_templates(database, COLD_CLASSES, CLUSTER_SEED)
    cluster_catalog = StatisticsCatalog.build(database, hot, max_joins=2)
    cluster_catalog.add_missing_base_histograms()
    print(
        f"cluster: {len(cold)} cold / {len(hot)} hot templates, "
        f"{len(cluster_catalog)} SITs, {pairs} pairs",
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
        cluster = run_cluster(cluster_catalog, cold, hot, pairs, rounds)
    finally:
        sys.setswitchinterval(previous_switch_interval)
    return {
        "meta": {
            "scale": scale,
            "seed": seed,
            "distinct_queries": distinct,
            "requests": requests,
            "cluster_scale": cluster_scale,
            "cluster_seed": CLUSTER_SEED,
            "rounds": rounds,
        },
        "service": {"open_loop": open_loop, "cluster": cluster},
    }


def render(blocks: dict) -> str:
    open_loop = blocks["service"]["open_loop"]
    cluster = blocks["service"]["cluster"]
    lines = [
        (
            f"open loop:   shed {open_loop['shed']}/{open_loop['offered']} "
            f"({open_loop['shed_rate']:.0%}) at "
            f"{open_loop['offered_qps']:.0f} qps offered, "
            f"clean={open_loop['clean_shutdown']}, "
            f"conserved={open_loop['conservation_ok']}"
        ),
        (
            f"cluster:     workers={cluster['service_workers']} service vs "
            f"shards={cluster['shards']} cluster, {cluster['pairs']} pairs "
            f"on {cluster['cores']} core(s), est/s q1 / median / q3"
        ),
    ]
    for name in ("cold_mix", "hot_stream"):
        regime = cluster[name]
        sides = ", ".join(
            f"{side} {regime[side]['q1']:.0f} / {regime[side]['median']:.0f} "
            f"/ {regime[side]['q3']:.0f}"
            for side in ("service", "cluster")
        )
        lines.append(
            f"  {name:<11}{sides} ({regime['cluster_vs_service']:.2f}x)"
        )
    return "\n".join(lines)
