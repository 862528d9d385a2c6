"""CI smokes for the serving stack, behind one scaffold.

    PYTHONPATH=src python scripts/smoke.py <name>... | all

Every smoke builds its statistics through the one fixture
(:func:`repro.workload.fixture.snowflake_fixture` at scale 0.05 — plus
base histograms for every schema attribute, exactly as ``python -m repro
serve`` does), serves over TCP through :func:`served` (ephemeral port,
``connect`` client, asserted clean drain) and exits non-zero on any
violation.  The driver bounds each smoke's wall clock (a hang is a
failure, not a timeout someone else notices) and audits that nothing is
left behind: no child process, no ``/dev/shm/psm_*`` segment.

``service``       50 queries over TCP; a burst against a depth-1 queue sheds
``estimators``    every backend (sit / bn / sample) over TCP, with provenance
``plan_cache``    templated workload: hit rate, replay determinism, coherence,
                  a query's sub-plans each replaying on their second ask,
                  EXPLAIN of a hit equal to a plan-cache-off EXPLAIN, and hot
                  answers over a loaded catalog building no ``Bucket`` object
``chaos``         seeded mixed fault plan: 100 typed answers, zero-fault parity
``cluster``       3 shards: routed parity, hot swap, crash / hold / respawn
``chaos_ingest``  write storm + faults under TCP load; faulted cluster swap
``advisor``       tuned service accepts under budget; impossible bound rejects

The ``__main__`` guard is load-bearing: shard processes start via the
``spawn`` method, which re-imports this file.
"""

from __future__ import annotations

import contextlib
import gc
import glob
import multiprocessing
import pathlib
import sys
import tempfile
import threading
import time

from repro.advisor import AdvisorConfig, SelfTuningAdvisor
from repro.advisor.loop import ACCEPTED
from repro.advisor.safety import NO_SOLUTION_FOUND
from repro.advisor.search import q_error
from repro.catalog import EstimationSession, StatisticsCatalog
from repro.catalog.catalog import RefreshConflict
from repro.cluster import EstimationCluster
from repro.core.plancache import shape_fingerprint
from repro.engine.executor import Executor
from repro.estimators import BACKENDS
from repro.histograms.base import Bucket
from repro.ingest import (
    EstimateDriftProbe,
    IngestConfig,
    IngestOverloaded,
    IngestPipeline,
)
from repro.obs import StalenessTracker
from repro.resilience.faults import FaultPlan, FaultRule, armed
from repro.service import (
    ClusterConfig,
    EstimationService,
    HealingConfig,
    Overloaded,
    ServiceConfig,
    ServiceError,
    connect,
)
from repro.service.protocol import ServedEstimate
from repro.service.server import start_in_thread
from repro.sql import parse_query
from repro.workload.fixture import SnowflakeFixture, snowflake_fixture
from repro.workload.queries import connected_subqueries

SCALE = 0.05
SEED = 11
#: a smoke that runs longer than this is treated as a hang / deadlock
WALL_CLOCK_BUDGET_S = 300.0

#: three shapes over the snowflake star: numeric constants sort ahead of
#: the join token, so varying them never permutes the predicate order —
#: every instantiation of a template lands on one fingerprint
TEMPLATES = (
    "SELECT * FROM sales, customer "
    "WHERE sales.customer_id = customer.customer_id "
    "AND customer.age BETWEEN {low} AND {high}",
    "SELECT * FROM sales, customer "
    "WHERE sales.customer_id = customer.customer_id "
    "AND customer.income BETWEEN {low} AND {high}",
    "SELECT * FROM sales, product "
    "WHERE sales.product_id = product.product_id "
    "AND product.weight BETWEEN {low} AND {high}",
)
SQL_TEMPLATE = TEMPLATES[0]


# ----------------------------------------------------------------------
# The scaffold
# ----------------------------------------------------------------------
def serving_fixture(holdout: int = 0) -> SnowflakeFixture:
    """A J1 catalog over two workload queries that answers ad-hoc SQL on
    any attribute."""
    fixture = snowflake_fixture(SCALE, SEED, 2, holdout=holdout)
    fixture.catalog.add_missing_base_histograms()
    print(f"catalog: {len(fixture.catalog)} SITs")
    return fixture


@contextlib.contextmanager
def served(service, **connect_kwargs):
    """Serve ``service`` (a service or a cluster) over TCP on an
    ephemeral port and yield a connected client; leaving the block
    drains, and the drain must be clean."""
    with start_in_thread(service, port=0) as handle:
        with connect(handle.address, **connect_kwargs) as client:
            yield client
        clean = handle.close()
    assert clean, "drain/shutdown was not clean"
    assert service.closed


def age_ranges(count: int, spread: int, width: int) -> list[str]:
    return [
        SQL_TEMPLATE.format(
            low=18 + (i % spread), high=18 + (i % spread) + width
        )
        for i in range(count)
    ]


def wait_until(predicate, timeout_s: float = 60.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
def smoke_service() -> None:
    fixture = serving_fixture()
    catalog = fixture.catalog

    # one shape with 50 constant sets through the TCP front-end: every
    # answer is the in-process one, and the shape was parsed once
    sqls = age_ranges(50, spread=50, width=25)
    session = EstimationSession(catalog)
    schema = fixture.database.schema
    service = EstimationService(
        catalog,
        config=ServiceConfig(workers=2, queue_depth=256),
    )
    with served(service) as client:
        assert client.ping(), "server did not answer ping"
        versions = set()
        for sql in sqls:
            answer = client.estimate(sql)
            expected = session.estimate(parse_query(sql, schema)).selectivity
            assert answer.selectivity == expected, (sql, answer, expected)
            assert answer.cardinality >= 0.0, answer
            versions.add(answer.snapshot_version)
        stats = client.stats()["service"]
        assert stats["served"] >= len(sqls), f"served {stats['served']} < {len(sqls)}"
        hits, misses = stats["sql_template_hits"], stats["sql_template_misses"]
        assert hits >= len(sqls) - 1, f"template hits {hits}, misses {misses}"
        assert hits + misses == len(sqls), (hits, misses)
    print(
        f"tcp: {len(sqls)} queries ok, versions={sorted(versions)}, "
        f"sql templates {hits:g} hits / {misses:g} misses"
    )

    # a burst against a depth-1 queue must shed with typed Overloaded —
    # and everything admitted must still be answered
    config = ServiceConfig(workers=1, queue_depth=1)
    query = SQL_TEMPLATE.format(low=20, high=40)
    with EstimationService(catalog, config=config) as service:
        shed = 0
        futures = []
        for _ in range(5):  # retry bursts until the queue fills
            for _ in range(200):
                try:
                    futures.append(service.submit(query))
                except Overloaded:
                    shed += 1
            if shed:
                break
        for future in futures:
            answer = future.result(timeout=60.0)
            assert 0.0 <= answer.selectivity <= 1.0, answer
        clean = service.close()
    assert shed > 0, "burst against depth-1 queue never shed"
    assert clean, "drain after shedding was not clean"
    print(f"shed: admitted {len(futures)}, shed {shed}, clean drain")


# ----------------------------------------------------------------------
# estimators
# ----------------------------------------------------------------------
def smoke_estimators() -> None:
    catalog = serving_fixture().catalog
    sqls = age_ranges(50, spread=10, width=25)
    for backend in BACKENDS:
        service = EstimationService(
            catalog,
            config=ServiceConfig(
                workers=2,
                queue_depth=256,
                backend=backend,
            ),
        )
        with served(service) as client:
            assert client.ping(), "server did not answer ping"
            for sql in sqls:
                answer = client.estimate(sql)
                assert 0.0 <= answer.selectivity <= 1.0, answer
                assert answer.cardinality >= 0.0, answer
                assert answer.backend == backend, (
                    f"expected backend {backend!r}, got {answer.backend!r}"
                )
                if backend == "sample":
                    assert (
                        answer.error_bound is not None
                        and answer.error_bound > 0.0
                    ), answer
                else:
                    assert answer.error_bound is None, answer
        print(f"{backend}: {len(sqls)} queries ok, clean drain")


# ----------------------------------------------------------------------
# plan_cache
# ----------------------------------------------------------------------
def smoke_plan_cache() -> None:
    """The steady-state contract the plan cache promises production: hit
    rate above 80% on a templated workload, bit-identical replays, a
    ``notify_table_update`` mid-stream forces a recompile instead of a
    stale hit, and a clean drain with the cache enabled."""
    variants, hit_rate_bar = 40, 0.80
    fixture = serving_fixture()
    catalog = fixture.catalog
    workload = [
        template.format(low=5 + 3 * i, high=5 + 3 * i + 25)
        for i in range(variants)
        for template in TEMPLATES
    ]
    config = ServiceConfig(workers=2, queue_depth=64)
    service = EstimationService(catalog, config=config)
    with served(service, timeout_s=60.0) as client:
        answers: dict[str, ServedEstimate] = {}
        for sql in workload:
            answer = client.estimate(sql)
            assert isinstance(answer, ServedEstimate), answer
            assert answer.degradation_level == 0, answer
            assert 0.0 <= answer.selectivity <= 1.0, answer
            answers[sql] = answer

        # replay determinism end to end: repeating a request must
        # return the bit-identical selectivity (and hit the cache)
        for sql in list(answers)[:: len(answers) // 6 or 1]:
            again = client.estimate(sql)
            assert again.selectivity == answers[sql].selectivity, sql
            assert again.plan_cache_hit, sql

        stats = client.stats()
        block = stats.get("plan_cache", {})
        assert block, f"no plan_cache namespace in stats: {sorted(stats)}"
        hit_rate = block.get("hit_rate", 0.0)
        assert hit_rate > hit_rate_bar, (
            f"plan-cache hit rate {hit_rate:.3f} <= {hit_rate_bar}: {block}"
        )
        assert block.get("plans", 0) >= len(TEMPLATES), block
        print(
            f"steady state: {len(answers)} unique requests, "
            f"hit rate {hit_rate:.3f}, "
            f"{block.get('plans', 0):.0f} plans "
            f"({block.get('compiles', 0):.0f} compiles, "
            f"{block.get('bytes', 0):.0f} bytes)"
        )

        # coherence mid-stream: an update must force a recompile, not
        # serve the stale plan — then steady state resumes.  Every
        # worker owns a session (and cache), so each needs one miss
        # to recompile before the probe is guaranteed to hit.  A notify
        # changes no histogram: the recompiles read the pool's derived
        # joins and run the join kernel 0 times.
        joins_before = client.stats()["caches"]["join_memo_misses"]
        catalog.notify_table_update("customer")
        probe = TEMPLATES[0].format(low=5, high=30)
        first = client.estimate(probe)
        assert not first.plan_cache_hit, "stale plan served after update"
        recompiles = 1
        for _ in range(4 * config.workers):
            if client.estimate(probe).plan_cache_hit:
                break
            recompiles += 1
        else:
            raise AssertionError("cache never refilled after the update")
        assert recompiles <= config.workers, (
            f"{recompiles} recompiles for {config.workers} workers"
        )
        # post-update telemetry: the namespace reflects the recompile
        # (workers either evict in place or retire the whole session,
        # so the observable invariant is a fresh miss + compile, never
        # a served stale hit)
        after = client.stats().get("plan_cache", {})
        assert after.get("misses", 0) >= 1, after
        assert after.get("compiles", 0) >= 1, after
        joins_after = client.stats()["caches"]["join_memo_misses"]
        assert joins_after == joins_before, (
            f"recompiles after a notify joined {joins_after - joins_before:.0f} "
            "histogram pairs again"
        )
        print(
            f"coherence: update forced {recompiles} per-worker "
            f"recompiles (pool_version "
            f"{after.get('pool_version', 0):.0f}, 0 new joins), "
            "steady state resumed"
        )
    optimizer_pattern(fixture)
    explain_of_a_hit(fixture)
    hot_answers_over_a_loaded_catalog(fixture)


def hot_answers_over_a_loaded_catalog(fixture: SnowflakeFixture) -> None:
    """200 plan-cache hits through a service over a saved-and-loaded
    catalog: each answer ``==`` a plan-cache-off session's, and no
    ``Bucket`` object is alive afterwards — a histogram is its columns,
    and neither the save, the load nor the answers (the scalar
    estimators walk float rows) keep one."""
    with tempfile.TemporaryDirectory() as directory:
        path = pathlib.Path(directory) / "catalog.json"
        fixture.catalog.save(path)
        catalog = StatisticsCatalog.load(
            path, database=fixture.database, quarantine=False
        )
    schema = fixture.database.schema
    warm_up = [template.format(low=8, high=33) for template in TEMPLATES]
    hot = [
        TEMPLATES[i % len(TEMPLATES)].format(
            low=5 + i % 40, high=15 + i % 40 + i % 25
        )
        for i in range(200)
    ]
    service = EstimationService(
        catalog, config=ServiceConfig(workers=1, queue_depth=64)
    )
    with served(service, timeout_s=60.0) as client:
        for sql in warm_up:
            client.estimate(sql)
        answers = [client.estimate(sql) for sql in hot]
    twin = EstimationSession(catalog, plan_cache=False)
    for sql, answer in zip(hot, answers):
        assert answer.plan_cache_hit, sql
        expected = twin.estimate(parse_query(sql, schema)).selectivity
        assert answer.selectivity == expected, (sql, answer.selectivity, expected)
    pool = catalog.pool
    histograms = len(pool) + len(pool.derived_joins)
    gc.collect()
    alive = sum(isinstance(o, Bucket) for o in gc.get_objects())
    assert alive == 0, f"{alive} Bucket objects alive beside {histograms} histograms"
    print(
        f"loaded catalog: {len(hot)} hot answers == plan-cache-off, "
        f"0 Bucket objects alive beside {histograms} histograms"
    )


def explain_of_a_hit(fixture: SnowflakeFixture) -> None:
    """EXPLAIN of a query whose shape is already compiled: the estimate
    inside it is a plan-cache hit, so the factors it renders are built
    from the replay when EXPLAIN reads them — and must be the factors,
    SITs and error contributions a plan-cache-off session explains."""
    schema = fixture.database.schema
    warm = EstimationSession(fixture.catalog)
    cold = EstimationSession(fixture.catalog, plan_cache=False)
    factors = 0
    for template in TEMPLATES:
        warm.estimate(parse_query(template.format(low=8, high=33), schema))
        query = parse_query(template.format(low=12, high=41), schema)
        hit, reference = warm.explain(query), cold.explain(query)
        assert hit.plan_cache_hit and not reference.plan_cache_hit
        assert hit.factors == reference.factors, (hit.factors, reference.factors)
        assert hit.selectivity == reference.selectivity
        assert hit.error == reference.error
        lines = hit.render_text().splitlines()
        lines.remove("plan cache:  hit (replayed compiled plan)")
        assert lines == reference.render_text().splitlines()
        factors += len(hit.factors)
    print(
        f"explain of a hit: {len(TEMPLATES)} compiled shapes, {factors} "
        f"factors rendered as a plan-cache-off session renders them"
    )


def optimizer_pattern(fixture: SnowflakeFixture) -> None:
    """Section 4 over TCP: an optimizer asks for a join query, then for
    each of its connected sub-plans.  Every sub-plan is solved from the
    memo the query left — so it compiles on its first ask — and replays
    on its second.  One worker: one session sees the whole pattern."""
    sql = (
        "SELECT * FROM sales, customer, product "
        "WHERE sales.customer_id = customer.customer_id "
        "AND sales.product_id = product.product_id "
        "AND customer.age BETWEEN 20 AND 45 "
        "AND product.weight BETWEEN 5 AND 30"
    )
    query = parse_query(sql, fixture.database.schema)
    sub_plans = [
        sub for sub in connected_subqueries(query) if sub != query.predicates
    ]
    shapes = {shape_fingerprint(sub)[0] for sub in sub_plans}
    config = ServiceConfig(workers=1, queue_depth=64)
    service = EstimationService(fixture.catalog, config=config)
    with served(service, timeout_s=60.0) as client:
        assert not client.estimate(sql).plan_cache_hit
        plans = client.stats()["plan_cache"]["plans"]
        for sub in sub_plans:
            first, second = client.estimate(sub), client.estimate(sub)
            assert second.plan_cache_hit, sorted(map(str, sub))
            assert second.selectivity == first.selectivity
        grown = client.stats()["plan_cache"]["plans"] - plans
        assert grown == len(shapes), (grown, len(shapes))
    print(
        f"optimizer pattern: {len(sub_plans)} sub-plans of one query, "
        f"{len(shapes)} shapes compiled, every second ask replayed"
    )


# ----------------------------------------------------------------------
# chaos
# ----------------------------------------------------------------------
def smoke_chaos() -> None:
    catalog = serving_fixture().catalog
    sqls = age_ranges(100, spread=23, width=20)

    # 100 queries under a seeded mixed plan (three fault kinds at three
    # injection points): 100 typed answers — a (possibly degraded)
    # estimate, a typed shed or a typed ServiceError, never a hang or an
    # untyped crash — and a clean drain with the plan still armed
    config = ServiceConfig(
        workers=2,
        queue_depth=32,
        healing=HealingConfig(
            requeue_limit=2,
            breaker_threshold=1_000,  # crashes are version-independent here
            max_worker_restarts=200,
        ),
    )
    plan = FaultPlan(
        [
            FaultRule(
                point="sit_match",
                fault="sit_unavailable",
                probability=0.15,
                max_fires=None,
            ),
            FaultRule(
                point="histogram_join",
                fault="histogram_corrupt",
                probability=0.03,
                max_fires=None,
            ),
            FaultRule(
                point="worker_batch",
                fault="worker_crash",
                probability=0.03,
                max_fires=None,
            ),
        ],
        seed=2004,
    )
    answered = degraded = shed = failed = 0
    with armed(plan):
        service = EstimationService(catalog, config=config)
        with served(service, timeout_s=60.0) as client:
            for sql in sqls:
                try:
                    answer = client.estimate(sql)
                except Overloaded:
                    shed += 1
                    continue
                except ServiceError as exc:
                    assert str(exc), "untyped empty failure"
                    failed += 1
                    continue
                assert isinstance(answer, ServedEstimate), answer
                assert 0.0 <= answer.selectivity <= 1.0, answer
                answered += 1
                if answer.degradation_level:
                    degraded += 1
                    assert answer.excluded_sits or (
                        answer.degradation_level >= 2
                    ), answer
            stats = client.stats()

    typed = answered + shed + failed
    assert typed == len(sqls), f"{typed}/{len(sqls)} typed answers"
    assert plan.total_fires > 0, "the chaos plan never fired"
    fired_kinds = {key.split(".", 1)[1] for key in plan.stats()}
    assert len(fired_kinds) >= 2, f"too few fault kinds fired: {fired_kinds}"
    resilience = stats.get("resilience", {})
    if degraded:
        level_keys = [
            key for key in resilience if key.startswith("degraded_level")
        ]
        assert level_keys, f"no degradation levels in snapshot: {resilience}"
    print(
        f"chaos: {answered} served ({degraded} degraded), "
        f"{shed} shed, {failed} typed failures, "
        f"{resilience.get('worker_crashes', 0):.0f} worker crashes, "
        f"plan fired {plan.stats()}"
    )

    # an armed-but-silent plan must not perturb a single bit (the
    # overhead half of that gate is `python -m repro.bench core`)
    config = ServiceConfig(workers=1, queue_depth=64)
    sample = sqls[:10]
    with EstimationService(catalog, config=config) as service:
        baseline = [service.estimate(sql, timeout=None) for sql in sample]
        silent = FaultPlan(
            [FaultRule(point="sit_match", after=10**9, max_fires=None)],
            seed=0,
        )
        with armed(silent):
            under_plan = [
                service.estimate(sql, timeout=None) for sql in sample
            ]
        assert silent.total_fires == 0
    for before, after in zip(baseline, under_plan):
        assert after.selectivity == before.selectivity, (before, after)
        assert after.cardinality == before.cardinality, (before, after)
        assert after.degradation_level == 0, after
    print(f"zero-fault parity: {len(sample)} queries bit-identical")


# ----------------------------------------------------------------------
# cluster
# ----------------------------------------------------------------------
def smoke_cluster() -> None:
    """3 shards over one shared-memory snapshot behind the stock TCP
    front-end: routed parity, one hot swap, one forced crash (hold,
    respawn in place, catch up), clean close."""
    fixture = snowflake_fixture(SCALE, SEED, 4)
    catalog = fixture.catalog
    workload = [fixture.queries[index % 4] for index in range(100)]
    reference = EstimationSession(catalog, database=catalog.database)
    expected = [reference.estimate(query) for query in workload]
    print(f"catalog: {len(catalog)} SITs, workload: {len(workload)} queries")

    cluster = EstimationCluster(
        catalog,
        config=ServiceConfig(
            cluster=ClusterConfig(shards=3, shard_workers=1)
        ),
    )
    with served(cluster) as client:
        # -- routed parity: bit-identical to one session ----------------
        answers = client.estimate_batch(workload, timeout=120.0)
        shards_seen = set()
        for answer, want in zip(answers, expected):
            assert answer.selectivity == want.selectivity, (answer, want)
            assert answer.error == want.error
            shards_seen.add(answer.shard)
        assert len(shards_seen) >= 2, (
            f"workload never spread across shards: {shards_seen}"
        )
        print(
            f"parity: {len(answers)} bit-identical answers "
            f"across shards {sorted(shards_seen)}"
        )

        # -- hot swap mid-stream: new version on every shard ------------
        before = catalog.version
        cluster.notify_table_update("customer")
        after = catalog.version
        assert after == before + 1
        swapped = client.estimate_batch(workload[:30], timeout=120.0)
        for answer, want in zip(swapped, expected):
            assert answer.selectivity == want.selectivity
            assert answer.snapshot_version == after, answer
        print(f"hot swap: version {before} -> {after}, coherent")

        # -- crash, hold, respawn, catch up: zero client-visible errors -
        crashed = min(shards_seen)
        cluster.inject_crash(crashed)
        # estimate_batch raises on the first failed answer
        revived = client.estimate_batch(workload, timeout=120.0)
        for answer, want in zip(revived, expected):
            assert answer.selectivity == want.selectivity, (answer, want)
            assert answer.error == want.error
            assert answer.snapshot_version == after, answer
        assert crashed in {answer.shard for answer in revived}

        def counter(name: str) -> float:
            return cluster.stats_snapshot().cluster.get(name, 0.0)

        assert counter("shard_faults") >= 1.0, "the crash was never seen"
        assert wait_until(lambda: counter("rejoins") >= 1.0), (
            "crashed shard never came back"
        )
        print(
            f"chaos: shard {crashed} crashed, "
            f"faults={counter('shard_faults'):.0f}, "
            f"rejoins={counter('rejoins'):.0f}, {len(revived)} answers "
            "bit-identical at the post-swap version"
        )


# ----------------------------------------------------------------------
# chaos_ingest
# ----------------------------------------------------------------------
def smoke_chaos_ingest() -> None:
    fixture = serving_fixture(holdout=2)
    ingest_storm(fixture)
    swap_under_write(fixture)


def ingest_storm(fixture: SnowflakeFixture) -> None:
    """A table-update storm through the ingest pipeline, seeded faults at
    the storm points, and 100 TCP queries: zero client-visible errors,
    staleness reported, clean quiesce, bit-identical once settled."""
    catalog = fixture.catalog
    storm_events = 400
    config = ServiceConfig(workers=2, queue_depth=64)
    sqls = age_ranges(100, spread=23, width=20)
    sample = sqls[:10]

    # pre-storm baseline off a clean serve
    with EstimationService(catalog, config=config) as service:
        baseline = [service.estimate(sql, timeout=None) for sql in sample]

    tracker = StalenessTracker()
    drift_probe = EstimateDriftProbe(
        estimate=EstimationSession(catalog).selectivity,
        truth=Executor(catalog.database).selectivity,
        queries=[frozenset(query.predicates) for query in fixture.queries],
    )
    tables = sorted(catalog.database.tables)
    # deterministic faults at the storm points: three apply faults
    # (retried, then requeued — never dropped) and two mid-rebuild
    # refresh faults (refresh aborts with nothing published)
    plan = FaultPlan(
        [
            FaultRule(point="ingest_apply", probability=1.0, max_fires=3),
            FaultRule(
                point="refresh_during_storm", probability=1.0, max_fires=2
            ),
        ],
        seed=2004,
    )
    shed = refresh_aborts = 0
    errors: list[BaseException] = []
    with armed(plan):
        service = EstimationService(catalog, config=config)
        service.attach_staleness(tracker)
        pipeline = IngestPipeline(
            catalog,
            config=IngestConfig(queue_depth=256, drift_every=3),
            tracker=tracker,
            drift_probe=drift_probe,
        )
        storm_done = threading.Event()

        def storm() -> None:
            nonlocal shed
            try:
                for index in range(storm_events):
                    try:
                        pipeline.submit(tables[index % len(tables)])
                    except IngestOverloaded:
                        shed += 1  # typed backpressure, not an error
                    if index % 25 == 0:
                        time.sleep(0.001)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                storm_done.set()

        def refresher() -> None:
            nonlocal refresh_aborts
            for _ in range(6):
                # wait first, so the last round always refreshes tables
                # the storm has already bumped (a fast host can finish
                # the storm inside one 20 ms pause)
                done = storm_done.wait(timeout=0.02)
                try:
                    catalog.refresh()
                except (RefreshConflict, Exception):
                    # injected mid-rebuild fault or membership race:
                    # rolled back, nothing published — count and retry
                    refresh_aborts += 1
                if done:
                    break

        workers = [
            threading.Thread(target=storm, name="storm"),
            threading.Thread(target=refresher, name="refresher"),
        ]
        for worker in workers:
            worker.start()

        answers: list[ServedEstimate] = []
        with served(service, timeout_s=60.0) as client:
            for sql in sqls:
                answer = client.estimate(sql)  # zero-error bar:
                assert isinstance(answer, ServedEstimate), answer
                assert 0.0 <= answer.selectivity <= 1.0, answer
                answers.append(answer)
            for worker in workers:
                worker.join(timeout=60.0)
                assert not worker.is_alive(), worker.name
            assert pipeline.quiesce(timeout=60.0), "pipeline never drained"
            stats = client.stats()
        pipeline.close()

    assert not errors, errors
    assert tracker.quiesced(), "acked writes left unapplied"

    # the seeded plan really exercised the storm points
    fired = plan.stats()
    assert any(key.startswith("ingest_apply.") for key in fired), fired
    assert any(
        key.startswith("refresh_during_storm.") for key in fired
    ), fired

    # staleness provenance: on answers and over the stats wire
    stamped = [a for a in answers if a.staleness_s is not None]
    assert stamped, "no answer carried staleness provenance"
    assert "staleness_s_max" in stats.get("ingest", {}), stats
    snapshot = pipeline.stats_snapshot().ingest
    assert snapshot["events"] + float(shed) == float(storm_events)
    assert snapshot["events_applied"] == snapshot["events"]
    assert snapshot["epochs_applied"] < snapshot["events_applied"], (
        "storm did not coalesce"
    )
    assert snapshot["apply_faults"] == 3.0, snapshot
    assert snapshot.get("drift_probes", 0.0) >= 1.0, snapshot

    # quiesced + one quiet refresh -> nothing stale, bit-identical
    catalog.refresh()
    assert catalog.stale_sits() == []
    with EstimationService(catalog, config=config) as settled_service:
        settled = [
            settled_service.estimate(sql, timeout=None) for sql in sample
        ]
    for before, after in zip(baseline, settled):
        assert after.selectivity == before.selectivity, (before, after)
        assert after.cardinality == before.cardinality, (before, after)

    print(
        f"ingest storm: {len(answers)} served, {shed} shed, "
        f"{refresh_aborts} refresh aborts, "
        f"{snapshot['events_applied']:.0f} events in "
        f"{snapshot['epochs_applied']:.0f} epochs "
        f"(ratio {snapshot['coalesce_ratio']:.1f}), "
        f"{len(stamped)} stamped answers, "
        f"{snapshot['drift_probes']:.0f} drift probes, "
        f"plan fired {fired}"
    )


def swap_under_write(fixture: SnowflakeFixture) -> None:
    """A faulted cluster hot swap holds, respawns and catches up the
    member — never a version-straddling answer, never a wedge, zero
    client errors, and the member back at the new version."""
    catalog = fixture.catalog
    workload = fixture.queries + fixture.holdout
    plan = FaultPlan(
        [
            FaultRule(
                point="swap_under_write",
                probability=1.0,
                max_fires=1,
                match="member=0",
            )
        ],
        seed=7,
    )
    config = ServiceConfig(cluster=ClusterConfig(shards=2))
    with EstimationCluster(catalog, config=config) as cluster:
        for query in workload:
            cluster.estimate(query, timeout=30.0)
        with armed(plan):
            for table in ("sales", "customer", "product"):
                cluster.notify_table_update(table)
        version = catalog.version
        answers = [
            cluster.estimate(query, timeout=30.0)
            for query in workload * 5
        ]
        assert {answer.snapshot_version for answer in answers} == {
            version
        }, "a version-straddling answer escaped the faulted swap"
        stats = cluster.stats_snapshot().cluster
        assert plan.total_fires == 1, plan.stats()
        assert stats["swap_faults"] == 1.0, stats
        assert wait_until(
            lambda: cluster.stats_snapshot().cluster.get("rejoins", 0.0)
            >= 1.0
        ), "the faulted member never came back"
        member = cluster.shard_stats()[0]["catalog"]
        assert member["snapshot_version"] == version, member
        clean = cluster.close()
    assert clean, "cluster drain after the faulted swap was not clean"
    print(
        f"swap under write: {len(answers)} answers at v{version}, "
        f"member 0 respawned at v{member['snapshot_version']:.0f}, "
        "clean close"
    )


# ----------------------------------------------------------------------
# advisor
# ----------------------------------------------------------------------
def smoke_advisor() -> None:
    """A skewed workload through a service with the advisor enabled,
    under a space budget covering only the smaller half of the candidate
    conditioned SITs."""
    database, feedback, catalog, holdout = snowflake_fixture(
        0.1, 42, 20, max_joins=2, holdout=10
    )
    catalog.add_missing_base_histograms()
    conditioned = sum(1 for sit in catalog.pool if not sit.is_base)
    print(f"catalog: {len(catalog)} SITs ({conditioned} conditioned)")
    tuned_service(database, catalog, feedback, holdout)
    no_solution(catalog, feedback)


def tuned_service(database, catalog, feedback, holdout) -> None:
    max_q_error, refresh_budget_s = 1000.0, 60.0
    spaces = sorted(
        sit.space_bytes for sit in catalog.pool if not sit.is_base
    )
    budget = sum(spaces[: len(spaces) // 2])
    assert budget < sum(spaces), "budget must exclude part of the pool"
    config = ServiceConfig(
        workers=2,
        queue_depth=256,
        advisor=AdvisorConfig(
            max_q_error=max_q_error,
            space_budget_bytes=budget,
            refresh_budget_s=refresh_budget_s,
            min_feedback=8,
            min_interval_s=3600.0,  # the explicit tune() below drives it
        ),
    )
    service = EstimationService(catalog, config=config)
    advisor = service.advisor
    assert advisor is not None, "advisor was not constructed"

    # feedback flows from served estimates into the advisor
    for query in feedback:
        answer = service.estimate(query)
        assert 0.0 <= answer.selectivity <= 1.0, answer
    appended = advisor.feedback.counters()["feedback_appended"]
    assert appended >= len(feedback), (
        f"feedback did not flow: {appended} < {len(feedback)}"
    )

    # at least one proposal is accepted and applied through the
    # catalog's refresh path, within all three safety constraints
    report = service.tune()
    assert report is not None, "tune() found no advisor"
    assert report.status == ACCEPTED, f"tuning not accepted: {report.reason}"
    accepts = advisor.metrics.counter("advisor.accepts").value
    assert accepts >= 1, "no accepted proposal recorded"
    counters = advisor.feedback.counters()
    assert counters["truth_entries"] == counters["truth_misses"] >= 1, (
        f"truth was not resolved once per predicate set: {counters}"
    )
    decision = report.decision
    assert decision.worst_q_error <= max_q_error, decision
    assert decision.space_bytes <= budget, decision
    assert decision.refresh_seconds <= refresh_budget_s, decision

    # the installed configuration: space and refresh budgets must hold on
    # the catalog itself, not just on the gate's bookkeeping
    installed = [sit for sit in catalog.pool if not sit.is_base]
    assert {str(sit) for sit in installed} == set(report.chosen)
    assert sum(sit.space_bytes for sit in installed) <= budget

    # serving keeps working on the tuned catalog, and the q-error bound
    # generalizes to a fresh holdout workload the tuning never saw
    executor = Executor(database)
    session = EstimationSession(catalog)
    worst = 0.0
    for query in holdout:
        estimated = session.estimate(query).selectivity
        truth = executor.selectivity(query.predicates)
        worst = max(worst, q_error(estimated, truth))
    assert worst <= max_q_error, (
        f"holdout q-error {worst:.1f} breaks the {max_q_error} bound"
    )

    clean = service.close()
    assert clean, "drain/shutdown was not clean"
    print(
        f"tuned service: {len(report.chosen)} SITs accepted "
        f"(safety worst q-err {decision.worst_q_error:.2f}, "
        f"holdout worst q-err {worst:.2f}), clean drain"
    )


def no_solution(catalog, feedback) -> None:
    """``max_q_error=0`` is unsatisfiable (q-error >= 1): every tick
    must report no-solution-found and change nothing."""
    fingerprint = (
        catalog.version,
        tuple(sorted(str(sit) for sit in catalog.pool)),
    )
    advisor = SelfTuningAdvisor(
        catalog,
        config=AdvisorConfig(
            max_q_error=0.0, min_feedback=8, min_interval_s=0.0
        ),
    )
    session = EstimationSession(catalog)
    session.feedback_sink = advisor.record_result
    for query in feedback:
        session.estimate(query)
    report = advisor.tick()
    assert report.status == NO_SOLUTION_FOUND, report.status
    assert not report.applied
    after = (
        catalog.version,
        tuple(sorted(str(sit) for sit in catalog.pool)),
    )
    assert after == fingerprint, "no-solution-found mutated the catalog"
    print("no solution: impossible constraint rejected, catalog intact")


# ----------------------------------------------------------------------
SMOKES = {
    "service": smoke_service,
    "estimators": smoke_estimators,
    "plan_cache": smoke_plan_cache,
    "chaos": smoke_chaos,
    "cluster": smoke_cluster,
    "chaos_ingest": smoke_chaos_ingest,
    "advisor": smoke_advisor,
}


def main(argv: list[str]) -> int:
    names = list(SMOKES) if argv == ["all"] else argv
    unknown = [name for name in names if name not in SMOKES]
    if unknown or not names:
        print(f"usage: smoke.py <{'|'.join(SMOKES)}>... | all")
        return 2
    segments_before = set(glob.glob("/dev/shm/psm_*"))
    for name in names:
        print(f"== {name}")
        started = time.monotonic()
        SMOKES[name]()
        elapsed = time.monotonic() - started
        assert elapsed < WALL_CLOCK_BUDGET_S, f"possible hang: {elapsed:.0f}s"
        print(f"{name} smoke: OK in {elapsed:.1f}s")
    # a shard revival still in flight when its cluster closed terminates
    # itself once spawned; give it that long, no longer
    assert wait_until(lambda: not multiprocessing.active_children(), 30.0), (
        f"child processes left behind: {multiprocessing.active_children()}"
    )
    leaked = set(glob.glob("/dev/shm/psm_*")) - segments_before
    assert not leaked, f"shared-memory segments left behind: {leaked}"
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
