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

``service``       50 queries over TCP; one raw pipelined group of mixed
                  members; a hot stream and every cold shape equal to the
                  plan-cache-off answers at 1, 2 and 3 workers; a burst
                  against a depth-1 queue sheds
``estimators``    every backend (sit / bn / sample) over TCP, with provenance
``plan_cache``    templated workload: hit rate, replay determinism, coherence,
                  a query's sub-plans each replaying on their second ask,
                  EXPLAIN of a hit equal to a plan-cache-off EXPLAIN, and hot
                  answers over a loaded catalog building no ``Bucket`` object
``ingest``        write storm + racing catalog refreshes under TCP load: no
                  client-visible error, staleness, quiesce, bit-identical
                  answers once settled
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import glob
import multiprocessing
import pathlib
import socket
import sys
import tempfile
import threading
import time

from repro.catalog import EstimationSession, StatisticsCatalog
from repro.catalog.catalog import RefreshConflict
from repro.core.plancache import shape_fingerprint
from repro.estimators import BACKENDS
from repro.histograms.base import Bucket
from repro.ingest import IngestConfig, IngestOverloaded, IngestPipeline
from repro.obs import StalenessTracker
from repro.service import (
    EstimationService,
    Overloaded,
    ServiceConfig,
    connect,
)
from repro.service.protocol import (
    STATUSES,
    ServedEstimate,
    decode_line,
    encode_line,
)
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
    """Serve ``service`` over TCP on an ephemeral port and yield a
    connected client; leaving the block drains, and the drain must be
    clean."""
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
def raw_group(service: EstimationService, address) -> None:
    """One pipelined group written raw: a compiled shape, a cold shape,
    unparsable SQL, a malformed ``timeout_ms`` and a ping come back in
    request order, with wire statuses only, and the hit's line is the
    bytes of the in-process answer's ``to_wire`` (latency masked)."""
    hit = SQL_TEMPLATE.format(low=30, high=55)
    group = [
        {"id": "hit", "sql": hit},
        {"id": "cold", "sql": TEMPLATES[2].format(low=1, high=5)},
        {"id": "unparsable", "sql": "SELECT * FROM nowhere WHERE"},
        {"id": "timeout", "sql": hit, "timeout_ms": "soon"},
        {"id": "ping", "op": "ping"},
    ]
    with socket.create_connection(address, timeout=60.0) as sock:
        reader = sock.makefile("rb")
        sock.sendall(b"".join(map(encode_line, group)))
        lines = [reader.readline() for _ in group]
    responses = [decode_line(line) for line in lines]
    assert [r.get("id") for r in responses] == [m["id"] for m in group], responses
    assert all(r["status"] in STATUSES for r in responses), responses
    statuses = [r["status"] for r in responses]
    assert statuses == ["ok", "ok", "invalid", "invalid", "ok"], responses
    assert responses[0]["plan_cache_hit"] and not responses[1]["plan_cache_hit"]
    local = service.estimate(hit)
    masked = dataclasses.replace(local, latency_ms=responses[0]["latency_ms"])
    assert lines[0] == encode_line(masked.to_wire("hit")), (lines[0], masked)
    print(f"tcp: raw group of {len(group)} answered in order, hit line == to_wire")


def cold_shapes(schema) -> list[str]:
    """One statement per foreign-key join and non-key column of its two
    tables: each its own shape, so each is solved cold once."""
    return [
        f"SELECT * FROM {left.table}, {right.table} WHERE {left} = {right} "
        f"AND {attribute} BETWEEN 1 AND 50"
        for left, right in schema.join_edges()
        for table in (left.table, right.table)
        for attribute in schema.table(table).attributes
        if not attribute.column.endswith("_id")
    ]


def worker_counts(catalog, schema) -> None:
    """A hot stream and every cold shape over TCP at 1, 2 and 3 workers:
    each answer is at level 0 and equals the plan-cache-off session's,
    whichever worker (or the arrival path) computed it."""
    sqls = age_ranges(100, spread=23, width=20) + cold_shapes(schema)
    twin = EstimationSession(catalog, plan_cache=False)
    expected = {sql: twin.estimate(parse_query(sql, schema)) for sql in sqls}
    for workers in (1, 2, 3):
        config = ServiceConfig(workers=workers, queue_depth=32)
        with served(EstimationService(catalog, config=config)) as client:
            for sql in sqls:
                answer = client.estimate(sql)
                want = expected[sql]
                assert answer.degradation_level == 0, (workers, sql, answer)
                assert (answer.selectivity, answer.error) == (
                    want.selectivity,
                    want.error,
                ), (workers, sql, answer, want)
    print(f"workers 1/2/3: {len(sqls)} answers each, equal to the twin's")


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
        service_stats = client.stats()["service"]
        answered = service_stats["served"]
        arrived = service_stats["answered_on_arrival"]
        assert answered >= len(sqls), f"served {answered} < {len(sqls)}"
        assert arrived == len(sqls) - 1, f"{arrived} answered on arrival"
        assert service._sql.misses == 1, "the shape was parsed more than once"
        raw_group(service, (client.host, client.port))
    print(
        f"tcp: {len(sqls)} queries ok, versions={sorted(versions)}, "
        f"{arrived:g} answered on arrival from one parsed shape"
    )
    worker_counts(catalog, schema)

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
        # both workers serve the one pool, so they share one plan cache:
        # every shape compiled once, into the service's one live cache
        assert block["plans"] == block["compiles"], block
        held = {id(session.plan_cache) for session in service._sessions}
        assert held == {id(service._plan_cache)}, "a worker holds its own cache"
        print(
            f"steady state: {len(answers)} unique requests, "
            f"hit rate {hit_rate:.3f}, "
            f"{block.get('plans', 0):.0f} plans "
            f"({block.get('compiles', 0):.0f} compiles, "
            f"{block.get('bytes', 0):.0f} bytes) in one shared cache"
        )

        # coherence mid-stream: an update must force a recompile, not
        # serve the stale plan — then steady state resumes.  The notify
        # keeps the pool, so the worker that recompiles does so into the
        # one cache, and the next ask is a hit answered on arrival
        # whichever worker would have taken it: one recompile, not one
        # per worker.  A notify changes no histogram: the recompile
        # reads the pool's derived joins and runs the join kernel 0
        # times.
        joins_before = client.stats()["caches"]["join_memo_misses"]
        stale = catalog.version
        catalog.notify_table_update("customer")
        probe = TEMPLATES[0].format(low=5, high=30)
        first = client.estimate(probe)
        assert not first.plan_cache_hit, "stale plan served after update"
        after_notify = [first]
        recompiles = 1
        for _ in range(4 * config.workers):
            after_notify.append(client.estimate(probe))
            if after_notify[-1].plan_cache_hit:
                break
            recompiles += 1
        else:
            raise AssertionError("cache never refilled after the update")
        after_notify += [client.estimate(sql) for sql in workload[: len(TEMPLATES)]]
        assert recompiles == 1, (
            f"{recompiles} recompiles for {config.workers} workers"
        )
        old = [a for a in after_notify if a.snapshot_version == stale]
        assert not old, f"{len(old)} answers at v{stale} after the notify"
        # post-update telemetry: the namespace reflects the recompile
        # (the version move evicts every plan in place, so the
        # observable invariant is a fresh miss + compile, never a served
        # stale hit)
        after = client.stats().get("plan_cache", {})
        assert after.get("misses", 0) >= 1, after
        assert after.get("compiles", 0) >= 1, after
        joins_after = client.stats()["caches"]["join_memo_misses"]
        assert joins_after == joins_before, (
            f"recompiles after a notify joined {joins_after - joins_before:.0f} "
            "histogram pairs again"
        )
        print(
            f"coherence: update forced {recompiles} recompile for "
            f"{config.workers} workers (0 new joins), no answer "
            f"at v{stale} after it, steady state resumed"
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
# ingest
# ----------------------------------------------------------------------
def smoke_ingest() -> None:
    """A table-update storm through the ingest pipeline, catalog
    refreshes racing it, and 100 TCP queries: zero client-visible
    errors, staleness reported, clean quiesce, bit-identical once
    settled."""
    fixture = serving_fixture(holdout=2)
    catalog = fixture.catalog
    storm_events = 400
    config = ServiceConfig(workers=2, queue_depth=64)
    sqls = age_ranges(100, spread=23, width=20)
    sample = sqls[:10]

    # pre-storm baseline off a clean serve
    with EstimationService(catalog, config=config) as service:
        baseline = [service.estimate(sql, timeout=None) for sql in sample]

    tracker = StalenessTracker()
    tables = sorted(catalog.database.tables)
    shed = refreshes = conflicts = 0
    errors: list[BaseException] = []
    service = EstimationService(catalog, config=config)
    service.attach_staleness(tracker)
    pipeline = IngestPipeline(
        catalog, config=IngestConfig(queue_depth=256), tracker=tracker
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
        nonlocal refreshes, conflicts
        try:
            for _ in range(6):
                # wait first, so the last round always refreshes tables
                # the storm has already bumped (a fast host can finish
                # the storm inside one 20 ms pause)
                done = storm_done.wait(timeout=0.02)
                try:
                    catalog.refresh()
                    refreshes += 1
                except RefreshConflict:
                    # a membership race: rolled back, nothing published
                    # — count and go on
                    conflicts += 1
                if done:
                    break
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)

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
    pipeline.close()

    assert not errors, errors
    assert refreshes >= 1, "no refresh went through during the storm"
    assert tracker.quiesced(), "acked writes left unapplied"

    # staleness provenance: on answers, and the pipeline's gauges (the
    # one producer of the ingest namespace) read quiesced
    stamped = [a for a in answers if a.staleness_s is not None]
    assert stamped, "no answer carried staleness provenance"
    ingest = pipeline.stats_snapshot().ingest
    assert ingest["staleness_s_max"] == ingest["tables_pending"] == 0.0, ingest
    assert ingest["events"] + float(shed) == float(storm_events)
    assert ingest["events_applied"] == ingest["events"]
    assert ingest["epochs_applied"] < ingest["events_applied"], (
        "storm did not coalesce"
    )

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
        f"{refreshes} refreshes ({conflicts} conflicts), "
        f"{ingest['events_applied']:.0f} events in "
        f"{ingest['epochs_applied']:.0f} epochs "
        f"(ratio {ingest['coalesce_ratio']:.1f}), "
        f"{len(stamped)} stamped answers"
    )


# ----------------------------------------------------------------------
SMOKES = {
    "service": smoke_service,
    "estimators": smoke_estimators,
    "plan_cache": smoke_plan_cache,
    "ingest": smoke_ingest,
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
    # nothing the smokes serve starts a process; allow a straggler that
    # long, no longer
    assert wait_until(lambda: not multiprocessing.active_children(), 30.0), (
        f"child processes left behind: {multiprocessing.active_children()}"
    )
    leaked = set(glob.glob("/dev/shm/psm_*")) - segments_before
    assert not leaked, f"shared-memory segments left behind: {leaked}"
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
