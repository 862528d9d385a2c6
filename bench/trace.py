"""The traced run: where a request's time goes, layer by layer.

The same requests are replayed once through each successively outer
public entry point ("shell"), innermost first::

    CompiledPlan.replay < PlanCache.estimate < SITEstimator.estimate_predicates
      < EstimationSession.estimate < EstimationService.estimate < client.estimate (TCP)

with ``parse_query``, ``shape_fingerprint`` and the protocol codec timed
as siblings.  A span (name, start, end, request, parent) is recorded
from this file around every call; nothing is added inside ``src/``.  A
layer's self time is its span minus the next-inner shell's span of the
same request, and the reported value is the median over requests.  The
ladder stops at the outermost entry point the workload itself uses;
layers beyond it report 0.
"""

from __future__ import annotations

import json
import statistics
import time

from bench import OUT_DIR, inputs, runner, spec
from bench.stats import typical
from bench.workloads import STORM_BURST, Recorder, Workload
from bench.yardstick import REFERENCE_NOMINAL_S
from repro.catalog import EstimationSession, StatisticsCatalog
from repro.core.errors import NIndError
from repro.core.get_selectivity import GetSelectivity
from repro.core.plancache import PlanCache, shape_fingerprint
from repro.service import EstimationService, ServiceConfig
from repro.service.protocol import decode_line, encode_line, result_from_wire
from repro.sql import parse_query

#: requests of the workload's pass replayed through every shell
SHELL_REQUESTS = 400
#: times each shell replays them (the in-process ones, the two served ones)
INNER_REPEATS = 5
SERVED_REPEATS = 3
#: a lone request sits out the service's whole batch window on a timer
WINDOW_S = ServiceConfig().batch_window_s
#: spans of the workload's own loop written to the trace file
LOOP_SPANS_WRITTEN = 5000
#: shells from the inside out, and how far each workload's path goes
LADDER = ("plancache.replay", "plancache.estimate", "estimators.sit", "session", "service", "wire")
STAGE_SHARES = {
    "dp_enumeration": "dp.enumeration_share",
    "factor_matching": "matching.factor_matching_share",
    "histogram_join": "histograms.join_share",
    "error_scoring": "errors.scoring_share",
}


class Tracer:
    """Spans in memory until the run ends; one recorder per span name."""

    def __init__(self) -> None:
        self.recorders: dict[str, Recorder] = {}

    def replay(self, name: str, call, arguments, repeats: int = 1) -> list[float]:
        """Time ``call`` over ``arguments`` with span recording on;
        returns the typical normalised seconds of every call."""
        return self.replay_together({name: call}, arguments, repeats)[name]

    def replay_together(self, calls: dict, arguments, repeats: int) -> dict[str, list[float]]:
        """Several shells over the same arguments, taking turns pass by
        pass so that drift in the host falls on all alike; per call the
        typical value of its ``repeats`` samples (microsecond layers
        drown in the noise of a single replay)."""
        for name in calls:
            self.recorders[name] = Recorder(spans=[])
        for _ in range(repeats):
            for name, call in calls.items():
                self.recorders[name].timed(call, arguments)
        out = {}
        for name in calls:
            idle_s = WINDOW_S if name in ("service", "wire") else 0.0
            out[name] = typical([p.normalised(idle_s) for p in self.recorders[name].passes])
        return out

    def write(self, path, parents: dict[str, str | None], loop: Recorder | None) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, recorder in self.recorders.items():
                count = len(recorder.passes[0].latencies_s)
                for index, (start, end) in enumerate(recorder.spans):
                    span = {"name": name, "start": start, "end": end,
                            "request": index % count, "parent": parents.get(name)}  # fmt: skip
                    handle.write(json.dumps(span) + "\n")
            if loop is not None:
                for request, (start, end) in enumerate(loop.spans[:LOOP_SPANS_WRITTEN]):
                    span = {"name": "workload.loop", "start": start, "end": end,
                            "request": request, "parent": None}  # fmt: skip
                    handle.write(json.dumps(span) + "\n")


def median_us(samples: list[float]) -> float:
    return statistics.median(samples) * 1e6


def median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1e3


def shells(workload: Workload, values: dict, tracer: Tracer) -> None:
    """Replay the first ``SHELL_REQUESTS`` requests of the pass through
    every shell on the workload's path and fill in the self times."""
    stream = workload.trace_stream()
    requests = [stream[i % len(stream)] for i in range(SHELL_REQUESTS)]
    count = len(requests)
    session = EstimationSession(workload.catalog)
    for predicates in stream:  # every shape compiled before any shell
        session.estimate(predicates)
    cache, estimator = session.plan_cache, session.estimator
    planned = [cache.plan_for(predicates) for predicates in requests]
    indices = range(count)
    depth = LADDER.index(workload.outermost)

    inner = {
        "plancache.replay": lambda i: planned[i][0].replay(planned[i][1]),
        "plancache.estimate": lambda i: cache.estimate(requests[i]),
        "estimators.sit": lambda i: estimator.estimate_predicates(requests[i]),
        "session": lambda i: session.estimate(requests[i]),
        "plancache.fingerprint": lambda i: shape_fingerprint(requests[i]),
    }
    spans = tracer.replay_together(inner, indices, INNER_REPEATS)
    fingerprint = spans.pop("plancache.fingerprint")
    siblings = 0.0
    if depth >= LADDER.index("service"):
        service = getattr(workload, "service", None)
        if service is None:
            service = EstimationService(workload.catalog, config=ServiceConfig(workers=1))
            workload.teardown.add("shell service", service.close)
        for predicates in stream:
            service.estimate(predicates)
        spans["service"] = tracer.replay(
            "service", lambda i: service.estimate(requests[i]), indices, SERVED_REPEATS
        )
    if depth >= LADDER.index("wire"):
        sqls = [inputs.render_sql(predicates) for predicates in requests]
        client, schema = workload.clients[0], workload.database.schema
        spans["wire"] = tracer.replay(
            "wire", lambda i: client.estimate(sqls[i]), indices, SERVED_REPEATS
        )
        parse = tracer.replay(
            "sql.parse", lambda i: parse_query(sqls[i], schema), indices, INNER_REPEATS
        )
        # the codec on recorded payloads: both directions, both ends
        answers = [service.estimate(predicates) for predicates in requests[:64]]
        asked = [{"op": "estimate", "sql": sql, "id": str(i)} for i, sql in enumerate(sqls[:64])]
        answered = [answer.to_wire(str(i)) for i, answer in enumerate(answers)]
        lines = [(encode_line(a), encode_line(b)) for a, b in zip(asked, answered)]
        pairs = range(len(lines))
        encode = tracer.replay(
            "protocol.encode",
            lambda i: (encode_line(asked[i]), encode_line(answers[i].to_wire(str(i)))),
            pairs,
            INNER_REPEATS,
        )
        decode = tracer.replay(
            "protocol.decode",
            lambda i: (decode_line(lines[i][0]), result_from_wire(decode_line(lines[i][1]))),
            pairs,
            INNER_REPEATS,
        )
        values["sql.parse_us"] = median_us(parse)
        values["protocol.encode_us"] = median_us(encode)
        values["protocol.decode_us"] = median_us(decode)
        siblings = sum(statistics.median(s) for s in (parse, encode, decode))

    def self_time(outer: str, inner: str) -> list[float]:
        return [o - i for o, i in zip(spans[outer], spans[inner])]

    values["plancache.fingerprint_us"] = median_us(fingerprint)
    values["plancache.replay_us"] = median_us(spans["plancache.replay"])
    values["plancache.probe_us"] = median_us(self_time("plancache.estimate", "plancache.replay"))
    values["estimators.sit_self_us"] = median_us(self_time("estimators.sit", "plancache.estimate"))
    values["session.self_us"] = median_us(self_time("session", "estimators.sit"))
    layers = [
        values["plancache.replay_us"], values["plancache.probe_us"],
        values["estimators.sit_self_us"], values["session.self_us"],
    ]  # fmt: skip
    if "service" in spans:
        values["service.inproc_rtt_ms"] = median_ms(spans["service"])
        values["service.self_ms"] = median_ms(self_time("service", "session"))
        layers.append(values["service.self_ms"] * 1e3)
    if "wire" in spans:
        values["wire.rtt_ms"] = median_ms(spans["wire"])
        values["wire.self_ms"] = median_ms(self_time("wire", "service")) - siblings * 1e3
        layers += [values["wire.self_ms"] * 1e3, siblings * 1e6]
    outermost_us = median_us(spans[workload.outermost])
    values["bench.layers_sum_share"] = sum(layers) / outermost_us


def cold_path(workload: Workload, values: dict, tracer: Tracer) -> None:
    """The DP on each template from scratch, the plan compiler, and the
    program's own stage buckets (Figure 8's split) over a cold pass."""
    templates = [t.predicates for t in workload.templates[:24]]
    pool = workload.catalog.snapshot().pool
    solved: list = []

    def solve(predicates):
        algorithm = GetSelectivity.create(pool, NIndError())
        solved.append((predicates, algorithm, algorithm(predicates)))

    values["dp.solve_ms"] = median_ms(tracer.replay("dp.solve", solve, templates))
    values["plancache.compile_ms"] = median_ms(
        tracer.replay("plancache.compile", lambda s: PlanCache(pool).compile(*s), list(solved))
    )
    session = EstimationSession(workload.catalog)
    stages = session.estimator.enable_tracing()
    seconds = dict.fromkeys(STAGE_SHARES, 0.0)
    for predicates in templates:
        session.estimate(predicates)  # the program clears its trace per query
        for stage in seconds:
            seconds[stage] += stages.timings.get(stage, 0.0)
    total = sum(seconds.values())
    for stage, name in STAGE_SHARES.items():
        values[name] = seconds[stage] / total
    counters = session.stats_snapshot().counters
    values["dp.matcher_calls"] = counters["matcher_calls"] / counters["queries"]


def loop_counters(workload: Workload, values: dict) -> Recorder:
    """The workload's own loop, ``trace_passes`` passes untraced then as
    many with span recording on: the counters at its layer boundaries
    (of a fixed amount of work, so they repeat exactly) and what tracing
    costs."""
    passes = workload.trace_passes
    workload.run_timed(passes)
    for recorder in workload.recorders:
        recorder.spans = []
    workload.run_timed(passes)

    def per_pass(which: slice) -> float:
        idle_s = workload.idle_per_sample_s
        return sum(
            sum(typical([p.normalised(idle_s) for p in r.passes[which]]))
            for r in workload.recorders
        )

    values["bench.trace_overhead_share"] = (
        per_pass(slice(passes, None)) / per_pass(slice(None, passes)) - 1.0
    )
    values["bench.host_slowdown"] = (
        statistics.median(
            reading for r in workload.recorders for p in r.passes for reading in p.references_s
        )
        / REFERENCE_NOMINAL_S
    )

    status = workload.plan_cache_status()
    values["plancache.hit_rate"] = status["hit_rate"]
    values["plancache.compiles"] = status["compiles"]
    values["plancache.evictions"] = status["evictions"]
    values["plancache.bytes"] = status["bytes"]
    if hasattr(workload, "service_stats"):
        service = workload.service_stats()
        values["service.batches"] = service["batches"]
        values["service.mean_batch_size"] = service["batched_requests"] / service["batches"]
        values["service.deduplicated"] = service["deduplicated"]
        values["service.shed"] = service.get("shed_overload", 0.0) + service.get("shed_deadline", 0.0)
        values["session.match_cache_hit_rate"] = workload.catalog_stats()["match_cache_hit_rate"]
    else:
        values["session.match_cache_hit_rate"] = workload.session.match_cache_hit_rate
    return workload.recorders[0]


def ingest_layer(workload: Workload, values: dict, tracer: Tracer) -> None:
    """``write_storm`` only: the pipeline's own counters, one ``submit``,
    and the catalog's invalidation called directly with the pipeline idle."""
    pipeline, tables = workload.pipeline, workload.tables
    pipeline.flush()
    values["ingest.recompiles"] = workload.recompiles
    # the timed loop waits for each burst to be applied; here one round
    # is read right behind a burst, to see how many answers still come
    # from the old snapshot and how old it is
    for _ in range(STORM_BURST):
        pipeline.submit(tables[0])
    workload.submitted += STORM_BURST
    for predicates in workload.rounds[0]:
        workload.note_answer(predicates, workload.service.estimate(predicates))
    values["ingest.stale_answers_share"] = workload.stale_answers / len(workload.rounds[0])
    values["ingest.staleness_max_ms"] = workload.staleness_max_s * 1e3
    pipeline.flush()
    values["ingest.submit_us"] = median_us(
        tracer.replay("ingest.submit", pipeline.submit, [tables[0]] * 256)
    )
    workload.submitted += 256
    pipeline.flush()
    ingest = pipeline.stats_snapshot().ingest
    values["ingest.events_submitted"] = ingest["events"]
    values["ingest.events_applied"] = ingest["events_applied"]
    values["ingest.epochs_applied"] = ingest["epochs_applied"]
    values["ingest.coalesce_ratio"] = ingest["coalesce_ratio"]
    values["ingest.shed"] = ingest.get("shed", 0.0)
    values["catalog.notify_ms"] = median_ms(
        tracer.replay("catalog.notify", workload.catalog.notify_table_update, tables[:5])
    )


def measure_per_layer(workload: Workload) -> tuple[dict, dict]:
    values = {metric.name: 0.0 for metric in spec.PER_LAYER}
    tracer = Tracer()
    loop = loop_counters(workload, values)
    checks = workload.verify()
    if workload.name == "write_storm":
        ingest_layer(workload, values, tracer)
    shells(workload, values, tracer)
    cold_path(workload, values, tracer)

    values["catalog.build_s"] = workload.catalog_build_s
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"catalog-roundtrip-{workload.name}.json"
    started = time.perf_counter()
    try:
        workload.catalog.save(path)
        StatisticsCatalog.load(path, database=workload.database)
    finally:
        path.unlink(missing_ok=True)
    values["catalog.save_load_s"] = time.perf_counter() - started
    values["server.startup_s"] = getattr(workload, "server_startup_s", 0.0)
    _errors, truth_s = runner.q_errors(workload)
    values["engine.truth_ms"] = median_ms(truth_s)

    parents = dict(zip(LADDER, LADDER[1:] + (None,)))
    parents.update({"sql.parse": "wire", "protocol.encode": "wire", "protocol.decode": "wire",
                    "plancache.fingerprint": "plancache.estimate"})  # fmt: skip
    tracer.write(OUT_DIR / f"trace-{workload.name}.jsonl", parents, loop)
    checks["layers_sum_within_10_percent"] = 0.9 <= values["bench.layers_sum_share"] <= 1.1
    return values, checks
