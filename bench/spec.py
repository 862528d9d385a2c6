"""Names, units, directions and bounds: the one list ``BENCHMARK.json``,
the runner and the tests all read."""

from __future__ import annotations

from dataclasses import dataclass

#: how long the timed phase of one run takes on the host this was built
#: on, when nothing disturbs it (the driver passes it as ``--seconds``;
#: ``runner.passes_for`` turns it into a number of passes)
RUN_SECONDS = 10
#: ``--seed`` when none is given; ``repeat`` counts its seeds up from it
DEFAULT_SEED = 1
COMMAND = ["python3", "-m", "bench", "measure"]
PATHS = ["bench"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: share of the parent's median an end-to-end metric may worsen by
    bound: float | None = None


WORKLOADS = {
    "replay_hot": (
        "25 templates x 64 seeded constant sets on one session, all plans compiled: "
        "plan-cache replay and the session do all the work; DP, SQL, service, ingest do none"
    ),
    "cold_shapes": (
        "47 distinct templates, each sent once per pass to a fresh session: hit rate 0, so the "
        "bitmask DP, factor matching, histogram joins and plan compilation decide; replay does nothing"
    ),
    "serve_tcp": (
        "python -m repro serve as a child, two connections pipelining 8 SQL strings of the hot stream: "
        "SQL parse, JSON-lines protocol, admission queue and micro-batcher; bypasses DP and ingest"
    ),
    "write_storm": (
        "in-process service at depth 1 with a 64-write burst before every 250 reads: each burst "
        "evicts every plan, 10% of reads recompile; hot reads pay the batch window"
    ),
}

#: The timing bounds are twice the widest quartile spread ten runs of the
#: same code have shown on this host (12 % when the host changed speed
#: regime half-way through a set; ``bench/README.md``), not ISSUE.md's
#: 8 - 10 %: the driver refuses a benchmark whose own spread exceeds its
#: bound, and asks for spreads below a third of it.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("estimates_per_s", "1/s", "higher", 0.20),
    Metric("latency_p50_ms", "ms", "lower", 0.20),
    Metric("latency_p95_ms", "ms", "lower", 0.25),
    Metric("q_error_p50", "ratio", "lower", 0.01),
    Metric("q_error_p90", "ratio", "lower", 0.01),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
)

PER_LAYER = (
    # repro.sql
    Metric("sql.parse_us", "us", "lower"),
    # repro.core.plancache
    Metric("plancache.fingerprint_us", "us", "lower"),
    Metric("plancache.replay_us", "us", "lower"),
    Metric("plancache.probe_us", "us", "lower"),
    Metric("plancache.hit_rate", "ratio", "higher"),
    Metric("plancache.compiles", "count", "lower"),
    Metric("plancache.evictions", "count", "lower"),
    Metric("plancache.bytes", "B", "lower"),
    Metric("plancache.compile_ms", "ms", "lower"),
    # repro.estimators / repro.catalog.session
    Metric("estimators.sit_self_us", "us", "lower"),
    Metric("session.self_us", "us", "lower"),
    Metric("session.match_cache_hit_rate", "ratio", "higher"),
    # the cold path: repro.core (DP, matching, errors), repro.histograms
    Metric("dp.solve_ms", "ms", "lower"),
    Metric("dp.enumeration_share", "ratio", "lower"),
    Metric("matching.factor_matching_share", "ratio", "lower"),
    Metric("histograms.join_share", "ratio", "lower"),
    Metric("errors.scoring_share", "ratio", "lower"),
    Metric("dp.matcher_calls", "count", "lower"),
    # repro.service
    Metric("service.inproc_rtt_ms", "ms", "lower"),
    Metric("service.self_ms", "ms", "lower"),
    Metric("service.batches", "count", "lower"),
    Metric("service.mean_batch_size", "count", "higher"),
    Metric("service.deduplicated", "count", "higher"),
    Metric("service.shed", "count", "lower"),
    # repro.service.protocol / server / client
    Metric("protocol.encode_us", "us", "lower"),
    Metric("protocol.decode_us", "us", "lower"),
    Metric("wire.rtt_ms", "ms", "lower"),
    Metric("wire.self_ms", "ms", "lower"),
    Metric("server.startup_s", "s", "lower"),
    # repro.ingest / repro.obs.staleness
    Metric("ingest.submit_us", "us", "lower"),
    Metric("ingest.events_submitted", "count", "higher"),
    Metric("ingest.events_applied", "count", "higher"),
    Metric("ingest.epochs_applied", "count", "lower"),
    Metric("ingest.coalesce_ratio", "ratio", "higher"),
    Metric("ingest.shed", "count", "lower"),
    Metric("ingest.recompiles", "count", "lower"),
    Metric("ingest.stale_answers_share", "ratio", "lower"),
    Metric("ingest.staleness_max_ms", "ms", "lower"),
    # repro.catalog / repro.engine
    Metric("catalog.notify_ms", "ms", "lower"),
    Metric("catalog.build_s", "s", "lower"),
    Metric("catalog.save_load_s", "s", "lower"),
    Metric("engine.truth_ms", "ms", "lower"),
    # the harness itself
    Metric("bench.layers_sum_share", "ratio", "higher"),
    Metric("bench.trace_overhead_share", "ratio", "lower"),
    Metric("bench.host_slowdown", "ratio", "lower"),
)


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
