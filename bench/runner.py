"""One measurement of one workload in this interpreter.

``measure`` is what the driver's command runs: set up, run the timed
phase with tracing off, check the answers, tear down, set up twice more
(``setup_s`` needs repeats like every other time), audit for leftovers,
and return the result object whose JSON is the last line of standard
output.

Every time is *normalised* (``bench/yardstick.py``), and the timed phase
repeats one fixed pass, so that each request of the pass counts with its
typical cost over the passes (``stats.typical``).
"""

from __future__ import annotations

import statistics
import sys
import time

from bench import spec
from bench.stats import percentile, samples_beyond, typical
from bench.teardown import LeakAudit, Teardown
from bench.workloads import WORKLOADS, Workload, check_set
from bench.yardstick import SetupClock, normalised
from repro.engine.executor import Executor

#: set-ups per run; the first one feeds the timed phase
SETUP_REPEATS = 3
#: fewest passes whatever ``--seconds`` says: ``cold_shapes`` needs them
#: for ten samples beyond its 95th percentile
MIN_PASSES = 5


def passes_for(workload: Workload, seconds: float) -> int:
    """The timed phase is a number of passes, never a duration: the
    workload's constant at the benchmark's ``run_seconds``, in proportion
    for another ``--seconds``."""
    return max(MIN_PASSES, round(workload.passes * seconds / spec.RUN_SECONDS))


def timing_metrics(workload: Workload) -> dict:
    """Throughput and latency percentiles over the requests of a pass,
    each request counted with its typical normalised latency."""
    rate = 0.0
    latencies: list[float] = []
    samples = 0
    for recorder in workload.recorders:  # connections run side by side: rates add
        passes = recorder.passes
        per_request = typical([p.normalised(workload.idle_per_sample_s) for p in passes])
        before_s = statistics.median(
            normalised(p.before_s, p.references_s[0], workload.idle_before_s) for p in passes
        )
        rate += recorder.weight * len(per_request) / (sum(per_request) + before_s)
        latencies += per_request
        samples += len(per_request) * len(passes)
    return {
        "estimates_per_s": rate,
        "latency_p50_ms": percentile(latencies, 0.50) * 1000.0,
        "latency_p95_ms": percentile(latencies, 0.95) * 1000.0,
        "samples": samples,
    }


def timed_setup(workload: Workload) -> float:
    """One set-up in normalised seconds (``SetupClock``)."""
    workload.clock = SetupClock()
    workload.setup()
    workload.clock.checkpoint()
    return workload.clock.seconds


def q_errors(workload: Workload) -> tuple[list[float], list[float]]:
    """max(est/true, true/est), both floored at one tuple, over the
    fixed check set; also the seconds each exact count took."""
    members = check_set(workload.templates)
    estimates = workload.cardinalities(members)
    executor = Executor(workload.database)
    errors, truth_s = [], []
    for predicates, estimate in zip(members, estimates):
        started = time.perf_counter()
        truth = executor.cardinality(predicates)
        truth_s.append(time.perf_counter() - started)
        estimate, truth = max(1.0, estimate), max(1.0, float(truth))
        errors.append(max(estimate / truth, truth / estimate))
    return errors, truth_s


def measure_end_to_end(workload: Workload, passes: int) -> tuple[dict, dict]:
    """Timed phase with tracing off, then the checks."""
    workload.run_timed(passes)
    rss_mb = workload.peak_rss_mb()  # before the checks add their own
    values = timing_metrics(workload)
    checks = workload.verify()
    checks["10_samples_beyond_p95"] = samples_beyond(0.95, values.pop("samples")) >= 10
    errors, _ = q_errors(workload)
    values.update(
        q_error_p50=percentile(errors, 0.50),
        q_error_p90=percentile(errors, 0.90),
        peak_rss_mb=rss_mb,
    )
    return values, checks


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    teardown = Teardown()
    teardown.install()
    audit = LeakAudit()
    workload = WORKLOADS[name](seed, teardown)
    problems: list[str] = []
    try:
        setups = [timed_setup(workload)]
        if trace:
            from bench.trace import measure_per_layer

            values, checks = measure_per_layer(workload)
            metrics = spec.PER_LAYER
        else:
            values, checks = measure_end_to_end(workload, passes_for(workload, seconds))
            # the timed phase and ``peak_rss_mb`` belong to a process
            # that set up once; the other set-ups come after them
            while len(setups) < SETUP_REPEATS:
                problems += teardown.close()
                setups.append(timed_setup(WORKLOADS[name](seed, teardown)))
            values["setup_s"] = statistics.median(setups)
            metrics = spec.END_TO_END
    finally:
        problems += teardown.close()
    teardown.disarm()
    problems += audit.offenders(teardown)
    for check, passed in checks.items():
        print(f"{name}: {'ok  ' if passed else 'FAIL'} {check}", file=sys.stderr)
    for note in workload.unsteady:
        print(f"{name}: unsteady: {note}", file=sys.stderr)
    for problem in problems:
        print(f"{name}: LEFT BEHIND: {problem}", file=sys.stderr)
    return {
        "correct": all(checks.values()) and not problems,
        "attempted": sum(r.attempted for r in workload.recorders),
        "failed": sum(r.failed for r in workload.recorders),
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in metrics},
    }
