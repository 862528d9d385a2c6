"""``run``, ``trace`` and ``repeat``: each measurement in a fresh interpreter."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

import numpy

from bench import ROOT, inputs, spec
from bench.stats import quartile_spread

#: a measurement watches itself for 170 s; give its teardown room
CHILD_TIMEOUT_S = 200.0


def run_measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """``python -m bench measure`` as a child; its last stdout line."""
    argv = [
        sys.executable, "-m", "bench", "measure",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]  # fmt: skip
    child = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        # SIGTERM, not SIGKILL: the child must run its own teardown, or
        # its server would outlive us in a session of its own
        child.terminate()
        try:
            child.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        raise
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: no result (exit code {child.returncode})")
    result = json.loads(lines[-1])
    result["exit_code"] = child.returncode
    return result


def run_all(workloads: list[str] | None, seed: int, seconds: float, trace: bool) -> int:
    """Every metric as ``workload/name value unit``; non-zero exit when
    a check failed, an operation failed or something was left behind."""
    bad = 0
    for workload in workloads or list(spec.WORKLOADS):
        result = run_measure(workload, seed, seconds, trace)
        for name, metric in result["metrics"].items():
            print(f"{workload}/{name} {metric['value']:.6g} {metric['unit']}")
        print(
            f"{workload}/operations attempted {result['attempted']} failed "
            f"{result['failed']} correct {result['correct']}",
            flush=True,
        )
        bad += result["exit_code"] != 0 or not result["correct"] or result["failed"] > 0
    return 1 if bad else 0


def worse_by(metric: spec.Metric, first: float, second: float) -> float:
    """How much worse the second value is, as a share of the first."""
    change = (second - first) / first
    return change if metric.better == "lower" else -change


def repeat(
    sets: int, runs: int, seconds: float, workloads: list[str] | None, json_path: str | None
) -> int:
    """``sets`` alternating sets of ``runs`` runs, each run on another
    seed.  Per workload and metric: each set's median and quartile
    spread, how much worse the last set's median is than the first's,
    and the declared bound.  What the driver does before it accepts."""
    workloads = workloads or list(spec.WORKLOADS)
    values: dict[tuple[str, str, int], list[float]] = {}
    unhealthy = 0
    for run in range(runs):
        for which in range(sets):
            seed = spec.DEFAULT_SEED + which * runs + run
            for workload in workloads:
                result = run_measure(workload, seed, seconds, trace=False)
                unhealthy += result["exit_code"] != 0
                for name, metric in result["metrics"].items():
                    values.setdefault((workload, name, which), []).append(metric["value"])
                print(f"run {run + 1}/{runs} set {which + 1} {workload} seed {seed}", file=sys.stderr)
    table = []
    over = 0
    header = f"{'workload/metric':34s}" + "".join(
        f" {'median' + str(s + 1):>12s} {'spread' + str(s + 1):>8s}" for s in range(sets)
    )
    print(header + f" {'worse_by':>9s} {'bound':>6s}")
    for workload in workloads:
        for metric in spec.END_TO_END:
            per_set = [values[(workload, metric.name, s)] for s in range(sets)]
            medians = [statistics.median(v) for v in per_set]
            spreads = [quartile_spread(v) if len(v) > 1 else 0.0 for v in per_set]
            worse = worse_by(metric, medians[0], medians[-1])
            # the driver does not hold set-up time to a spread
            flagged = worse > metric.bound or (
                metric.name != "setup_s" and max(spreads) > metric.bound
            )
            over += flagged
            print(
                f"{workload + '/' + metric.name:34s}"
                + "".join(f" {m:12.5g} {s:8.2%}" for m, s in zip(medians, spreads))
                + f" {worse:+9.2%} {metric.bound:6.0%}"
                + ("  OVER" if flagged else "")
            )
            table.append(
                {
                    "workload": workload, "metric": metric.name, "medians": medians,
                    "spreads": spreads, "worse_by": worse, "bound": metric.bound,
                    "values": per_set,
                }  # fmt: skip
            )
    if json_path:
        record = {
            "command": spec.COMMAND, "sets": sets, "runs": runs, "seconds": seconds,
            "base_seed": inputs.BASE_SEED, "first_seed": spec.DEFAULT_SEED,
            "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                     "numpy": numpy.__version__},
            "table": table,
        }  # fmt: skip
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    return 1 if over or unhealthy else 0
