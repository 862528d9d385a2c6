"""``python -m bench measure|run|trace|repeat|spec``."""

from __future__ import annotations

import argparse
import json
import signal
import sys

from bench import require_repro, spec


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    one = sub.add_parser("measure", help="one workload, once; last stdout line is the result JSON")
    one.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    one.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    one.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)

    for name, text in (
        ("run", "every workload with tracing off: end-to-end metrics + correctness"),
        ("trace", "every workload traced: per-layer metrics, bench/out/trace-W.jsonl"),
    ):
        each = sub.add_parser(name, help=text)
        each.add_argument("--workload", action="append", choices=list(spec.WORKLOADS))
        each.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
        each.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)

    again = sub.add_parser("repeat", help="alternating sets of runs; set-to-set difference vs bound")
    again.add_argument("--sets", type=int, default=2)
    again.add_argument("--runs", type=int, default=5)
    again.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    again.add_argument("--workload", action="append", choices=list(spec.WORKLOADS))
    again.add_argument("--json", help="also write the table to this file")

    sub.add_parser("spec", help="print the contents of BENCHMARK.json")

    args = parser.parse_args(argv)
    if args.command == "spec":
        print(json.dumps(spec.benchmark_json(), indent=2))
        return 0
    require_repro()
    if args.command == "measure":
        from bench.runner import measure

        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] and not result["failed"] else 1
    from bench import repeat

    # a termination must unwind through ``run_measure``, which passes it
    # on to the measurement it started and waits for that one's teardown
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if args.command == "repeat":
        return repeat.repeat(args.sets, args.runs, args.seconds, args.workload, args.json)
    return repeat.run_all(
        args.workload, args.seed, args.seconds, trace=args.command == "trace"
    )


if __name__ == "__main__":
    raise SystemExit(main())
