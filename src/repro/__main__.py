"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    The paper's motivating example (Figures 1-2) on the skewed mini
    TPC-H database.
``estimate --sql "SELECT ..."``
    Estimate the cardinality of a SQL query against the synthetic
    snowflake database, comparing noSit / GVM / GS-Diff with the truth.
``explain "SELECT ..."``
    ``EXPLAIN ESTIMATE``: print the winning ``getSelectivity``
    decomposition factor by factor — the matched SIT (or independence
    fallback) and error contribution of every ``Sel(p | Q)`` — as a text
    tree, or machine-readably with ``--json``.
``figures``
    A quick textual regeneration of the Figure 7 sweep at a small scale
    (the full suite lives in ``pytest benchmarks/ --benchmark-only``).
``catalog <build|save|load|advise|refresh|status>``
    Drive the statistics lifecycle end to end on the synthetic snowflake
    database: build a workload catalog, persist/restore it (v2 format,
    v1 migrates), print the ranked SITs (``advise``), simulate table
    updates (``--update-table``) and run an incremental refresh
    (``--budget N``), or print the lifecycle status block.
``serve``
    Start the concurrent estimation server (``repro.service``): a
    worker pool with micro-batching, admission control and hot snapshot
    swap behind an asyncio JSON-lines TCP front-end.  Talk to it with
    ``repro.service.connect("host:port")`` or one JSON object per line
    on a raw socket.
``info``
    Version and package inventory.
"""

from __future__ import annotations

import argparse
import sys

import repro

#: every subcommand with its one-line description — the single source of
#: the ``--help`` listing (pinned by tests/test_cli.py)
SUBCOMMANDS: dict[str, str] = {
    "info": "version and package inventory",
    "demo": "the paper's motivating example",
    "estimate": "estimate a SQL query's cardinality",
    "explain": "EXPLAIN ESTIMATE: the winning decomposition of a query",
    "figures": "quick Figure 7 sweep",
    "catalog": "statistics lifecycle: build/save/load/advise/refresh/status",
    "serve": "run the concurrent estimation server (JSON lines over TCP)",
}


def _cmd_info(_: argparse.Namespace) -> int:
    print(f"repro {repro.__version__} — Bruno & Chaudhuri, SIGMOD 2004 reproduction")
    print(__doc__)
    return 0


def _demo() -> int:
    from repro.workload.tpch import generate_tpch, motivating_query
    from repro.core.predicates import Attribute
    from repro.core.gvm import GreedyViewMatching
    from repro.engine.executor import Executor
    from repro.estimators import make_gs_diff, make_nosit
    from repro.stats.builder import SITBuilder
    from repro.stats.pool import SITPool

    db = generate_tpch()
    query = motivating_query(db)
    true = Executor(db).cardinality(query.predicates)
    joins = sorted(query.joins, key=str)
    join_lo = next(j for j in joins if "lineitem" in str(j))
    join_oc = next(j for j in joins if "customer" in str(j))
    builder = SITBuilder(db)
    base = [
        builder.build_base(attribute)
        for table in db.schema.tables.values()
        for attribute in table.attributes
    ]
    sit_lo = builder.build(Attribute("orders", "total_price"), frozenset({join_lo}))
    sit_oc = builder.build(Attribute("customer", "nation"), frozenset({join_oc}))
    both = SITPool(list(base) + [sit_lo, sit_oc])
    print(f"query: {query}")
    print(f"true cardinality:   {true:>10,}")
    print(f"noSit:              {make_nosit(db, SITPool(list(base))).cardinality(query):>10,.0f}")
    print(f"GS-Diff, both SITs: {make_gs_diff(db, both).cardinality(query):>10,.0f}")
    gvm = GreedyViewMatching(both)
    size = db.cross_product_size(query.tables)
    print(f"GVM, both SITs:     {gvm.estimate(query).selectivity * size:>10,.0f}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from repro.core.gvm import GreedyViewMatching
    from repro.engine.executor import Executor
    from repro.estimators import make_gs_diff, make_nosit
    from repro.sql import parse_query
    from repro.stats.builder import SITBuilder
    from repro.stats.pool import build_workload_pool
    from repro.workload.snowflake import SnowflakeConfig, generate_snowflake

    database = generate_snowflake(SnowflakeConfig(scale=args.scale, seed=args.seed))
    query = parse_query(args.sql, database.schema)
    pool = build_workload_pool(
        SITBuilder(database), [query], max_joins=min(query.join_count, 2)
    )
    true = Executor(database).cardinality(query.predicates)
    print(f"canonical form: {query}")
    print(f"SIT pool:       {len(pool)} statistics")
    print(f"true:           {true:>12,}")
    nosit = make_nosit(database, pool)
    print(f"noSit:          {nosit.cardinality(query):>12,.0f}")
    gvm = GreedyViewMatching(pool)
    size = database.cross_product_size(query.tables)
    print(f"GVM:            {gvm.estimate(query).selectivity * size:>12,.0f}")
    gs = make_gs_diff(database, pool)
    print(f"GS-Diff:        {gs.cardinality(query):>12,.0f}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.core.errors import DiffError, NIndError
    from repro.estimators import create_estimator
    from repro.sql import parse_query
    from repro.stats.builder import SITBuilder
    from repro.stats.pool import build_workload_pool
    from repro.workload.snowflake import SnowflakeConfig, generate_snowflake

    database = generate_snowflake(SnowflakeConfig(scale=args.scale, seed=args.seed))
    query = parse_query(args.sql, database.schema)
    pool = build_workload_pool(
        SITBuilder(database), [query], max_joins=min(query.join_count, 2)
    )
    if args.backend == "sit":
        error_function = (
            NIndError() if args.error == "nind" else DiffError(pool)
        )
        estimator = create_estimator(
            "sit", database, pool, error_function=error_function
        )
    else:
        # --error is a SIT decomposition knob; the peer backends build
        # their models straight from the pool's base SITs
        estimator = create_estimator(args.backend, database, pool)
    result = estimator.explain(query)
    print(result.to_json() if args.json else result.render_text())
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.bench.harness import Harness
    from repro.bench.reporting import render_figure7
    from repro.estimators import make_gs_diff, make_gs_nind, make_nosit
    from repro.stats.builder import SITBuilder
    from repro.stats.pool import build_workload_pool
    from repro.workload.queries import WorkloadConfig, WorkloadGenerator
    from repro.workload.snowflake import SnowflakeConfig, generate_snowflake

    database = generate_snowflake(SnowflakeConfig(scale=args.scale, seed=args.seed))
    generator = WorkloadGenerator(
        database, WorkloadConfig(join_count=3, filter_count=3, seed=args.seed)
    )
    queries = generator.generate(args.queries)
    pool = build_workload_pool(SITBuilder(database), queries, max_joins=3)
    harness = Harness(database)
    by_pool = {}
    for limit in range(4):
        print(f"evaluating pool J{limit} ...", file=sys.stderr)
        by_pool[f"J{limit}"] = harness.evaluate(
            queries,
            pool.restrict_joins(limit),
            {
                "noSit": make_nosit,
                "GS-nInd": make_gs_nind,
                "GS-Diff": make_gs_diff,
            },
            max_subqueries=30,
        )
    print(render_figure7(by_pool, ["noSit", "GVM", "GS-nInd", "GS-Diff"], 3))
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    import json

    from repro.catalog import RefreshPolicy
    from repro.workload.fixture import snowflake_fixture

    action = args.action
    if args.path is None and action in ("load", "save"):
        raise SystemExit(f"catalog {action} requires --path")
    # every action but `save` serves a saved catalog when given --path
    path = args.path if action != "save" else None
    if path is None:
        print(
            f"building J1 catalog over {args.queries} queries "
            f"(scale={args.scale}) ...",
            file=sys.stderr,
        )
    database, queries, catalog, _ = snowflake_fixture(
        args.scale, args.seed, args.queries, path=path
    )

    if action in ("build", "load"):
        print(json.dumps(catalog.status(), indent=2, sort_keys=True))
        return 0
    if action == "save":
        catalog.save(args.path)
        print(f"saved {len(catalog)} SITs (v2) to {args.path}")
        return 0
    if action == "status":
        if args.storm:
            from repro.ingest import IngestPipeline
            from repro.obs import StalenessTracker

            tracker = StalenessTracker()
            catalog.attach_staleness(tracker)
            tables = sorted(database.tables)
            print(
                f"driving a {args.storm}-event write storm over "
                f"{len(tables)} tables ...",
                file=sys.stderr,
            )
            with IngestPipeline(catalog, tracker=tracker) as pipeline:
                for index in range(args.storm):
                    pipeline.submit(tables[index % len(tables)])
                pipeline.flush()
        print(json.dumps(catalog.status(), indent=2, sort_keys=True))
        return 0
    if action == "advise":
        from repro.stats.pool import rank_sits

        ranked = rank_sits(catalog, (query.joins for query in queries))
        print(f"{'score':>10}  {'diff':>7}  SIT")
        for sit, score, _ in ranked[: args.budget or None]:
            print(f"{score:>10.4f}  {sit.diff:>7.4f}  {sit}")
        return 0
    if action == "refresh":
        for table in args.update_table or []:
            version = catalog.notify_table_update(table)
            print(f"table {table} -> version {version}", file=sys.stderr)
        policy = RefreshPolicy(max_sits=args.budget)
        report = catalog.refresh(policy, queries)
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        if args.path is not None:
            catalog.save(args.path)
            print(f"saved refreshed catalog to {args.path}", file=sys.stderr)
        return 0
    raise SystemExit(f"unknown catalog action {action!r}")  # pragma: no cover


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import EstimationService, ServiceConfig, run_server
    from repro.workload.fixture import snowflake_fixture

    if args.path is None:
        print(
            f"building J1 catalog over {args.queries} queries "
            f"(scale={args.scale}) ...",
            file=sys.stderr,
        )
    catalog = snowflake_fixture(
        args.scale, args.seed, args.queries, path=args.path
    ).catalog
    # ad-hoc SQL needs base histograms for *every* attribute, not just
    # the build workload's
    catalog.add_missing_base_histograms()
    config = ServiceConfig(workers=args.workers, backend=args.backend)
    service = EstimationService(catalog, config=config)

    def ready(address: tuple[str, int]) -> None:
        host, port = address
        print(
            f"serving {len(catalog)} SITs on {host}:{port} "
            f"({config.workers} workers, queue {config.queue_depth}, "
            f"max batch {config.max_batch}) — Ctrl-C to drain",
            file=sys.stderr,
            flush=True,
        )

    run_server(service, host=args.host, port=args.port, ready=ready)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser: one subparser per :data:`SUBCOMMANDS` entry."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Conditional selectivity for statistics on query expressions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help=SUBCOMMANDS["info"])
    sub.add_parser("demo", help=SUBCOMMANDS["demo"])

    estimate = sub.add_parser("estimate", help=SUBCOMMANDS["estimate"])
    estimate.add_argument("--sql", required=True, help="conjunctive SPJ SELECT")
    estimate.add_argument("--scale", type=float, default=0.25)
    estimate.add_argument("--seed", type=int, default=42)

    explain = sub.add_parser("explain", help=SUBCOMMANDS["explain"])
    explain.add_argument(
        "sql", nargs="?", default=None, help="conjunctive SPJ SELECT"
    )
    explain.add_argument(
        "--sql", dest="sql_flag", default=None, help=argparse.SUPPRESS
    )
    explain.add_argument(
        "--backend",
        choices=("sit", "bn", "sample"),
        default="sit",
        help="estimator backend answering the query (default: sit)",
    )
    explain.add_argument(
        "--error",
        choices=("nind", "diff"),
        default="diff",
        help="error function ranking candidate decompositions (default: diff)",
    )
    explain.add_argument(
        "--json", action="store_true", help="emit the machine-readable structure"
    )
    explain.add_argument("--scale", type=float, default=0.25)
    explain.add_argument("--seed", type=int, default=42)

    figures = sub.add_parser("figures", help=SUBCOMMANDS["figures"])
    figures.add_argument("--scale", type=float, default=0.15)
    figures.add_argument("--seed", type=int, default=42)
    figures.add_argument("--queries", type=int, default=5)

    catalog = sub.add_parser("catalog", help=SUBCOMMANDS["catalog"])
    catalog.add_argument(
        "action",
        choices=("build", "save", "load", "advise", "refresh", "status"),
    )
    catalog.add_argument("--path", default=None, help="catalog file (v2 JSON)")
    catalog.add_argument("--scale", type=float, default=0.15)
    catalog.add_argument("--seed", type=int, default=42)
    catalog.add_argument("--queries", type=int, default=3)
    catalog.add_argument(
        "--budget",
        type=int,
        default=None,
        help="space budget: max conditioned SITs kept after refresh/advise",
    )
    catalog.add_argument(
        "--update-table",
        action="append",
        dest="update_table",
        metavar="TABLE",
        help="simulate a table update before refreshing (repeatable)",
    )
    catalog.add_argument(
        "--storm",
        type=int,
        default=0,
        metavar="N",
        help=(
            "status only: drive N coalesced table updates through the "
            "streaming ingestion pipeline first, so the status report "
            "carries the ingest/staleness block"
        ),
    )

    serve = sub.add_parser("serve", help=SUBCOMMANDS["serve"])
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=repro.service.server.DEFAULT_PORT,
        help="0 picks an ephemeral port",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="estimation worker threads"
    )
    serve.add_argument(
        "--backend",
        choices=("sit", "bn", "sample"),
        default="sit",
        help=(
            "estimator backend worker sessions answer with (default: "
            "sit)"
        ),
    )
    serve.add_argument(
        "--path", default=None, help="serve a saved catalog file (v2 JSON)"
    )
    serve.add_argument("--scale", type=float, default=0.15)
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument("--queries", type=int, default=3)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI dispatcher; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "info":
        return _cmd_info(args)
    if args.command == "demo":
        return _demo()
    if args.command == "estimate":
        return _cmd_estimate(args)
    if args.command == "explain":
        if args.sql is None:
            args.sql = args.sql_flag
        if args.sql is None:
            parser.error("explain requires a SQL query (positional or --sql)")
        return _cmd_explain(args)
    if args.command == "figures":
        return _cmd_figures(args)
    if args.command == "catalog":
        return _cmd_catalog(args)
    if args.command == "serve":
        return _cmd_serve(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":
    raise SystemExit(main())
