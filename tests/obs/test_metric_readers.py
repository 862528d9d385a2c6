"""Every instrument has a reader, and every option is set by a test.

ROADMAP's observability aim: "every metric we export must be read by a
test, a gate, or a tool; the rest go".  This module keeps it true, with
no allow-list: whatever fails it is deleted or given its reader.

*Instruments* are collected at run time.  The in-process scenarios —
serve, notify, refresh, ingest, a real defect (ladder level 3), and one
session per backend (``sit``, ``bn``, ``sample``) — run over the
scale-0.05 snowflake fixture, and every name their registries hold is
taken, with every name a producer in ``src/repro`` registers through a
string literal (a path the scenarios do not reach).  Each name must live
in a :data:`~repro.obs.snapshot.NAMESPACES` namespace and be *read*:

* its quoted full dotted name (``"ingest.events_applied"``) appears in
  ``tests/`` (this module aside), ``bench/``, ``scripts/`` or
  ``.github/``;
* it is a ``BENCHMARK.json`` metric (the bench's ``plancache`` layer is
  the ``plan_cache`` namespace) or a ``BENCH_core.json`` key path;
* its key is subscripted (``["key"]``) or fetched (``.get("key"``) by an
  expression that names its namespace — ``snapshot.ingest["events"]``,
  ``ingest["events"]``, ``namespace("resilience")["faults_error"]``,
  ``stats()["service"]["batches"]`` — in those trees or in a renderer
  (EXPLAIN, the CLI).

A bare ``["estimates"]`` names no namespace and reads nothing; nor does
a generic dump (``to_dict()``).

*Options* are collected the same way: the CLI's parser, the fields of
the config dataclasses, and the ``REPRO_*`` variables ``src/repro``
reads.  An option passes when a test, script, bench file or CI step sets
it off its default: a ``python -m repro <command>`` invocation passing
the flag with another value (a positional's every choice), a config
constructed with the field as a keyword of another value, a
``setenv("REPRO_…"`` in a test.  The check sees the setting; the
assertion on what the setting changed sits beside it, in the same test.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import pathlib
import re
import shlex

import pytest

from repro.__main__ import build_parser
from repro.catalog import EstimationSession, RefreshPolicy
from repro.core.predicates import FilterPredicate
from repro.ingest import IngestConfig, IngestPipeline
from repro.obs import StalenessTracker
from repro.obs.snapshot import NAMESPACES
from repro.service import EstimationService, ServiceConfig
from repro.stats.pool import SITPool
from repro.workload.fixture import snowflake_fixture

ROOT = pathlib.Path(__file__).resolve().parents[2]
HERE = pathlib.Path(__file__).resolve()

#: where a read, or a setting of an option, counts
READER_TREES = ("tests", "bench", "scripts", ".github")
#: the renderers whose field-by-field reads count
RENDERERS = ("src/repro/obs/explain.py", "src/repro/__main__.py")
#: the config dataclasses whose fields are options
CONFIGS = (ServiceConfig, IngestConfig, RefreshPolicy)

REGISTRATION = re.compile(
    r"(?:\bcounter|\bgauge|\bhistogram)\(\s*\"((?:%s)\.[a-z_0-9.]+)\""
    % "|".join(NAMESPACES)
)


def reader_files(suffixes: tuple[str, ...]) -> list[pathlib.Path]:
    return [
        path
        for tree in READER_TREES
        for path in sorted((ROOT / tree).rglob("*"))
        if path.suffix in suffixes and path.is_file() and path != HERE
    ]


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def collected() -> set[str]:
    """Every instrument name the scenarios' registries hold."""
    database, queries, catalog, _ = snowflake_fixture(0.05, 11, 3)
    names: set[str] = set()

    def take(registry) -> None:
        names.update(instrument.name for instrument in registry)

    tracker = StalenessTracker()
    with EstimationService(catalog, config=ServiceConfig(workers=1)) as service:
        service.attach_staleness(tracker)
        serve = [query.predicates for query in queries] * 2
        for predicates in serve:  # serve: misses, then hits on arrival
            service.estimate(predicates)
        catalog.notify_table_update(sorted(database.tables)[0])  # notify
        catalog.refresh(RefreshPolicy(max_sits=2), queries)  # refresh
        for predicates in serve:
            service.estimate(predicates)
        with IngestPipeline(catalog, tracker=tracker) as pipeline:  # ingest
            for table in sorted(database.tables)[:3]:
                pipeline.submit(table)
                pipeline.submit(table)
            assert pipeline.flush()
            take(pipeline.metrics_registry())
        take(service.metrics_registry())
    take(catalog.metrics_registry())
    for backend in ("sit", "bn", "sample"):
        session = EstimationSession(catalog, backend=backend)
        for query in queries:
            session.estimate(query)
        take(session.metrics_registry())
    # a real defect: no statistic covers the query's filtered attributes
    query = queries[0]
    filtered = {p.attribute for p in query.predicates if isinstance(p, FilterPredicate)}
    pool = SITPool([s for s in catalog.snapshot().pool if s.attribute not in filtered])
    session = EstimationSession(pool, database=database)
    assert session.estimate(query).degradation_level == 3
    take(session.metrics_registry())
    return names


def literal_registrations() -> set[str]:
    return {
        name
        for path in (ROOT / "src" / "repro").rglob("*.py")
        for name in REGISTRATION.findall(path.read_text())
    }


def bench_names() -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {
        metric["name"].replace("plancache.", "plan_cache.", 1)
        for metric in spec["end_to_end"] + spec["per_layer"]
    }

    def walk(node, prefix: str) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{prefix}.{key}" if prefix else key)
        else:
            names.add(prefix)

    walk(json.loads((ROOT / "BENCH_core.json").read_text()), "")
    return names


def is_read(name: str, text: str) -> bool:
    namespace, key = name.split(".", 1)
    quote = "[\"']"
    if re.search(rf"{quote}{re.escape(name)}{quote}", text):
        return True
    # the expression names the namespace: an identifier starting with it
    # (``ingest``, ``snapshot.ingest``, ``service_stats()``) or a quoted
    # ``"ingest"`` (``["ingest"]``, ``namespace("ingest")``) ...
    names_it = rf"(?:\b{namespace}\w*(?:\(\))?|{quote}{namespace}{quote}\)?\]?)"
    # ... then subscripts or fetches the key
    keyed = rf"(?:\[\s*{quote}{re.escape(key)}{quote}\s*\]|\.get\(\s*{quote}{re.escape(key)}{quote})"
    return re.search(names_it + r"\s*" + keyed, text) is not None


def test_the_scenarios_reach_every_layer(collected):
    """The run covers what it claims to: every namespace, and the
    f-string families (``resilience``, ``plan_cache``, the backends'
    ``caches``) by name."""
    assert {name.split(".", 1)[0] for name in collected} == set(NAMESPACES)
    assert {
        "service.answered_on_arrival",
        "catalog.invalidations",
        "catalog.refreshes",
        "ingest.epochs_applied",
        "ingest.staleness_s_max",
        "resilience.faults_no_statistics",
        "plan_cache.hits",
        "caches.table_models",
        "caches.sampled_tables",
    } <= collected


def test_every_instrument_has_a_reader(collected):
    names = collected | literal_registrations()
    outside = sorted(n for n in names if n.split(".", 1)[0] not in NAMESPACES)
    assert not outside, f"registered outside every snapshot namespace: {outside}"
    text = "\n".join(path.read_text() for path in reader_files((".py", ".yml", ".yaml")))
    renderers = "\n".join((ROOT / path).read_text() for path in RENDERERS)
    read = bench_names()
    unread = sorted(
        name
        for name in names
        if name not in read and not is_read(name, text) and not is_read(name, renderers)
    )
    assert not unread, (
        "registered but never read (give each a reader in a test, or "
        f"delete it): {unread}"
    )


def test_a_bare_key_is_no_read():
    """The rule itself: a read names the namespace."""
    assert is_read("ingest.events", 'snapshot.ingest["events"]')
    assert is_read("ingest.events", 'x = ingest.get("events", 0)')
    assert is_read("service.batches", 'c.stats()["service"]["batches"]')
    assert is_read("resilience.faults_error", 's.namespace("resilience")["faults_error"]')
    assert is_read("catalog.sit_count", 'assert "catalog.sit_count" in names')
    assert not is_read("ingest.events", 'stats["events"]')
    assert not is_read("ingest.events", 'counters.get("events")')


# ----------------------------------------------------------------------
# Options
# ----------------------------------------------------------------------
def cli_options() -> dict[tuple[str, str], object]:
    """``(command, dest)`` -> its argparse action, for every argument."""
    parser = build_parser()
    (commands,) = (
        action for action in parser._actions if action.dest == "command"
    )
    return {
        (command, action.dest): action
        for command, sub in commands.choices.items()
        for action in sub._actions
        if action.dest != "help"
    }


def _python_argv(path: pathlib.Path) -> list[list[str | None]]:
    """Every list or tuple literal of a Python file as tokens: strings as
    themselves, ``*NAME`` expanded from the file's own ``NAME = [...]``,
    anything else ``None``."""
    tree = ast.parse(path.read_text())
    named = {
        target.id: node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def tokens(node) -> list[str | None]:
        out: list[str | None] = []
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                out.append(element.value)
            elif isinstance(element, ast.Starred):
                inner = element.value
                name = getattr(inner, "id", getattr(inner, "attr", None))
                out.extend(tokens(named[name]) if name in named else [None])
            else:
                out.append(None)
        return out

    return [
        tokens(node) for node in ast.walk(tree) if isinstance(node, (ast.List, ast.Tuple))
    ]


def _shell_argv(path: pathlib.Path) -> list[list[str | None]]:
    """Every ``python -m repro ...`` command line of a shell or YAML file."""
    text = path.read_text().replace("\\\n", " ")
    return [
        shlex.split(re.split(r"[|>]|&&", line, maxsplit=1)[0], comments=True)
        for line in re.findall(r"-m repro (.*)", text)
    ]


def invocations(commands: set[str]) -> list[tuple[str, list[str | None]]]:
    """``(command, arguments)`` of every CLI invocation the reader trees
    make: a list that starts with a command (``main([...])``) or names it
    right after ``repro`` (a child process), or a shell command line."""
    found = []
    for path in reader_files((".py",)):
        for argv in _python_argv(path):
            for index, token in enumerate(argv):
                if token in commands and (index == 0 or argv[index - 1] == "repro"):
                    found.append((token, argv[index + 1 :]))
                    break
    for path in reader_files((".yml", ".yaml", ".sh")):
        for argv in _shell_argv(path):
            if argv and argv[0] in commands:
                found.append((argv[0], argv[1:]))
    return found


def cli_settings() -> set[tuple[str, str]]:
    """``(command, dest)`` of every argument set off its default, and
    ``(command, "<dest>=<choice>")`` of every positional choice taken."""
    options = cli_options()
    commands = {command for command, _ in options}
    flags = {
        (command, flag): action
        for (command, _), action in options.items()
        for flag in action.option_strings
    }
    settings = set()
    for command, argv in invocations(commands):
        positionals = [
            action
            for (name, _), action in options.items()
            if name == command and not action.option_strings
        ]
        tokens = iter(argv)
        for token in tokens:
            action = flags.get((command, token))
            if action is not None:
                value = next(tokens, None) if action.nargs != 0 else True
                if value is None or value != str(action.default):
                    settings.add((command, action.dest))
            elif positionals and (token is None or not token.startswith("-")):
                action = positionals.pop(0)
                settings.add((command, action.dest))
                if action.choices and token is not None:
                    settings.add((command, f"{action.dest}={token}"))
    return settings


def config_settings() -> set[str]:
    """``Class.field`` of every config field a constructor call in the
    reader trees sets, by keyword, to something other than its default."""
    defaults = {
        (config.__name__, field.name): field.default
        for config in CONFIGS
        for field in dataclasses.fields(config)
    }
    settings = set()
    for path in reader_files((".py",)):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            owner = getattr(node.func, "id", getattr(node.func, "attr", None))
            for keyword in node.keywords:
                key = (owner, keyword.arg)
                if key not in defaults:
                    continue
                value = keyword.value
                if not isinstance(value, ast.Constant) or value.value != defaults[key]:
                    settings.add(f"{owner}.{keyword.arg}")
    return settings


def env_variables() -> set[str]:
    return {
        name
        for path in (ROOT / "src" / "repro").rglob("*.py")
        for name in re.findall(r"\"(REPRO_[A-Z_]+)\"", path.read_text())
    }


def test_every_cli_argument_is_set_by_a_test():
    settings = cli_settings()
    unset = []
    for (command, dest), action in sorted(cli_options().items()):
        if (command, dest) not in settings:
            unset.append(f"{command} {'/'.join(action.option_strings) or dest}")
        for choice in (action.choices or ()) if not action.option_strings else ():
            if (command, f"{dest}={choice}") not in settings:
                unset.append(f"{command} {choice}")
    assert not unset, f"no test, script or CI step sets: {unset}"


def test_every_config_field_is_set_by_a_test():
    settings = config_settings()
    unset = sorted(
        f"{config.__name__}.{field.name}"
        for config in CONFIGS
        for field in dataclasses.fields(config)
        if f"{config.__name__}.{field.name}" not in settings
    )
    assert not unset, f"no test sets these off their defaults: {unset}"


def test_every_environment_variable_is_set_by_a_test():
    text = "\n".join(path.read_text() for path in reader_files((".py",)))
    unset = sorted(
        name for name in env_variables() if not re.search(rf"setenv\(\s*\"{name}\"", text)
    )
    assert env_variables(), "the REPRO_* scan found nothing"
    assert not unset, f"no test sets: {unset}"
