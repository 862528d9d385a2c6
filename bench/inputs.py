"""Benchmark inputs: what is fixed, and what ``--seed`` decides.

Fixed from :data:`BASE_SEED`, never from ``--seed``: the snowflake
database, the query *templates* (join/filter shapes) and the catalog
built over them.  Decided by ``--seed``: every filter constant and the
order requests are sent in.  The program under test only ever receives
the generated predicate sets or SQL text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.catalog import StatisticsCatalog
from repro.core.plancache import shape_fingerprint
from repro.core.predicates import FilterPredicate, tables_of
from repro.engine.database import Database
from repro.engine.expressions import Query
from repro.workload.queries import WorkloadConfig, WorkloadGenerator
from repro.workload.snowflake import SnowflakeConfig, generate_snowflake

#: seed of everything that must be identical on every run and commit
BASE_SEED = 20040613
#: 20,000 ``sales`` rows
SCALE = 1.0

#: (joins, filters, templates) per template class; J1F2 ... J4F3.  No
#: J4F4: one takes 0.8 - 0.9 s to compile, every run compiles the hot set
#: three times in set-up, and the plan-cache-off twin pays it once more.
#: Every template list has an odd length: requests of one template cost
#: alike, so latencies come in one cluster per template, and with an even
#: count the median would sit in the gap between two clusters
REPLAY_CLASSES = (
    (1, 2, 4), (1, 3, 3), (2, 2, 3), (2, 3, 3), (2, 4, 3), (3, 3, 3), (3, 4, 3), (4, 3, 3),
)  # fmt: skip
#: constant sets per hot template: a pass is 25 x 64 = 1,600 requests
REPLAY_VARIANTS = 64
#: at most 7 predicates, so one cold estimate stays well under a second;
#: few J3F4 because one of them costs as much as fifteen J2F2, and a
#: pass must be short enough to repeat several times in a run
COLD_CLASSES = ((2, 2, 15), (2, 3, 16), (3, 3, 12), (3, 4, 4))
#: the 95th percentile of a pass is the median recompile: the middle one
#: of the 25 templates
STORM_CLASSES = ((1, 2, 5), (1, 3, 5), (2, 2, 5), (2, 3, 5), (3, 3, 5))


def build_database() -> Database:
    return generate_snowflake(SnowflakeConfig(scale=SCALE, seed=BASE_SEED))


def draw_templates(
    database: Database, classes: tuple[tuple[int, int, int], ...]
) -> list[list[Query]]:
    """Per class, its templates: drawn from one generator per class and
    de-duplicated on the shape fingerprint, so each template is its own
    plan-cache entry."""
    drawn: list[list[Query]] = []
    for joins, filters, count in classes:
        generator = WorkloadGenerator(
            database,
            WorkloadConfig(
                join_count=joins,
                filter_count=filters,
                seed=BASE_SEED + 1000 * joins + filters,
            ),
        )
        seen: set[tuple] = set()
        templates: list[Query] = []
        for _attempt in range(50 * count):
            query = generator.generate_one()
            fingerprint = shape_fingerprint(query.predicates)[0]
            # the generator may drop filters on an empty result
            if len(query.predicates) == joins + filters and fingerprint not in seen:
                seen.add(fingerprint)
                templates.append(query)
                if len(templates) == count:
                    break
        else:
            raise RuntimeError(f"fewer than {count} distinct J{joins}F{filters} templates")
        drawn.append(templates)
    return drawn


def flatten(nested: list[list]) -> list:
    return [item for items in nested for item in items]


def build_catalog(database: Database, templates: list[Query]) -> StatisticsCatalog:
    """The paper's J2 pool over ``templates`` plus a base histogram on
    every attribute, so no template outside the build workload fails
    with ``NoApplicableStatisticsError``."""
    catalog = StatisticsCatalog.build(database, templates, max_joins=2)
    present = {sit.attribute for sit in catalog if sit.is_base}
    for table in database.schema.tables.values():
        for attribute in table.attributes:
            if attribute not in present:
                catalog.add(catalog.builder.build_base(attribute))
    return catalog


def constant_variants(
    rng: random.Random, predicates: frozenset, count: int
) -> list[frozenset]:
    """``count`` re-instantiations of a template with fresh filter
    constants, rejection-sampled until the str-sort order — and so the
    shape fingerprint — is the template's (same sampler as
    ``repro.bench.perf``; kept here so the benchmark's inputs cannot
    change with the program)."""
    joins = {p for p in predicates if p.is_join}
    filters = sorted((p for p in predicates if not p.is_join), key=str)
    base = shape_fingerprint(predicates)[0]
    variants: list[frozenset] = []
    while len(variants) < count:
        for attempt in range(64):
            scale = 0.6 * (0.7**attempt)
            fresh: set = set(joins)
            for old in filters:
                span = max(1.0, old.high - old.low)
                low = round(old.low + rng.uniform(-scale, scale) * span, 3)
                if old.low == old.high:
                    high = low  # point filters render attribute-first
                else:
                    high = round(low + span * rng.uniform(0.6, 1.4), 3)
                fresh.add(FilterPredicate(old.attribute, low, high))
            variant = frozenset(fresh)
            if len(variant) == len(predicates) and shape_fingerprint(variant)[0] == base:
                variants.append(variant)
                break
        else:
            raise RuntimeError("could not re-instantiate the template shape")
    return variants


def render_sql(predicates: frozenset) -> str:
    """SQL text that ``repro.sql.parse_query`` binds back to exactly
    ``predicates`` (``repr`` of a float round-trips)."""
    clauses = []
    for predicate in sorted(predicates, key=str):
        if predicate.is_join:
            clauses.append(f"{predicate.left} = {predicate.right}")
        elif predicate.low == predicate.high:
            clauses.append(f"{predicate.attribute} = {predicate.low!r}")
        else:
            clauses.append(
                f"{predicate.attribute} BETWEEN {predicate.low!r} AND {predicate.high!r}"
            )
    tables = ", ".join(sorted(tables_of(predicates)))
    return f"SELECT * FROM {tables} WHERE {' AND '.join(clauses)}"


@dataclass(frozen=True)
class Request:
    """One request of a stream: the predicate set, and the SQL text when
    that is what is sent."""

    predicates: frozenset
    sql: str | None = None

    def line(self) -> str:
        """Canonical one-line spelling (stream identity in the tests)."""
        return self.sql or render_sql(self.predicates)


def instantiate(
    templates: list[Query], variants: int, seed: int, *, sql: bool = False
) -> list[list[Request]]:
    """``variants`` seeded constant sets per template (template-major)."""
    rng = random.Random(seed)
    return [
        [
            Request(variant, render_sql(variant) if sql else None)
            for variant in constant_variants(rng, template.predicates, variants)
        ]
        for template in templates
    ]


def shuffled(requests: list[Request], seed: int) -> list[Request]:
    ordered = list(requests)
    random.Random(seed ^ 0x5EED).shuffle(ordered)
    return ordered


def stream_bytes(stream: list[Request]) -> bytes:
    return "\n".join(request.line() for request in stream).encode("utf-8")
