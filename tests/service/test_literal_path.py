"""A served SQL hit goes from its literals to the compiled plan.

``EstimationService.admit`` answers a statement whose scanned skeleton
is stored and whose shape is compiled without building a predicate, a
fingerprint sort or an ``EstimationResult``
(:meth:`~repro.sql.template.TemplateFrontEnd.ranges`,
:func:`~repro.core.plancache.bounds_fingerprint`).  The predicate path —
``parse_predicates``, ``shape_fingerprint``, ``CompiledPlan.replay`` —
is the oracle: every answer is checked field for field against it, and
its selectivity and error against a plan-cache-off session.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.catalog import EstimationSession
from repro.core import plancache
from repro.core.get_selectivity import EstimationResult
from repro.core.predicates import FilterPredicate
from repro.obs import StalenessTracker
from repro.service import EstimationService, ServiceConfig
from repro.service.protocol import InvalidRequest, ServedEstimate
from repro.sql import parse_query
from repro.sql.template import TemplateFrontEnd
from repro.workload.fixture import snowflake_fixture

ONE_WORKER = ServiceConfig(workers=1, queue_depth=4096)
GROUP = 8


def render(predicates, rng: random.Random) -> str:
    """SQL that binds back to ``predicates``: clauses in ``str`` order (so
    the constants decide the skeleton, as a client's renderer does) or
    shuffled, a range as ``BETWEEN`` or as two comparisons."""
    clauses = []
    for predicate in sorted(predicates, key=str):
        if predicate.is_join:
            clauses.append(f"{predicate.left} = {predicate.right}")
        elif predicate.low == predicate.high:
            clauses.append(f"{predicate.attribute} = {predicate.low!r}")
        elif rng.random() < 0.5:
            clauses.append(
                f"{predicate.attribute} BETWEEN {predicate.low!r} AND {predicate.high!r}"
            )
        else:
            clauses.append(f"{predicate.attribute} >= {predicate.low!r}")
            clauses.append(f"{predicate.attribute} <= {predicate.high!r}")
    if rng.random() < 0.25:
        rng.shuffle(clauses)
    tables = ", ".join(sorted({t for p in predicates for t in p.tables}))
    return f"SELECT * FROM {tables} WHERE {' AND '.join(clauses)}"


def without_latency(answer):
    """Every field but the one that is a clock reading."""
    if not isinstance(answer, ServedEstimate):
        return (type(answer), str(answer))
    return dataclasses.replace(answer, latency_ms=0.0)


def admit_all(service: EstimationService, statements: list[str]) -> list:
    """``admit`` in groups, as the server does; futures resolved."""
    outcomes = []
    for start in range(0, len(statements), GROUP):
        for outcome in service.admit([(sql, None) for sql in statements[start : start + GROUP]]):
            if not isinstance(outcome, (ServedEstimate, Exception)):
                try:
                    outcome = outcome.result(timeout=60.0)
                except Exception as exc:  # the typed failure is the answer
                    outcome = exc
            outcomes.append(outcome)
    return outcomes


@pytest.fixture()
def predicate_path(monkeypatch):
    """Turns the scan off: every SQL statement takes ``parse_predicates``."""

    def off():
        monkeypatch.setattr(TemplateFrontEnd, "ranges", lambda self, sql: None)

    return off


@pytest.fixture()
def filter_births(monkeypatch) -> list[int]:
    """Counts ``FilterPredicate`` constructions."""
    count = [0]
    init = FilterPredicate.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(FilterPredicate, "__init__", counting)
    return count


@pytest.fixture(scope="module")
def snowflake():
    fixture = snowflake_fixture(0.05, 11, 25, max_joins=1)
    fixture.catalog.add_missing_base_histograms()
    return fixture


def stream(queries, variants: int, seed: int) -> list[str]:
    """``variants`` constant sets per template, each filter moved and
    resized by up to a third of its width: the constants reorder the
    filters' texts from one statement to the next."""
    rng = random.Random(seed)
    statements = []
    for query in queries:
        for _ in range(variants):
            moved = set()
            for predicate in query.predicates:
                if predicate.is_join or predicate.low == predicate.high:
                    moved.add(predicate)
                    continue
                width = predicate.high - predicate.low
                low = round(predicate.low + rng.uniform(-width, width) / 3, 3)
                high = round(low + width * rng.uniform(0.6, 1.4), 3)
                moved.add(FilterPredicate(predicate.attribute, low, high))
            statements.append(render(moved, rng))
    rng.shuffle(statements)
    return statements


class TestTheWorkloadStream:
    def test_25_templates_by_64_constant_sets_both_ways(
        self, snowflake, predicate_path, filter_births
    ):
        database, queries, catalog, _ = snowflake
        statements = stream(queries, 64, seed=3)
        assert len(statements) == 25 * 64
        with EstimationService(catalog, config=ONE_WORKER) as service:
            admit_all(service, statements)  # every ordering compiled
            front = service._sql
            hits = front.hits
            filter_births[0] = 0
            literal = admit_all(service, statements)
            assert filter_births[0] == 0, "a hit built a FilterPredicate"
            assert front.hits - hits == len(statements)
            predicate_path()
            oracle = admit_all(service, statements)
        assert all(type(answer) is ServedEstimate for answer in literal)
        assert all(answer.plan_cache_hit for answer in literal)
        assert list(map(without_latency, literal)) == list(map(without_latency, oracle))
        twin = EstimationSession(catalog, plan_cache=False)
        for sql, answer in zip(statements[::7], literal[::7]):
            expected = twin.estimate(parse_query(sql, database.schema))
            assert (answer.selectivity, answer.error) == (expected.selectivity, expected.error)


@pytest.fixture()
def two_table_service(service_catalog):
    with EstimationService(service_catalog, config=ONE_WORKER) as service:
        yield service


JOINED = "SELECT * FROM R, S WHERE R.x = S.y AND {}"

#: (a statement that compiles the shape, statements of that skeleton)
CASES = {
    "constants that permute the filter order": (
        JOINED.format("a BETWEEN 1 AND 9 AND b > 50"),
        [JOINED.format(f"a BETWEEN {lo} AND {hi} AND b > {b}")
         for lo, hi, b in [(5, 9, 50), (50, 60, 5), (70, 80, 5), (5, 90, 7), (0, 1, 99)]],
    ),
    "same-attribute merges, and an unsatisfiable one": (
        JOINED.format("a >= 2 AND a <= 60 AND 50 > a"),
        [JOINED.format(f"a >= {lo} AND a <= {hi} AND {cut} > a")
         for lo, hi, cut in [(2, 60, 50), (2, 60, 5), (30, 10, 50), (7, 7, 8), (9, 2, 1)]],
    ),
    "a reversed BETWEEN": (
        JOINED.format("a BETWEEN 18 AND 40"),
        [JOINED.format("a BETWEEN 40 AND 18"), JOINED.format("a BETWEEN 18 AND 40")],
    ),
    "compact spacing, signs and exponents": (
        JOINED.format("a>=5 AND b <= 80"),
        [JOINED.format(f"a>={lo} AND b <= {hi}")
         for lo, hi in [("-5", "+80"), ("1e1", "2.5e1"), ("7", "-0.0"), ("+3", "1E+2")]]
        + [JOINED.format("a >= -5 AND b <= +80"), JOINED.format("a >= 1e1 AND b <= 2.5e1")],
    ),
    "an infinite literal and non-ASCII text": (
        JOINED.format("a >= 5 AND b <= 80"),
        [JOINED.format(f"a >= {lo} AND b <= {hi}")
         for lo, hi in [("-1e999", "80"), ("5", "1e999"), ("1e999", "5"), ("١٢", "80")]]
        + [JOINED.format("a >= 5 AND b <= 80 AND é = 1")],
    ),
}


class TestEdgeCases:
    @pytest.mark.parametrize("case", CASES, ids=list(CASES))
    def test_answered_or_refused_as_the_predicate_path(
        self, two_table_service, service_catalog, predicate_path, case
    ):
        compiling, statements = CASES[case]
        service = two_table_service
        schema = service.database.schema
        admit_all(service, [compiling] + statements)  # compiled, as far as any is
        literal = admit_all(service, statements)
        predicate_path()
        oracle = admit_all(service, statements)
        assert list(map(without_latency, literal)) == list(map(without_latency, oracle))
        twin = EstimationSession(service_catalog, plan_cache=False)
        for sql, answer in zip(statements, literal):
            try:
                query = parse_query(sql, schema)
            except Exception as exc:
                assert isinstance(answer, InvalidRequest) and str(answer) == str(exc)
                continue
            expected = twin.estimate(query)
            assert (answer.selectivity, answer.error) == (expected.selectivity, expected.error)

    def test_a_reversed_between_is_invalid_with_the_oracles_message(self, two_table_service):
        service = two_table_service
        admit_all(service, [JOINED.format("a BETWEEN 18 AND 40")] * 2)
        (refused,) = admit_all(service, [JOINED.format("a BETWEEN 40 AND 18")])
        assert isinstance(refused, InvalidRequest)
        assert str(refused).startswith("empty range for R.a")


class TestWhatTheLiteralPathBuilds:
    SQL = JOINED.format("a BETWEEN {} AND {} AND b > {}")

    def test_a_hit_builds_no_predicate_no_result_and_sorts_no_predicates(
        self, two_table_service, filter_births, monkeypatch
    ):
        service = two_table_service
        statements = [self.SQL.format(lo, lo + 8, 60 - lo) for lo in range(40)]
        admit_all(service, statements)  # every filter order compiled
        built = {"results": 0, "fingerprints": 0}
        replayed = EstimationResult.replayed.__func__
        fingerprint = plancache.shape_fingerprint

        def count(key, call):
            def counting(*args):
                built[key] += 1
                return call(*args)

            return counting

        monkeypatch.setattr(EstimationResult, "replayed", classmethod(count("results", replayed)))
        monkeypatch.setattr(
            "repro.service.service.shape_fingerprint", count("fingerprints", fingerprint)
        )
        filter_births[0] = 0
        answers = admit_all(service, statements)
        assert all(type(answer) is ServedEstimate and answer.plan_cache_hit for answer in answers)
        assert filter_births[0] == 0
        assert built == {"results": 0, "fingerprints": 0}

    def test_a_feedback_sink_still_receives_the_predicate_set(
        self, two_table_service, filter_births
    ):
        service = two_table_service
        schema = service.database.schema
        statements = [self.SQL.format(lo, lo + 8, 60 - lo) for lo in range(0, 40, 4)]
        admit_all(service, statements)
        literal = admit_all(service, statements)
        received: list = []
        service._feedback_sink = lambda predicates, result: received.append(
            (predicates, result)
        )
        fed = admit_all(service, statements)
        assert filter_births[0] > 0  # the sink needs the set, so it is built
        assert [p for p, _ in received] == [
            parse_query(sql, schema).predicates for sql in statements
        ]
        assert [r.selectivity for _, r in received] == [a.selectivity for a in fed]
        assert list(map(without_latency, fed)) == list(map(without_latency, literal))

    def test_a_staleness_tracker_stamps_the_tables_the_predicates_name(
        self, two_table_service, filter_births, predicate_path
    ):
        """The literal path stays on; its stamp covers the predicates'
        tables (``S`` carries none in the second shape), as the
        predicate path's does."""
        service = two_table_service
        tracker = StalenessTracker(clock=lambda: 100.0)
        tracker.note_write("R", when=90.0)
        tracker.note_write("S", when=40.0)
        statements = [self.SQL.format(1, 9, 50), "SELECT * FROM R, S WHERE a > 5"]
        statements += [self.SQL.format(2, 9, 51), "SELECT * FROM R, S WHERE a > 6"]
        admit_all(service, statements)
        service.attach_staleness(tracker)
        filter_births[0] = 0
        literal = admit_all(service, statements[2:])
        assert filter_births[0] == 0
        predicate_path()
        oracle = admit_all(service, statements[2:])
        assert [a.staleness_s for a in literal] == [60.0, 10.0]
        assert list(map(without_latency, literal)) == list(map(without_latency, oracle))
