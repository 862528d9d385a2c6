"""A served SQL hit goes from its literals to the compiled plan.

``EstimationService.admit`` answers a statement whose scanned skeleton
is stored and whose shape is compiled without building a predicate, a
fingerprint sort or an ``EstimationResult``
(:meth:`~repro.sql.template.TemplateFrontEnd.scan`): the skeleton's
route fills the rows and checks their order, and a statement the check
refuses is ordered by :func:`~repro.core.plancache.bounds_fingerprint`.
The predicate path — ``parse_predicates``, ``shape_fingerprint``,
``CompiledPlan.replay`` — is the oracle: every answer is checked field
for field against it, and its selectivity and error against a
plan-cache-off session.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import threading

import pytest

from repro.catalog import EstimationSession
from repro.core import plancache
from repro.core import predicates as predicates_module
from repro.core.get_selectivity import EstimationResult
from repro.core.predicates import FilterPredicate
from repro.obs import StalenessTracker
from repro.service import EstimationService, ServiceConfig
from repro.service.protocol import InvalidRequest, ServedEstimate
from repro.sql import parse_query
from repro.sql import template as template_module
from repro.sql.template import TemplateFrontEnd, _Route
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
        monkeypatch.setattr(TemplateFrontEnd, "scan", lambda self, sql: None)

    return off


@pytest.fixture()
def sorted_path(monkeypatch):
    """Turns the routes off: every scanned hit is ordered by
    ``bounds_fingerprint``, as a statement the order check refuses is."""

    def off():
        monkeypatch.setattr(_Route, "fill", lambda self, literals: None)

    return off


class _CountingLock:
    """The front end's lock, counting its acquisitions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.taken = 0

    def __enter__(self) -> None:
        self._lock.acquire()
        self.taken += 1

    def __exit__(self, *exc_info) -> None:
        self._lock.release()


@pytest.fixture()
def key_calls(monkeypatch) -> dict[str, int]:
    """Counts ``bounds_fingerprint`` and ``filter_text`` calls."""
    calls = {"bounds_fingerprint": 0, "filter_text": 0}

    def counting(module, name):
        call = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return call(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(template_module, "bounds_fingerprint")
    counting(predicates_module, "filter_text")
    return calls


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
    def test_25_templates_by_64_constant_sets_three_ways(
        self, snowflake, predicate_path, sorted_path, filter_births, key_calls
    ):
        """Routed, sorted by ``bounds_fingerprint``, and through the
        predicates: the same answers.  A routed hit formats no filter
        text and takes no front-end lock; only the few statements whose
        constants reorder their rows are sorted, and count a fallback
        under the lock."""
        database, queries, catalog, _ = snowflake
        statements = stream(queries, 64, seed=3)
        assert len(statements) == 25 * 64
        with EstimationService(catalog, config=ONE_WORKER) as service:
            admit_all(service, statements)  # every ordering compiled
            front = service._sql
            assert all(route is not None for _, route in front._scanned.values())
            fallbacks = front.fallbacks
            arrived = service.stats_snapshot().service["answered_on_arrival"]
            filter_births[0] = 0
            key_calls.update(bounds_fingerprint=0, filter_text=0)
            front._lock = lock = _CountingLock()
            literal = admit_all(service, statements)
            sorted_hits = front.fallbacks - fallbacks
            assert filter_births[0] == 0, "a hit built a FilterPredicate"
            assert (
                service.stats_snapshot().service["answered_on_arrival"] - arrived
                == len(statements)
            )
            assert 0 < sorted_hits <= len(statements) // 100
            assert key_calls["bounds_fingerprint"] == sorted_hits
            assert lock.taken == sorted_hits
            plans = len(service._plan_cache)
            assert plans <= 31
            sorted_path()
            ordered = admit_all(service, statements)
            assert front.fallbacks - fallbacks == sorted_hits + len(statements)
            predicate_path()
            oracle = admit_all(service, statements)
            assert len(service._plan_cache) == plans
        assert all(type(answer) is ServedEstimate for answer in literal)
        assert all(answer.plan_cache_hit for answer in literal)
        assert list(map(without_latency, literal)) == list(map(without_latency, oracle))
        assert list(map(without_latency, ordered)) == list(map(without_latency, oracle))
        assert [a.selectivity.hex() for a in literal] == [a.selectivity.hex() for a in oracle]
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
    "constants that reorder two range rows": (
        JOINED.format("a BETWEEN 9 AND 40 AND b BETWEEN 10 AND 90"),
        [JOINED.format("a BETWEEN 10 AND 40 AND b BETWEEN 9 AND 90"),
         JOINED.format("a BETWEEN 9 AND 40 AND b BETWEEN 10 AND 90")],
    ),
    "a range row that is a point": (
        JOINED.format("a BETWEEN 5 AND 30 AND b > 50"),
        [JOINED.format("a BETWEEN 30 AND 30 AND b > 50"),
         JOINED.format("a BETWEEN 5 AND 30 AND b > 50")],
    ),
    "a range row that is an infinite point": (
        JOINED.format("a >= 5 AND b <= 80"),
        [JOINED.format("a >= 1e999 AND b <= 80"), JOINED.format("a >= 7 AND b <= 80")],
    ),
    "a merge into one range": (
        JOINED.format("a >= 5 AND a <= 10"),
        [JOINED.format(f"a >= {lo} AND a <= {hi}") for lo, hi in [(5, 10), (7, 40), (-3, 2)]],
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

    @pytest.mark.parametrize(
        "first, sql, routed",
        [
            # 9<=R.a sorts after 10<=S.b; here 10<=R.a sorts first
            (JOINED.format("a BETWEEN 9 AND 40 AND b BETWEEN 10 AND 90"),
             JOINED.format("a BETWEEN 10 AND 40 AND b BETWEEN 9 AND 90"), False),
            (JOINED.format("a BETWEEN 9 AND 40 AND b BETWEEN 10 AND 90"),
             JOINED.format("a BETWEEN 8 AND 40 AND b BETWEEN 11 AND 90"), True),
            (JOINED.format("a BETWEEN 5 AND 30"), JOINED.format("a BETWEEN 30 AND 30"), False),
            (JOINED.format("a >= 5"), JOINED.format("a >= 1e999"), False),
            (JOINED.format("a >= 5 AND a <= 10"), JOINED.format("a >= 7 AND a <= 40"), True),
            (JOINED.format("a >= 5 AND a <= 10"), JOINED.format("a >= 7 AND a <= 7"), False),
        ],
    )
    def test_the_route_takes_what_keeps_its_order(
        self, two_table_service, service_catalog, first, sql, routed
    ):
        """A route answers only where its order is the statement's own;
        the rest is sorted, and counted as a fallback."""
        service = two_table_service
        admit_all(service, [first, first, sql, sql])  # both shapes compiled
        front = service._sql
        fallbacks = front.fallbacks
        (answer,) = admit_all(service, [sql])
        assert type(answer) is ServedEstimate and answer.plan_cache_hit
        assert front.fallbacks - fallbacks == (0 if routed else 1)
        twin = EstimationSession(service_catalog, plan_cache=False)
        expected = twin.estimate(parse_query(sql, front.schema))
        assert (answer.selectivity, answer.error) == (expected.selectivity, expected.error)

    def test_a_notify_between_two_hits_answers_from_no_evicted_plan(
        self, two_table_service, service_catalog, two_table_db
    ):
        service = two_table_service
        sql = JOINED.format("a BETWEEN 10 AND 40 AND b > 20")
        admit_all(service, [sql, sql])
        cache = service._plan_cache
        (before,) = admit_all(service, [sql])
        assert before.plan_cache_hit
        evictions = cache.evictions
        service_catalog.notify_table_update("R")
        (after,) = admit_all(service, [sql])
        assert cache.evictions > evictions
        assert not after.plan_cache_hit  # the worker compiled it again
        assert after.snapshot_version == service_catalog.version > before.snapshot_version
        (again,) = admit_all(service, [sql])
        assert again.plan_cache_hit
        assert (again.selectivity, again.error) == (after.selectivity, after.error)
        twin = EstimationSession(service_catalog, plan_cache=False)
        expected = twin.estimate(parse_query(sql, service.database.schema))
        assert (again.selectivity, again.error) == (expected.selectivity, expected.error)

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

    def test_a_routed_hit_formats_no_text_and_takes_no_lock(
        self, two_table_service, key_calls
    ):
        service = two_table_service
        # R.a's text sorts first in all of them: lo's first digit is lower
        statements = [self.SQL.format(lo, lo + 8, lo + 50) for lo in range(10, 50)]
        admit_all(service, statements)
        front = service._sql
        fallbacks = front.fallbacks
        key_calls.update(bounds_fingerprint=0, filter_text=0)
        front._lock = lock = _CountingLock()
        answers = admit_all(service, statements)
        assert all(type(answer) is ServedEstimate and answer.plan_cache_hit for answer in answers)
        assert key_calls == {"bounds_fingerprint": 0, "filter_text": 0}
        assert front.fallbacks == fallbacks
        assert lock.taken == 0

    def test_a_store_that_starts_the_tables_over_under_a_reading_thread(
        self, two_table_service, monkeypatch
    ):
        """The scan reads the scanned table without the lock; a submitter
        whose store empties both tables meanwhile costs it nothing but a
        miss (``parse_predicates`` answers)."""
        service = two_table_service
        front = service._sql
        monkeypatch.setattr(template_module, "TEMPLATE_LIMIT", 3)
        sql = self.SQL.format(10, 30, 50)
        admit_all(service, [sql, sql])
        (expected,) = admit_all(service, [sql])
        failures: list[BaseException] = []
        stop = threading.Event()
        scans = [0, 0]

        def reader() -> None:
            try:
                while not stop.is_set():
                    hit = front.scan(sql)
                    scans[hit is None] += 1
                    if hit is not None:
                        (answer,) = service.admit([(sql, None)])
                        assert without_latency(answer) == without_latency(expected)
            except BaseException as exc:
                failures.append(exc)
                stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for index in range(300):
                front.parse(f"SELECT * FROM R r{index} WHERE r{index}.a > 5")
                front.parse(sql)
        finally:
            stop.set()
            thread.join(timeout=60.0)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert not failures, failures[0]
        assert scans[0] > 0 and scans[1] > 0  # it saw the table full and empty

    def test_a_hit_calls_no_python_hash(self, two_table_service):
        """Every dict probe of a hit hashes attributes — the range merge's
        and the plan cache's shape tokens — and none enters Python:
        ``Attribute`` hashes as its ``(table, column)`` tuple."""
        service = two_table_service
        statements = [self.SQL.format(lo, lo + 8, 60 - lo) for lo in range(40)]
        admit_all(service, statements)  # every filter order compiled
        hashes: list[str] = []

        def profile(frame, event, _arg):
            if event == "call" and frame.f_code.co_name == "__hash__":
                hashes.append(frame.f_code.co_qualname)

        sys.setprofile(profile)
        try:
            answers = service.admit([(sql, None) for sql in statements])
        finally:
            sys.setprofile(None)
        assert all(type(answer) is ServedEstimate and answer.plan_cache_hit for answer in answers)
        assert hashes == []

    def test_a_hit_on_another_skeleton_of_the_shape_compares_by_identity(
        self, two_table_service
    ):
        """Two clause orders are two skeletons of one shape.  The front
        end binds each column to one ``Attribute``, so a route's key and
        the plan compiled through the other skeleton hold the same token
        objects: the probe calls no Python ``__eq__``."""
        service = two_table_service
        compiled = JOINED.format("a BETWEEN 10 AND 30 AND b > 50")
        admit_all(service, [compiled, compiled])
        other = [f"SELECT * FROM R, S WHERE b > {50 + lo} AND a BETWEEN {10 + lo} AND 30 "
                 f"AND R.x = S.y" for lo in range(8)]
        admit_all(service, other)
        calls: list[str] = []

        def profile(frame, event, _arg):
            if event == "call" and frame.f_code.co_name == "__eq__":
                calls.append(frame.f_code.co_qualname)

        sys.setprofile(profile)
        try:
            answers = service.admit([(sql, None) for sql in other])
        finally:
            sys.setprofile(None)
        assert all(type(answer) is ServedEstimate and answer.plan_cache_hit for answer in answers)
        assert len(service._plan_cache) == 1
        assert calls == []

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
