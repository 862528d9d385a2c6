"""SQL requests through the service's template front end: the two
counters, and concurrent submitters across the table's start-over."""

from __future__ import annotations

import sys
import threading

from repro.catalog import EstimationSession
from repro.service import EstimationService, ServiceConfig
from repro.sql import parse_query
from repro.sql.template import TEMPLATE_LIMIT

FAST = ServiceConfig(workers=1, queue_depth=256)

SHAPES = (
    "SELECT * FROM R, S WHERE R.x = S.y AND R.a BETWEEN {} AND {}",
    "SELECT * FROM R, S WHERE R.x = S.y AND a >= {} AND {} >= a",
    "SELECT * FROM R WHERE a > {} AND a < {}",
)


class TestCounters:
    def test_hits_plus_misses_is_the_sql_requests_admitted(
        self, service_catalog, join_query
    ):
        statements = [
            shape.format(low, low + 30) for low in range(0, 40, 4) for shape in SHAPES
        ]
        with EstimationService(service_catalog, config=FAST) as service:
            before = service.stats_snapshot().service
            outcomes = service.submit_many(
                [(sql, None) for sql in statements]
                + [(join_query, None), (join_query.predicates, None)]
            )
            for outcome in outcomes:
                outcome.result(timeout=30.0)
            stats = service.stats_snapshot().service
        assert before["sql_template_hits"] == before["sql_template_misses"] == 0.0
        assert stats["submitted"] == len(statements) + 2.0
        # a Query and a predicate set were never SQL: they count in neither
        assert stats["sql_template_hits"] + stats["sql_template_misses"] == len(statements)
        assert stats["sql_template_misses"] == float(len(SHAPES))


class _OwnedLock:
    """A lock that knows which thread holds it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.owner: int | None = None

    def __enter__(self) -> None:
        self._lock.acquire()
        self.owner = threading.get_ident()

    def __exit__(self, *exc_info) -> None:
        self.owner = None
        self._lock.release()


class _GuardedTable(dict):
    """A template table that refuses to be read for a lookup, or changed,
    by a thread that does not hold the front end's lock."""

    def __init__(self, lock: _OwnedLock):
        super().__init__()
        self._lock = lock

    def _held(self) -> None:
        assert self._lock.owner == threading.get_ident(), "table touched unguarded"

    def get(self, key, default=None):
        self._held()
        return super().get(key, default)

    def __setitem__(self, key, value) -> None:
        self._held()
        super().__setitem__(key, value)

    def clear(self) -> None:
        self._held()
        super().clear()


class TestConcurrentSubmitters:
    THREADS = 8
    GROUPS = 30
    GROUP = 8

    def test_eight_threads_across_the_start_over(self, two_table_db, service_catalog):
        """More distinct skeletons than the table holds, from eight
        threads at once: every answer is ``parse_query``'s, nothing is
        raised, the table's accounts add up — and every touch of the
        table happens under its lock (drop the guard and this fails)."""
        schema = two_table_db.schema
        assert self.THREADS * self.GROUPS * self.GROUP // 2 > TEMPLATE_LIMIT
        oracle = EstimationSession(service_catalog.snapshot())
        expected: dict[frozenset, float] = {}

        def statements(thread: int, group: int) -> list[str]:
            out = []
            for member in range(self.GROUP):
                low = (7 * thread + 3 * group + member) % 40
                if member % 2:  # a shape every thread shares
                    out.append(SHAPES[member % 3].format(low, low + 25))
                else:  # a shape nobody has sent before
                    alias = f"t{thread}_{group}_{member}"
                    out.append(
                        f"SELECT * FROM R {alias}, S WHERE {alias}.x = S.y "
                        f"AND {alias}.a BETWEEN {low} AND {low + 25}"
                    )
            return out

        failures: list[BaseException] = []
        compared = [0] * self.THREADS

        def submitter(thread: int, service: EstimationService) -> None:
            try:
                for group in range(self.GROUPS):
                    sqls = statements(thread, group)
                    outcomes = service.submit_many([(sql, None) for sql in sqls])
                    for sql, outcome in zip(sqls, outcomes):
                        served = outcome.result(timeout=60.0)
                        query = parse_query(sql, schema)
                        assert served.selectivity == expected[query.predicates]
                        compared[thread] += 1
            except BaseException as exc:
                failures.append(exc)

        for thread in range(self.THREADS):
            for group in range(self.GROUPS):
                for sql in statements(thread, group):
                    query = parse_query(sql, schema)
                    if query.predicates not in expected:
                        expected[query.predicates] = oracle.estimate(query).selectivity

        interval = sys.getswitchinterval()
        with EstimationService(service_catalog, config=FAST) as service:
            front = service._sql
            front._lock = _OwnedLock()
            front._templates = _GuardedTable(front._lock)
            sys.setswitchinterval(1e-5)
            try:
                threads = [
                    threading.Thread(target=submitter, args=(thread, service))
                    for thread in range(self.THREADS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures, failures[0]
            total = self.THREADS * self.GROUPS * self.GROUP
            assert sum(compared) == total
            assert front.hits + front.misses == total
            assert front.misses >= total // 2  # the fresh aliases, at least
            assert 0 < len(front) <= TEMPLATE_LIMIT
            assert front.skeleton_bytes == sum(
                len(run) for skeleton in front._templates for run in skeleton
            )
