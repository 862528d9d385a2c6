"""Fixtures for the serving-layer tests: a catalog over the two-table
database plus a family of factor-sharing queries."""

from __future__ import annotations

import threading

import pytest

from repro.catalog import EstimationSession, StatisticsCatalog
from repro.core.predicates import FilterPredicate
from repro.engine.expressions import Query
from repro.stats.builder import SITBuilder


@pytest.fixture()
def service_catalog(two_table_db, two_table_pool) -> StatisticsCatalog:
    """A fresh refresh-capable catalog per test (tests mutate it)."""
    return StatisticsCatalog.from_pool(
        two_table_pool,
        database=two_table_db,
        builder=SITBuilder(two_table_db),
    )


@pytest.fixture()
def join_query(two_table_attrs, two_table_join) -> Query:
    return Query.of(
        two_table_join, FilterPredicate(two_table_attrs["Ra"], 10.0, 40.0)
    )


@pytest.fixture()
def factor_sharing_queries(two_table_attrs, two_table_join) -> list[Query]:
    """K queries sharing the join factor, each with a different filter —
    the shared-factor workload in miniature."""
    attribute = two_table_attrs["Ra"]
    return [
        Query.of(two_table_join, FilterPredicate(attribute, low, low + 25.0))
        for low in (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)
    ]


@pytest.fixture()
def cold_queries(two_table_attrs, two_table_join) -> list[Query]:
    """Three queries of three different shapes: on a fresh service each
    is a plan-cache miss, so each goes to a worker."""
    ra = FilterPredicate(two_table_attrs["Ra"], 10.0, 40.0)
    sb = FilterPredicate(two_table_attrs["Sb"], 20.0, 70.0)
    return [
        Query.of(two_table_join, ra),
        Query.of(two_table_join, sb),
        Query.of(two_table_join, ra, sb),
    ]


class SessionGate:
    """Holds every worker that reaches its session until :meth:`open`."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self._opened = threading.Event()

    def wait_entered(self, timeout: float = 10.0) -> None:
        """Block until a worker is inside a batch (and so not dequeuing)."""
        assert self.entered.wait(timeout), "no worker reached its session"

    def open(self) -> None:
        self._opened.set()

    def rearm(self) -> None:
        """Hold the next workers to reach their session again."""
        self.entered.clear()
        self._opened.clear()


@pytest.fixture()
def session_gate(monkeypatch) -> SessionGate:
    """Workers block at ``EstimationSession.estimate_batch`` — the one
    call a service worker makes into its session — until the test opens
    the gate: a held batch without a sleep."""
    gate = SessionGate()
    real_estimate_batch = EstimationSession.estimate_batch

    def gated(self, predicate_sets):
        gate.entered.set()
        gate._opened.wait(timeout=30.0)
        return real_estimate_batch(self, predicate_sets)

    monkeypatch.setattr(EstimationSession, "estimate_batch", gated)
    yield gate
    gate.open()
