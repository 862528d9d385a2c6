"""An in-process hit comes back as its answer, and its tables come from
its plan.

``EstimationService.estimate`` and ``InProcessClient`` take a hit from
``admit`` as its ``ServedEstimate`` — no future is built for it — and
only a queued member is waited on.  A bare predicate set is probed
before it is walked: a hit's staleness stamp covers
``CompiledPlan.tables``, and ``tables_of`` runs only on a miss.  So a set
that is not all predicates must still be refused as ``InvalidRequest``
by whichever walk meets it first, with or without a live cache and
before or after its neighbours' shapes are compiled."""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import replace

import pytest

from repro.core.predicates import FilterPredicate
from repro.engine.expressions import Query
from repro.obs import StalenessTracker
from repro.service import EstimationService, ServiceConfig
from repro.service import service as service_module
from repro.service.client import InProcessClient
from repro.service.protocol import InvalidRequest, ServedEstimate

ONE_WORKER = ServiceConfig(workers=1, queue_depth=64)


def wait_for(condition, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def counted_futures(monkeypatch) -> list:
    """Swap the service module's ``Future`` for a subclass that records
    every instance built."""
    built: list = []

    class Counting(Future):
        def __init__(self) -> None:
            super().__init__()
            built.append(self)

    monkeypatch.setattr(service_module, "Future", Counting)
    return built


# ----------------------------------------------------------------------
class TestNoFutureForAHit:
    def test_estimate_of_compiled_shapes_builds_no_future(
        self, service_catalog, factor_sharing_queries, monkeypatch
    ):
        with EstimationService(service_catalog, config=ONE_WORKER) as service:
            service.estimate(factor_sharing_queries[0])  # compiles the shape
            built = counted_futures(monkeypatch)
            answers = [service.estimate(query) for query in factor_sharing_queries]
            sets = [service.estimate(query.predicates) for query in factor_sharing_queries]
            assert built == []
        assert all(type(answer) is ServedEstimate for answer in answers + sets)
        assert all(answer.plan_cache_hit for answer in answers + sets)
        assert [a.selectivity for a in answers] == [a.selectivity for a in sets]

    def test_estimate_batch_of_compiled_shapes_builds_no_future(
        self, service_catalog, factor_sharing_queries, monkeypatch
    ):
        with EstimationService(service_catalog, config=ONE_WORKER) as service:
            client = InProcessClient(service)
            client.estimate(factor_sharing_queries[0])
            built = counted_futures(monkeypatch)
            answers = client.estimate_batch(factor_sharing_queries)
            assert built == []
        assert len(answers) == len(factor_sharing_queries)
        assert all(answer.plan_cache_hit for answer in answers)

    def test_a_miss_builds_one_future_and_is_waited_on(
        self, service_catalog, cold_queries, monkeypatch
    ):
        with EstimationService(service_catalog, config=ONE_WORKER) as service:
            built = counted_futures(monkeypatch)
            answer = service.estimate(cold_queries[0])
            assert len(built) == 1 and built[0].done()
            assert built[0].result() is answer
            batch = InProcessClient(service).estimate_batch(cold_queries[1:])
            assert len(built) == 3
        assert not answer.plan_cache_hit
        assert not any(member.plan_cache_hit for member in batch)

    def test_submit_and_submit_many_still_return_futures(
        self, service_catalog, factor_sharing_queries
    ):
        with EstimationService(service_catalog, config=ONE_WORKER) as service:
            service.estimate(factor_sharing_queries[0])
            future = service.submit(factor_sharing_queries[1])
            outcomes = service.submit_many([(q, None) for q in factor_sharing_queries])
        assert isinstance(future, Future) and future.done()
        assert all(isinstance(outcome, Future) for outcome in outcomes)
        assert all(outcome.result(timeout=0).plan_cache_hit for outcome in outcomes)

    def test_a_refusal_in_a_batch_raises_in_member_order(
        self, service_catalog, factor_sharing_queries, cold_queries
    ):
        """The queued member ahead of a refused one is waited on first;
        the refusal is what the batch raises."""
        with EstimationService(service_catalog, config=ONE_WORKER) as service:
            service.estimate(factor_sharing_queries[0])
            client = InProcessClient(service)
            with pytest.raises(InvalidRequest):
                client.estimate_batch(
                    [factor_sharing_queries[1], cold_queries[1], frozenset(), 7]
                )
            # the compile, then the queued member: served before the raise
            assert service.stats_snapshot().service["batches"] == 2.0


# ----------------------------------------------------------------------
def mixed_set(two_table_attrs) -> frozenset:
    return frozenset({FilterPredicate(two_table_attrs["Ra"], 10.0, 40.0), "R.a > 3"})


MALFORMED = {
    "empty": lambda attrs: frozenset(),
    "ints": lambda attrs: frozenset({1, 2}),
    "predicates_and_a_string": mixed_set,
}


def refused_everywhere(service, request) -> None:
    """Each in-process entry point refuses ``request`` as exactly
    ``InvalidRequest``."""
    for call in (service.estimate, service.submit):
        with pytest.raises(InvalidRequest) as caught:
            call(request)
        assert type(caught.value) is InvalidRequest
    (outcome,) = service.submit_many([(request, None)])
    assert type(outcome) is InvalidRequest
    (outcome,) = service.admit([(request, None)])
    assert type(outcome) is InvalidRequest
    with pytest.raises(InvalidRequest) as caught:
        InProcessClient(service).estimate_batch([request])
    assert type(caught.value) is InvalidRequest


class TestMalformedPredicateSets:
    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_refused_with_no_live_cache(
        self, service_catalog, two_table_attrs, kind, monkeypatch
    ):
        """No cache to probe: the walk for the tables refuses it."""
        monkeypatch.setattr(EstimationService, "_live_cache", lambda self: (None, 0))
        with EstimationService(service_catalog, config=ONE_WORKER) as service:
            refused_everywhere(service, MALFORMED[kind](two_table_attrs))

    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_refused_before_any_shape_is_compiled(
        self, service_catalog, two_table_attrs, kind
    ):
        """A live, empty cache: the fingerprint walk refuses it."""
        with EstimationService(service_catalog, config=ONE_WORKER) as service:
            wait_for(lambda: service._plan_cache is not None)
            refused_everywhere(service, MALFORMED[kind](two_table_attrs))
            assert len(service._plan_cache) == 0

    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_refused_after_the_shape_is_compiled(
        self, service_catalog, two_table_attrs, kind
    ):
        """The mixed set's predicate alone is a compiled shape: still
        refused, and the compiled shape is still answered on arrival."""
        alone = frozenset({FilterPredicate(two_table_attrs["Ra"], 10.0, 40.0)})
        with EstimationService(service_catalog, config=ONE_WORKER) as service:
            service.estimate(alone)
            assert service.estimate(alone).plan_cache_hit
            refused_everywhere(service, MALFORMED[kind](two_table_attrs))
            assert service.estimate(alone).plan_cache_hit

    def test_a_message_names_what_is_not_a_predicate(
        self, service_catalog, two_table_attrs
    ):
        with EstimationService(service_catalog, config=ONE_WORKER) as service:
            with pytest.raises(InvalidRequest, match="not a predicate: int"):
                service.estimate(frozenset({1, 2}))
            with pytest.raises(InvalidRequest, match="not a predicate: str"):
                service.estimate(mixed_set(two_table_attrs))
            with pytest.raises(InvalidRequest, match="no predicates"):
                service.estimate(frozenset())

    def test_a_list_of_predicates_is_served_before_and_after_compiling(
        self, service_catalog, factor_sharing_queries
    ):
        first, second = (list(q.predicates) for q in factor_sharing_queries[:2])
        with EstimationService(service_catalog, config=ONE_WORKER) as service:
            client = InProcessClient(service)
            cold = service.estimate(first)
            hot = service.estimate(second)
            (future,) = service.submit_many([(second, None)])
            batch = client.estimate_batch([first, second])
            by_set = service.estimate(frozenset(second))
        assert not cold.plan_cache_hit
        assert hot.plan_cache_hit and future.result(timeout=0).plan_cache_hit
        assert all(answer.plan_cache_hit for answer in batch)
        assert batch[0].selectivity == cold.selectivity
        assert replace(hot, latency_ms=0.0) == replace(by_set, latency_ms=0.0)


# ----------------------------------------------------------------------
class TestAHitsTablesAreItsPlans:
    def test_a_query_with_an_extra_from_table(self, service_catalog, two_table_attrs):
        """A `Query` over R's filter alone that names S in its FROM: the
        stamp covers R (the predicates' tables, the plan's), the
        cardinality is over R × S (the FROM tables), and every field but
        the latency and the batch equals the queued answer's."""
        attribute = two_table_attrs["Ra"]
        first, second = (
            Query(frozenset({FilterPredicate(attribute, low, low + 25.0)}),
                  tables=frozenset({"R", "S"}))
            for low in (10.0, 30.0)
        )
        tracker = StalenessTracker(clock=lambda: 100.0)
        tracker.note_write("R", when=97.5)
        tracker.note_write("S", when=90.0)  # S's 10 s must not be stamped
        with EstimationService(service_catalog, config=ONE_WORKER) as service:
            service.attach_staleness(tracker)
            _, queued = service.submit_many([(first, None), (second, None)])
            queued = queued.result(timeout=30.0)
            on_arrival = service.estimate(second)
            by_set = service.estimate(second.predicates)
            plan = service._plan_cache.probe(
                service_module.shape_fingerprint(second.predicates)[0]
            )
            database = service.database
        assert plan.tables == frozenset({"R"})
        assert on_arrival.plan_cache_hit and queued.plan_cache_hit
        assert on_arrival.staleness_s == queued.staleness_s == 2.5
        cross = database.cross_product_size(frozenset({"R", "S"}))
        assert on_arrival.cardinality == on_arrival.selectivity * cross
        assert replace(queued, latency_ms=0.0, batch_size=1) == replace(
            on_arrival, latency_ms=0.0, batch_size=1
        )
        # the bare set's own tables are its plan's: R alone
        assert by_set.staleness_s == 2.5 and by_set.selectivity == on_arrival.selectivity
        assert by_set.cardinality == by_set.selectivity * database.cross_product_size(
            frozenset({"R"})
        )

    def test_a_bare_set_hit_walks_no_tables(
        self, service_catalog, factor_sharing_queries, monkeypatch
    ):
        """``tables_of`` runs on a miss only: a hit's tables (stamp and
        cardinality alike) are ``CompiledPlan.tables``."""
        walked: list = []
        tables_of = service_module.tables_of

        def counting(predicates):
            walked.append(predicates)
            return tables_of(predicates)

        monkeypatch.setattr(service_module, "tables_of", counting)
        sets = [query.predicates for query in factor_sharing_queries]
        tracker = StalenessTracker(clock=lambda: 100.0)
        tracker.note_write("S", when=99.0)
        with EstimationService(service_catalog, config=ONE_WORKER) as service:
            service.attach_staleness(tracker)
            cold = service.estimate(sets[0])
            assert walked == [sets[0]]
            hot = [service.estimate(predicates) for predicates in sets[1:]]
            assert walked == [sets[0]]
        assert not cold.plan_cache_hit and all(a.plan_cache_hit for a in hot)
        assert {a.staleness_s for a in [cold, *hot]} == {1.0}
        cross = service.database.cross_product_size(frozenset({"R", "S"}))
        assert all(a.cardinality == a.selectivity * cross for a in [cold, *hot])
