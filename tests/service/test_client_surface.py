"""The client surface every transport speaks, in-process and over TCP.

``estimate``, ``estimate_batch``, ``stats`` and ``close``, plus the
``selectivity`` / ``cardinality`` conveniences: each case runs on an
:class:`~repro.service.InProcessClient` and on a
:class:`~repro.service.SocketClient` dialled at a server on a thread,
both in front of one :class:`~repro.service.EstimationService`, and
checks that the two answer alike.
"""

from __future__ import annotations

import pytest

from repro.service import (
    EstimationService,
    InProcessClient,
    ServiceConfig,
    connect,
)
from repro.service.client import TransportError
from repro.service.protocol import InvalidRequest, ServiceClosed
from repro.service.server import start_in_thread

SQL = "SELECT * FROM R, S WHERE R.x = S.y AND R.a BETWEEN 10 AND 40"


@pytest.fixture()
def service(service_catalog):
    svc = EstimationService(service_catalog, config=ServiceConfig(workers=1))
    yield svc
    svc.close()


@pytest.fixture(params=["in_process", "socket"])
def client(request, service):
    if request.param == "in_process":
        with connect(service) as in_process:
            yield in_process
        return
    handle = start_in_thread(service, port=0)
    try:
        with connect(handle, timeout_s=30.0) as socket_client:
            yield socket_client
    finally:
        handle.close()


def test_batch_answers_in_input_order(client, service, factor_sharing_queries):
    batch = client.estimate_batch(factor_sharing_queries)
    expected = [
        service.estimate(query).selectivity for query in factor_sharing_queries
    ]
    assert [answer.selectivity for answer in batch] == expected
    assert len({answer.selectivity for answer in batch}) > 1


def test_an_empty_batch_is_empty(client):
    assert client.estimate_batch([]) == []


def test_sql_query_and_predicate_set_are_one_request(client, join_query):
    by_sql, by_query, by_set = client.estimate_batch(
        [SQL, join_query, join_query.predicates]
    )
    assert by_sql.selectivity == by_query.selectivity == by_set.selectivity
    assert by_sql.cardinality == pytest.approx(by_query.cardinality)


def test_selectivity_and_cardinality_are_the_estimates(client, join_query):
    answer = client.estimate(join_query)
    assert client.selectivity(join_query) == answer.selectivity
    assert client.cardinality(join_query) == answer.cardinality
    assert 0.0 < answer.selectivity <= 1.0


def test_stats_count_what_was_served(client, factor_sharing_queries):
    client.estimate_batch(factor_sharing_queries)
    client.estimate(factor_sharing_queries[0])
    service_stats = client.stats()["service"]
    served = len(factor_sharing_queries) + 1
    assert service_stats["submitted"] >= served
    assert service_stats["served"] >= served


def test_a_bad_member_fails_the_batch_with_its_typed_error(client, join_query):
    with pytest.raises(InvalidRequest):
        client.estimate_batch(
            [join_query, "SELECT * FROM T WHERE T.a BETWEEN 1 AND 2"]
        )
    # the connection and the service keep serving
    assert client.estimate(join_query).selectivity > 0.0


def test_a_batch_deadline_is_carried(client, factor_sharing_queries):
    batch = client.estimate_batch(factor_sharing_queries, timeout=30.0)
    assert len(batch) == len(factor_sharing_queries)


def test_a_warm_shape_is_answered_from_the_plan_cache(
    client, factor_sharing_queries
):
    client.estimate(factor_sharing_queries[0])
    again = client.estimate_batch(factor_sharing_queries[1:])
    assert all(answer.plan_cache_hit for answer in again)


def test_a_repeated_batch_answers_alike(client, factor_sharing_queries):
    first = client.estimate_batch(factor_sharing_queries)
    second = client.estimate_batch(factor_sharing_queries)
    assert [a.selectivity for a in first] == [a.selectivity for a in second]
    assert [a.snapshot_version for a in first] == [
        a.snapshot_version for a in second
    ]


def test_a_closed_socket_client_refuses(service, join_query):
    handle = start_in_thread(service, port=0)
    try:
        client = connect(handle, timeout_s=30.0)
        client.close()
        with pytest.raises(TransportError, match="closed"):
            client.estimate(join_query)
    finally:
        handle.close()


def test_an_owning_client_closes_its_service(service_catalog, join_query):
    service = EstimationService(service_catalog, config=ServiceConfig(workers=1))
    client = InProcessClient(service, owns_service=True)
    assert client.estimate_batch([join_query])[0].selectivity > 0.0
    client.close()
    assert service.closed
    with pytest.raises(ServiceClosed):
        client.estimate_batch([join_query])


class TestServiceConveniences:
    def test_selectivity_is_the_served_estimates(self, service, join_query):
        assert service.selectivity(join_query) == (
            service.estimate(join_query).selectivity
        )

    def test_cardinality_is_the_served_estimates(
        self, service, join_query, two_table_db
    ):
        served = service.estimate(join_query)
        assert service.cardinality(join_query) == served.cardinality
        assert served.cardinality == pytest.approx(
            served.selectivity * two_table_db.cross_product_size({"R", "S"})
        )
