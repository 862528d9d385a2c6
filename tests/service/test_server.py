"""The JSON-lines TCP front-end: round trips, typed failures over the
wire, pipelining, stats."""

from __future__ import annotations

import socket

import pytest

from repro.estimators import SITEstimator
from repro.service import EstimationService, ServiceConfig, connect
from repro.service.protocol import (
    InvalidRequest,
    decode_line,
    encode_line,
)
from repro.service.server import start_in_thread
from repro.sql import parse_query

SQL = "SELECT * FROM R, S WHERE R.x = S.y AND R.a BETWEEN 10 AND 40"


@pytest.fixture()
def server(service_catalog):
    service = EstimationService(
        service_catalog,
        config=ServiceConfig(workers=1, queue_depth=64, batch_window_s=0.05),
    )
    handle = start_in_thread(service, port=0)  # ephemeral port
    try:
        yield handle
    finally:
        handle.close()


@pytest.fixture()
def client(server):
    host, port = server.address
    with connect(f"{host}:{port}") as tcp:
        yield tcp


class TestRoundTrips:
    def test_ping(self, client):
        assert client.ping() is True

    def test_estimate_matches_direct_estimator(
        self, two_table_db, service_catalog, client
    ):
        snapshot = service_catalog.snapshot()
        served = client.estimate(SQL)
        query = parse_query(SQL, two_table_db.schema)
        direct = SITEstimator(two_table_db, snapshot).estimate(query)
        assert served.snapshot_version == snapshot.version
        assert served.selectivity == direct.selectivity
        assert served.cardinality == direct.selectivity * (
            two_table_db.cross_product_size(query.tables)
        )

    def test_stats_op_exposes_service_namespace(self, client):
        client.estimate(SQL)
        stats = client.stats()
        assert stats["service"]["served"] >= 1.0
        assert "latency_ms" in stats["service"]
        assert set(stats) >= {"service", "counters", "caches", "catalog"}


class TestWireFailures:
    def test_unparsable_sql_is_invalid(self, client):
        with pytest.raises(InvalidRequest):
            client.estimate("SELECT * FROM nowhere WHERE")

    def test_empty_sql_is_invalid(self, client):
        with pytest.raises(InvalidRequest):
            client.estimate("   ")

    def test_unknown_op_is_invalid_without_killing_connection(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            reader = sock.makefile("rb")
            sock.sendall(encode_line({"id": "1", "op": "teleport"}))
            response = decode_line(reader.readline())
            assert response == {
                "id": "1",
                "ok": False,
                "status": "invalid",
                "detail": "unknown op 'teleport'",
            }
            # the connection survives protocol errors
            sock.sendall(encode_line({"id": "2", "op": "ping"}))
            assert decode_line(reader.readline())["pong"] is True

    def test_garbage_line_answers_invalid(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"this is not json\n")
            response = decode_line(reader.readline())
            assert response["ok"] is False
            assert response["status"] == "invalid"


class TestPipelining:
    def test_burst_on_one_connection_is_pipelined(self, server):
        """N requests written back-to-back all get answered; responses
        correlate on id (order may differ — that is the point)."""
        host, port = server.address
        n = 6
        with socket.create_connection((host, port), timeout=30.0) as sock:
            reader = sock.makefile("rb")
            burst = b"".join(
                encode_line({"id": str(index), "sql": SQL})
                for index in range(n)
            )
            sock.sendall(burst)
            responses = [decode_line(reader.readline()) for _ in range(n)]
        assert {response["id"] for response in responses} == {
            str(index) for index in range(n)
        }
        assert all(response["ok"] for response in responses)
        # identical pipelined requests coalesce into shared batches
        assert any(
            response["batch_size"] > 1 for response in responses
        )


class TestBackgroundHandle:
    def test_close_right_after_start_up_returns_promptly(
        self, service_catalog
    ):
        """A close that races the end of start-up used to have its stop
        swallowed and wait out the 30 s thread join (about one run in
        two with a connect/close in between)."""
        import time

        for _ in range(40):
            handle = start_in_thread(
                EstimationService(
                    service_catalog, config=ServiceConfig(workers=1)
                ),
                port=0,
            )
            connect(handle.address).close()
            started = time.monotonic()
            assert handle.close() is True
            assert time.monotonic() - started < 5.0
