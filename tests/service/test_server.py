"""The JSON-lines TCP front-end: round trips, typed failures over the
wire, pipelining, group handling of the wire, stats."""

from __future__ import annotations

import json
import socket
import sys
import threading
import time

import pytest

from repro.core.errors import NIndError
from repro.estimators import SITEstimator
from repro.service import EstimationService, ServiceConfig, connect
from repro.service.protocol import (
    STATUSES,
    InvalidRequest,
    decode_line,
    encode_line,
)
from repro.service.server import start_in_thread
from repro.sql import parse_query

SQL = "SELECT * FROM R, S WHERE R.x = S.y AND R.a BETWEEN 10 AND 40"
OTHER_SHAPE = "SELECT * FROM R, S WHERE R.x = S.y AND S.b BETWEEN 20 AND 70"


class _Unstable(NIndError):
    """NInd, declared not plan-stable: the service keeps no plan cache."""

    plan_stable = False


@pytest.fixture()
def server(service_catalog):
    service = EstimationService(
        service_catalog,
        config=ServiceConfig(workers=1, queue_depth=64),
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

    def test_malformed_timeout_is_invalid_and_named(self, server):
        """A ``timeout_ms`` that is no JSON number, or is NaN, is an
        ``invalid`` member of its group, not an internal error; the
        group's hits around it are answered, in request order."""
        host, port = server.address
        bad = [
            (b'"soon"', "'soon'"),
            (b"[1]", "[1]"),
            (b"true", "True"),
            (b"NaN", "nan"),
            (b"{}", "{}"),
            (b"1" * 400, "1" * 400),  # past float range
        ]
        sql = json.dumps(SQL).encode()
        lines = [b'{"id":"hit0","sql":%s}\n' % sql]
        for index, (value, _) in enumerate(bad):
            lines.append(b'{"id":"bad%d","sql":%s,"timeout_ms":%s}\n' % (index, sql, value))
        lines.append(b'{"id":"hit1","sql":%s,"timeout_ms":250}\n' % sql)
        lines.append(b'{"id":"hit2","sql":%s,"timeout_ms":1e400}\n' % sql)
        with socket.create_connection((host, port), timeout=30.0) as sock:
            reader = sock.makefile("rb")
            sock.sendall(encode_line({"id": "warm", "sql": SQL}))
            decode_line(reader.readline())
            sock.sendall(b"".join(lines))
            responses = [decode_line(reader.readline()) for _ in lines]
        assert [response["id"] for response in responses] == (
            ["hit0"] + [f"bad{index}" for index in range(len(bad))] + ["hit1", "hit2"]
        )
        assert all(response["status"] in STATUSES for response in responses)
        hits = [responses[0]] + responses[-2:]
        assert all(response["ok"] and response["plan_cache_hit"] for response in hits)
        for response, (_, named) in zip(responses[1:-2], bad):
            assert response["status"] == "invalid"
            assert named in response["detail"] and "timeout_ms" in response["detail"]

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


class TestGroups:
    """What one socket read delivers is decoded, admitted, awaited and
    answered as one unit."""

    @staticmethod
    def exchange(sock, reader, payloads) -> list[dict]:
        sock.sendall(b"".join(encode_line(payload) for payload in payloads))
        return [decode_line(reader.readline()) for _ in payloads]

    def test_one_sendall_is_one_batch_answered_in_request_order(self, server):
        """The group is of a shape the warm-up did not compile, so none
        of it is answered on arrival: all of it reaches the worker."""
        host, port = server.address
        n = 8
        with socket.create_connection((host, port), timeout=30.0) as sock:
            reader = sock.makefile("rb")
            self.exchange(sock, reader, [{"id": "warm", "sql": SQL}])
            before = server.service.stats_snapshot().service["batches"]
            responses = self.exchange(
                sock,
                reader,
                [{"id": str(index), "sql": OTHER_SHAPE} for index in range(n)],
            )
        stats = server.service.stats_snapshot().service
        assert [response["id"] for response in responses] == [
            str(index) for index in range(n)
        ]
        assert all(response["batch_size"] == n for response in responses)
        assert stats["batches"] - before == 1.0
        assert stats.get("answered_on_arrival", 0.0) == 0.0

    def test_group_of_compiled_shapes_is_answered_on_arrival(self, server):
        """Once its shape is compiled, a group is answered as the loop
        admits it: no batch, each member ``batch_size`` 1."""
        host, port = server.address
        n = 8
        with socket.create_connection((host, port), timeout=30.0) as sock:
            reader = sock.makefile("rb")
            self.exchange(sock, reader, [{"id": "warm", "sql": SQL}])
            before = server.service.stats_snapshot().service
            responses = self.exchange(
                sock,
                reader,
                [{"id": str(index), "sql": SQL} for index in range(n)],
            )
        after = server.service.stats_snapshot().service
        assert [response["id"] for response in responses] == [
            str(index) for index in range(n)
        ]
        assert all(
            response["plan_cache_hit"]
            and response["batch_size"] == 1
            and not response["deduplicated"]
            for response in responses
        )
        assert after["batches"] == before["batches"]
        assert after["answered_on_arrival"] == float(n)
        assert after["served"] - before["served"] == float(n)

    def test_line_split_across_segments_is_reassembled(self, server, client):
        host, port = server.address
        line = encode_line({"id": "split", "sql": SQL})
        with socket.create_connection((host, port), timeout=30.0) as sock:
            reader = sock.makefile("rb")
            sock.sendall(encode_line({"id": "whole", "op": "ping"}) + line[:25])
            assert decode_line(reader.readline())["id"] == "whole"
            # the loop has been round since: the first part was read alone
            assert client.ping() is True
            sock.sendall(line[25:])
            response = decode_line(reader.readline())
        assert response["id"] == "split"
        assert response["ok"] is True

    def test_unterminated_last_line_is_answered_at_eof(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=30.0) as sock:
            reader = sock.makefile("rb")
            sock.sendall(
                encode_line({"id": "1", "op": "ping"})
                + encode_line({"id": "2", "sql": SQL}).rstrip(b"\n")
            )
            sock.shutdown(socket.SHUT_WR)
            responses = [decode_line(line) for line in reader.readlines()]
        assert [response["id"] for response in responses] == ["1", "2"]
        assert responses[1]["ok"] is True

    def test_every_member_is_answered_under_its_own_id_and_status(
        self, service_catalog, session_gate
    ):
        """A malformed line, a ping, an unknown op and a shed estimate
        ride in one group with two estimates that are served."""
        service = EstimationService(
            service_catalog, config=ServiceConfig(workers=1, queue_depth=2)
        )
        with start_in_thread(service, port=0) as handle, (
            socket.create_connection(handle.address, timeout=30.0)
        ) as sock:
            reader = sock.makefile("rb")
            sock.sendall(encode_line({"id": "held", "sql": SQL}))
            session_gate.wait_entered()  # the worker is busy: depth 2 left
            sock.sendall(
                encode_line({"id": "a", "sql": SQL})
                + b"this is not json\n"
                + encode_line({"id": "p", "op": "ping"})
                + encode_line({"id": "b", "sql": SQL})
                + encode_line({"id": "c", "sql": SQL})
                + encode_line({"id": "t", "op": "teleport"})
            )
            deadline = time.monotonic() + 10.0
            while service.queue_depth < 2:  # the group has been admitted
                assert time.monotonic() < deadline
                time.sleep(0.001)
            session_gate.open()
            responses = [decode_line(reader.readline()) for _ in range(7)]
        assert [
            (response.get("id"), response["status"]) for response in responses
        ] == [
            ("held", "ok"),
            ("a", "ok"),
            (None, "invalid"),
            ("p", "ok"),
            ("b", "ok"),
            ("c", "overloaded"),
            ("t", "invalid"),
        ]
        assert responses[3]["pong"] is True
        assert responses[1]["batch_size"] == responses[4]["batch_size"] == 2


    def test_groups_race_on_three_workers_and_lose_no_answer(
        self, service_catalog
    ):
        """Members of one group resolve on different worker threads, which
        count the group down together: under a shortened switch interval
        and more threads than cores, every group is still woken (exactly
        once — a lost count would leave its connection waiting) and
        answered whole and in order.  With an error function that is not
        plan-stable there is no plan cache, so nothing is answered on
        arrival: every member crosses to a worker."""
        connections, rounds, size = 4, 15, 8
        service = EstimationService(
            service_catalog,
            # batches of 2 spread every group of 8 over all the workers
            config=ServiceConfig(workers=3, queue_depth=256, max_batch=2),
            error_function=_Unstable(),
        )
        answered: dict[int, list[list[dict]]] = {}

        def pipeline(index: int, address) -> None:
            with socket.create_connection(address, timeout=60.0) as sock:
                reader = sock.makefile("rb")
                answered[index] = [
                    self.exchange(
                        sock,
                        reader,
                        [
                            {"id": f"{index}.{turn}.{member}", "sql": SQL}
                            for member in range(size)
                        ],
                    )
                    for turn in range(rounds)
                ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with start_in_thread(service, port=0) as handle:
                threads = [
                    threading.Thread(target=pipeline, args=(i, handle.address))
                    for i in range(connections)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                    assert not thread.is_alive()
                stats = service.stats_snapshot().service
        finally:
            sys.setswitchinterval(interval)
        assert stats["served"] == float(connections * rounds * size)
        assert stats["batched_requests"] == stats["served"]
        assert stats.get("answered_on_arrival", 0.0) == 0.0
        for index in range(connections):
            for turn, responses in enumerate(answered[index]):
                assert [response["id"] for response in responses] == [
                    f"{index}.{turn}.{member}" for member in range(size)
                ]
                assert all(response["ok"] for response in responses)


class TestBackgroundHandle:
    def test_close_right_after_start_up_returns_promptly(
        self, service_catalog
    ):
        """A close that races the end of start-up used to have its stop
        swallowed and wait out the 30 s thread join (about one run in
        two with a connect/close in between)."""
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
