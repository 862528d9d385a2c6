"""Client-side resilience: SocketClient transparent reconnect (the
kill-the-server-mid-stream regression) under its bounded reconnect
budget, and typed failures that are raised once, never re-submitted."""

from __future__ import annotations

import importlib
import socket
import types

import pytest

from repro.service import (
    EstimationService,
    InProcessClient,
    Overloaded,
    ServiceConfig,
    TransportError,
    connect,
)
from repro.service import client as client_module
from repro.service.protocol import ServedEstimate
from repro.service.server import start_in_thread

SQL = "SELECT * FROM R, S WHERE R.x = S.y AND R.a BETWEEN 10 AND 40"


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture()
def config() -> ServiceConfig:
    return ServiceConfig(workers=1)


class TestTransparentReconnect:
    def test_server_killed_mid_stream_client_reconnects(
        self, catalog, config
    ):
        """The regression scenario: kill the server between two requests;
        the client re-dials the restarted server and the estimate
        succeeds — no exception reaches the caller."""
        first_handle = start_in_thread(
            EstimationService(catalog, config=config), port=0
        )
        host, port = first_handle.address
        client = connect((host, port))
        try:
            before = client.estimate(SQL)
            assert isinstance(before, ServedEstimate)
            assert client.reconnects == 0

            # kill the server under the client's open connection ...
            first_handle.close()
            # ... and restart it on the same port (asyncio sets
            # SO_REUSEADDR, so the rebind does not hit TIME_WAIT)
            second_handle = start_in_thread(
                EstimationService(catalog, config=config), port=port
            )
            try:
                after = client.estimate(SQL)
            finally:
                second_handle.close()
            assert after.selectivity == pytest.approx(before.selectivity)
            assert client.reconnects >= 1
        finally:
            client.close()

    def test_dead_server_raises_typed_transport_error(self, catalog, config):
        handle = start_in_thread(
            EstimationService(catalog, config=config), port=0
        )
        host, port = handle.address
        client = connect((host, port))
        try:
            client.estimate(SQL)
            handle.close()
            with pytest.raises(TransportError, match="reconnect attempt"):
                client.estimate(SQL)
        finally:
            client.close()

    def test_connect_failure_is_typed(self):
        with pytest.raises(TransportError, match="cannot connect"):
            connect(f"127.0.0.1:{free_port()}", timeout_s=1.0)

    def test_closed_client_refuses_requests(self, catalog, config):
        handle = start_in_thread(
            EstimationService(catalog, config=config), port=0
        )
        try:
            host, port = handle.address
            client = connect((host, port))
            client.close()
            with pytest.raises(TransportError, match="closed"):
                client.ping()
        finally:
            handle.close()

    def test_transport_error_never_on_the_wire(self):
        """The wire failure vocabulary is pinned; ``transport`` is a
        client-side status only."""
        from repro.service.protocol import STATUSES

        assert TransportError.status == "transport"
        assert "transport" not in STATUSES


class SheddingService:
    """Stub service: sheds ``sheds`` estimates, then serves a canned
    answer."""

    def __init__(self, sheds: int):
        self.sheds = sheds
        self.calls = 0

    def estimate(self, query, timeout=None) -> ServedEstimate:
        self.calls += 1
        if self.calls <= self.sheds:
            raise Overloaded("queue full")
        return ServedEstimate(
            selectivity=0.5,
            cardinality=10.0,
            error=0.0,
            snapshot_version=1,
            latency_ms=0.1,
        )

    def close(self, drain: bool = True) -> bool:
        return True


class TestTypedFailuresRaiseOnce:
    def test_no_retries_is_the_default(self):
        service = SheddingService(sheds=1)
        client = InProcessClient(service)
        with pytest.raises(Overloaded):
            client.estimate(SQL)
        assert service.calls == 1

    def test_deadline_failures_are_not_retried(self):
        from repro.service.protocol import DeadlineExceeded

        class DeadlineService(SheddingService):
            def estimate(self, query, timeout=None):
                self.calls += 1
                raise DeadlineExceeded("too slow")

        service = DeadlineService(sheds=0)
        client = InProcessClient(service)
        with pytest.raises(DeadlineExceeded):
            client.estimate(SQL)
        assert service.calls == 1


class SheddingMemberService(SheddingService):
    """Stub service whose group admission sheds its second member."""

    config = ServiceConfig(workers=1)

    def __init__(self):
        super().__init__(sheds=0)
        self.admitted: list[int] = []

    def admit(self, members):
        from concurrent.futures import Future

        self.admitted.append(len(members))
        outcomes = []
        for index, (query, timeout) in enumerate(members):
            if index == 1:
                outcomes.append(Overloaded("queue full"))
                continue
            future = Future()
            future.set_result(self.estimate(query, timeout))
            outcomes.append(future)
        return outcomes


class TestBatchFailuresRaiseOnce:
    def test_a_shed_batch_member_raises_and_is_not_resubmitted(self):
        service = SheddingMemberService()
        client = InProcessClient(service)
        with pytest.raises(Overloaded):
            client.estimate_batch([SQL, SQL, SQL])
        assert service.admitted == [3]


def count_dials(monkeypatch) -> list[tuple]:
    """Record every ``socket.create_connection`` the client makes."""
    real = socket.create_connection
    dials: list[tuple] = []

    def counting(address, *args, **kwargs):
        dials.append(address)
        return real(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counting)
    return dials


class TestReconnectBudget:
    def test_reconnect_constants_bound_the_backoff(self):
        assert isinstance(client_module.RECONNECT_ATTEMPTS, int)
        assert client_module.RECONNECT_ATTEMPTS >= 1
        assert (
            0.0
            < client_module.RECONNECT_BASE_BACKOFF_S
            <= client_module.RECONNECT_MAX_BACKOFF_S
        )

    def test_a_torn_connection_dials_exactly_the_budget(
        self, catalog, config, monkeypatch
    ):
        handle = start_in_thread(
            EstimationService(catalog, config=config), port=0
        )
        client = connect(handle.address)
        try:
            client.estimate(SQL)
            handle.close()
            dials = count_dials(monkeypatch)
            with pytest.raises(TransportError) as raised:
                client.estimate(SQL)
            assert len(dials) == client_module.RECONNECT_ATTEMPTS
            assert (
                f"after {client_module.RECONNECT_ATTEMPTS} reconnect"
                in str(raised.value)
            )
        finally:
            client.close()

    def test_a_request_after_a_failed_one_dials_exactly_the_budget(
        self, catalog, config, monkeypatch
    ):
        """The second request starts with no socket at all; it dials the
        same budget as the first, not one more."""
        handle = start_in_thread(
            EstimationService(catalog, config=config), port=0
        )
        client = connect(handle.address)
        try:
            client.estimate(SQL)
            handle.close()
            with pytest.raises(TransportError):
                client.estimate(SQL)
            dials = count_dials(monkeypatch)
            with pytest.raises(TransportError, match="reconnect attempt"):
                client.estimate(SQL)
            assert len(dials) == client_module.RECONNECT_ATTEMPTS
            assert client.reconnects == 0
        finally:
            client.close()

    def test_backoff_is_full_jitter_under_the_cap(
        self, catalog, config, monkeypatch
    ):
        """Re-dial ``n`` sleeps a uniform draw from ``[0, cap_n]`` with
        ``cap_n = min(max, base * 2**n)``, before it dials."""
        handle = start_in_thread(
            EstimationService(catalog, config=config), port=0
        )
        client = connect(handle.address)
        draws: list[tuple[float, float]] = []
        sleeps: list[float] = []

        def uniform(low, high):
            draws.append((low, high))
            return high / 2.0

        monkeypatch.setattr(
            client_module, "random", types.SimpleNamespace(uniform=uniform)
        )
        monkeypatch.setattr(
            client_module, "time", types.SimpleNamespace(sleep=sleeps.append)
        )
        try:
            client.estimate(SQL)
            handle.close()
            with pytest.raises(TransportError):
                client.estimate(SQL)
        finally:
            client.close()
        base = client_module.RECONNECT_BASE_BACKOFF_S
        cap = client_module.RECONNECT_MAX_BACKOFF_S
        expected = [
            (0.0, min(cap, base * 2.0**n))
            for n in range(client_module.RECONNECT_ATTEMPTS)
        ]
        assert draws == expected
        assert sleeps == [high / 2.0 for _, high in expected]

    def test_a_restarted_server_costs_one_reconnect(
        self, catalog, config
    ):
        first_handle = start_in_thread(
            EstimationService(catalog, config=config), port=0
        )
        host, port = first_handle.address
        client = connect((host, port))
        try:
            client.estimate(SQL)
            first_handle.close()
            second_handle = start_in_thread(
                EstimationService(catalog, config=config), port=port
            )
            try:
                answers = client.estimate_batch([SQL, SQL, SQL])
                assert client.ping()
            finally:
                second_handle.close()
            assert len(answers) == 3
            assert client.reconnects == 1
        finally:
            client.close()


class TestRemovedRetryKnobs:
    @pytest.mark.parametrize(
        "keyword",
        ["retry", "rng", "sleep", "reconnect_attempts", "reconnect_backoff"],
    )
    def test_socket_client_takes_no_retry_keyword(self, keyword):
        """The reconnect budget is a module constant; the constructor
        refuses the removed knobs before it dials anything."""
        with pytest.raises(TypeError, match=keyword):
            client_module.SocketClient("127.0.0.1", free_port(), **{keyword: 1})

    @pytest.mark.parametrize("keyword", ["retry", "rng", "sleep"])
    def test_in_process_client_takes_no_retry_keyword(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            InProcessClient(SheddingService(sheds=0), **{keyword: 1})

    def test_the_retry_module_is_gone(self):
        import repro.resilience

        assert not hasattr(repro.resilience, "__path__")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.resilience.retry")
