"""Client-side resilience: SocketClient transparent reconnect (the
kill-the-server-mid-stream regression), bounded reconnect budgets, and
opt-in full-jitter retry of shed requests on both clients."""

from __future__ import annotations

import random
import socket

import pytest

from repro.resilience.retry import RetryPolicy
from repro.service import (
    EstimationService,
    InProcessClient,
    Overloaded,
    ServiceConfig,
    SocketClient,
    TransportError,
    connect,
)
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
        """The issue's scenario: kill the server between two requests;
        the client re-dials the restarted server and the estimate
        succeeds — no exception reaches the caller."""
        first_handle = start_in_thread(
            EstimationService(catalog, config=config), port=0
        )
        host, port = first_handle.address
        client = connect(
            (host, port),
            reconnect_attempts=5,
            reconnect_backoff=RetryPolicy(
                max_attempts=5, base_backoff_s=0.01, max_backoff_s=0.05
            ),
            rng=random.Random(0),
        )
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
        client = connect(
            (host, port), reconnect_attempts=2, sleep=lambda _: None
        )
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

    def test_reconnect_attempts_validation(self):
        with pytest.raises(ValueError):
            SocketClient("127.0.0.1", 1, reconnect_attempts=-1)

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


class TestClientRetry:
    def test_shed_requests_retry_with_jitter(self):
        sleeps: list[float] = []
        service = SheddingService(sheds=2)
        client = InProcessClient(
            service,
            retry=RetryPolicy(max_attempts=4, base_backoff_s=0.05),
            rng=random.Random(0),
            sleep=sleeps.append,
        )
        answer = client.estimate(SQL)
        assert answer.selectivity == 0.5
        assert service.calls == 3
        assert len(sleeps) == 2
        assert all(0.0 <= pause <= 0.1 for pause in sleeps)
        assert client.retry_telemetry.retries == 2

    def test_no_retries_is_the_default(self):
        service = SheddingService(sheds=1)
        client = InProcessClient(service)
        with pytest.raises(Overloaded):
            client.estimate(SQL)
        assert service.calls == 1

    def test_retry_budget_exhaustion_surfaces_overloaded(self):
        service = SheddingService(sheds=10)
        client = InProcessClient(
            service,
            retry=RetryPolicy(max_attempts=3),
            rng=random.Random(0),
            sleep=lambda _: None,
        )
        with pytest.raises(Overloaded):
            client.estimate(SQL)
        assert service.calls == 3
        assert client.retry_telemetry.gave_up == 1

    def test_deadline_failures_are_not_retried(self):
        from repro.service.protocol import DeadlineExceeded

        class DeadlineService(SheddingService):
            def estimate(self, query, timeout=None):
                self.calls += 1
                raise DeadlineExceeded("too slow")

        service = DeadlineService(sheds=0)
        client = InProcessClient(
            service, retry=RetryPolicy(max_attempts=5), sleep=lambda _: None
        )
        with pytest.raises(DeadlineExceeded):
            client.estimate(SQL)
        assert service.calls == 1
