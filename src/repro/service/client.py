"""Clients of the estimation service — one construction path.

:func:`connect` is the single entrypoint: hand it *whatever you have* —
an :class:`~repro.service.service.EstimationService`, a
catalog/snapshot/pool to serve from, a
``"host:port"`` string, an ``(host, port)`` tuple, or a running
:class:`~repro.service.server.ServerHandle` — and it returns an
:class:`EstimationClient`::

    from repro.service import connect

    with connect(catalog) as client:                  # in-process
        answer = client.estimate("SELECT * FROM sales, customer WHERE ...")

    with connect("127.0.0.1:8642") as client:         # over TCP
        answers = client.estimate_batch(queries)

Every client speaks the same small surface — ``estimate``,
``estimate_batch``, ``stats``, ``close`` (plus the ``selectivity`` /
``cardinality`` conveniences) — raises the same typed failures
(:class:`~repro.service.protocol.Overloaded`,
:class:`~repro.service.protocol.DeadlineExceeded`, ...) and returns the
same :class:`~repro.service.protocol.ServedEstimate`, so callers are
transport-agnostic by construction.

``estimate_batch`` submits every query *before* waiting on any answer:
in-process the burst is admitted as one group (``admit``: one lock, one
worker wake-up, and a hit comes back as its answer, not a future); over
TCP the requests are pipelined on one connection, which the server reads
and admits as one group too, and correlated by id.  Answers come back in
input order either way.

A typed failure (a shed :class:`~repro.service.protocol.Overloaded`, a
:class:`~repro.service.protocol.DeadlineExceeded`, ...) is raised once:
no client re-submits a request.  The one client-side recovery is
:class:`SocketClient`'s transparent reconnect: a dead socket (server
restart, connection reset, half-close mid-stream) is torn down and
re-dialled up to :data:`RECONNECT_ATTEMPTS` times per request, with
full-jitter backoff, before the typed :class:`TransportError` surfaces.
The wire failure vocabulary is unchanged — ``TransportError`` is a
*client-side* condition and never appears as a wire status.

The pre-redesign names (``Client``, ``TCPClient``) went through their
one release of :class:`DeprecationWarning` grace and are now removed;
:func:`connect` is the only construction path.
"""

from __future__ import annotations

import itertools
import random
import socket
import threading
import time

from repro.engine.database import Database
from repro.service.config import ServiceConfig
from repro.service.protocol import (
    ServedEstimate,
    ServiceError,
    decode_line,
    encode_request,
    result_from_wire,
)
from repro.service.service import EstimationService, settle

#: re-dials a :class:`SocketClient` makes per request before it raises
#: :class:`TransportError`
RECONNECT_ATTEMPTS = 3
#: full-jitter backoff before re-dial ``n`` (0-based): a uniform draw
#: from ``[0, min(RECONNECT_MAX_BACKOFF_S, RECONNECT_BASE_BACKOFF_S * 2**n)]``
RECONNECT_BASE_BACKOFF_S = 0.02
RECONNECT_MAX_BACKOFF_S = 0.5


class TransportError(ServiceError):
    """The connection to the server was lost and could not be restored.

    Client-side only: this status never travels on the wire (the wire
    vocabulary in :mod:`repro.service.protocol` is pinned), it is what a
    :class:`SocketClient` raises once its bounded reconnect budget is
    spent.  Subclasses :class:`ServiceError` so transport-agnostic
    callers keep a single except clause.
    """

    status = "transport"


# ----------------------------------------------------------------------
# The client surface
# ----------------------------------------------------------------------
class EstimationClient:
    """The one client protocol every transport implements.

    Subclasses provide :meth:`estimate`, :meth:`estimate_batch`,
    :meth:`stats` and :meth:`close`; this base supplies the
    ``selectivity`` / ``cardinality`` conveniences and context
    management.
    """

    # -- required surface ----------------------------------------------
    def estimate(self, query, timeout: float | None = None) -> ServedEstimate:
        raise NotImplementedError

    def estimate_batch(
        self, queries, timeout: float | None = None
    ) -> list[ServedEstimate]:
        """All queries submitted before any answer is awaited; answers
        in input order.  The first typed failure raises."""
        raise NotImplementedError

    def stats(self) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    # -- conveniences ---------------------------------------------------
    def selectivity(self, query, timeout: float | None = None) -> float:
        return self.estimate(query, timeout=timeout).selectivity

    def cardinality(self, query, timeout: float | None = None) -> float:
        return self.estimate(query, timeout=timeout).cardinality

    def __enter__(self) -> "EstimationClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class InProcessClient(EstimationClient):
    """Client over a live service object — no sockets, no JSON.

    ``service`` is anything with the
    :class:`~repro.service.service.EstimationService` call surface
    (``submit`` / ``admit`` / ``estimate`` / ``stats_snapshot`` /
    ``close``).
    ``owns_service=True`` makes
    :meth:`close` shut the service down too.
    """

    def __init__(self, service: EstimationService, owns_service: bool = False):
        self.service = service
        self._owns_service = owns_service

    # ------------------------------------------------------------------
    @classmethod
    def serving(
        cls,
        statistics,
        *,
        database: Database | None = None,
        config: ServiceConfig | None = None,
        **service_kwargs,
    ) -> "InProcessClient":
        """Spin up a private service around ``statistics`` and own it."""
        service = EstimationService(
            statistics, database=database, config=config, **service_kwargs
        )
        return cls(service, owns_service=True)

    # ------------------------------------------------------------------
    def submit(self, query, timeout: float | None = None):
        """Non-blocking: returns the request's future (the caller owns
        the future's failure handling)."""
        return self.service.submit(query, timeout=timeout)

    def estimate(self, query, timeout: float | None = None) -> ServedEstimate:
        return self.service.estimate(query, timeout=timeout)

    def estimate_batch(
        self, queries, timeout: float | None = None
    ) -> list[ServedEstimate]:
        wait = None
        if timeout is not None:
            wait = timeout + self.service.config.drain_timeout_s
        # one group admission, so the burst reaches the worker as one
        # unit; a hit comes back as its answer, and a shed member raises
        # its typed error in member order
        outcomes = self.service.admit([(query, timeout) for query in queries])
        return [settle(outcome, wait) for outcome in outcomes]

    def stats(self) -> dict:
        return self.service.stats_snapshot().to_dict()

    def close(self) -> None:
        if self._owns_service:
            self.service.close()


class SocketClient(EstimationClient):
    """A blocking JSON-lines client for the TCP front-end.

    Thread-safe for sequential request/response use (an internal lock
    serialises the socket); open one client per concurrent caller for
    parallel load.  :meth:`estimate_batch` pipelines: all request lines
    are written before any response line is read, so one client burst
    coalesces into the server's micro-batches.

    Transparent reconnect: when a round trip dies mid-stream (reset,
    half-close, server restart) the client tears the socket down and
    re-dials — with full-jitter backoff — up to
    :data:`RECONNECT_ATTEMPTS` times before raising
    :class:`TransportError`.  Requests are re-sent on the fresh
    connection; estimation is idempotent so a re-send after a torn
    response is safe.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 30.0):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._closed = False
        self._sock: socket.socket | None = None
        self._file = None
        #: completed transparent reconnects (tests assert on this)
        self.reconnects = 0
        with self._lock:
            self._connect_locked()

    # ------------------------------------------------------------------
    # Connection management (all under self._lock)
    # ------------------------------------------------------------------
    def _connect_locked(self) -> None:
        try:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout_s
            )
            self._file = self._sock.makefile("rb")
        except OSError as exc:
            self._sock = None
            self._file = None
            raise TransportError(
                f"cannot connect to {self.host}:{self.port}: {exc}"
            ) from exc

    def _teardown_locked(self) -> None:
        file, sock = self._file, self._sock
        self._file = None
        self._sock = None
        try:
            if file is not None:
                file.close()
        except OSError:  # pragma: no cover - best effort
            pass
        try:
            if sock is not None:
                sock.close()
        except OSError:  # pragma: no cover - best effort
            pass

    def _reconnect_locked(self, attempt: int) -> None:
        """One bounded reconnect step (backoff happens *before* dialling
        so a flapping server is not hammered)."""
        self._teardown_locked()
        cap = min(
            RECONNECT_MAX_BACKOFF_S, RECONNECT_BASE_BACKOFF_S * 2.0**attempt
        )
        time.sleep(random.uniform(0.0, cap))
        self._connect_locked()
        self.reconnects += 1

    # ------------------------------------------------------------------
    def _exchange_locked(self, payloads: list[dict]) -> list[dict]:
        """Write every request line, then read until every id answered.

        Runs under ``self._lock``.  On a torn stream the *unanswered*
        payloads are re-sent on a fresh connection (bounded by the
        reconnect budget); answered ids are kept, so a mid-batch tear
        costs only the tail.  The budget counts dials, so a request
        that starts on a socket an earlier request left torn dials
        :data:`RECONNECT_ATTEMPTS` times, no more.
        """
        answers: dict[str, dict] = {}
        outstanding = {payload["id"]: payload for payload in payloads}
        last: Exception | None = None
        dials = 0
        while True:
            if self._sock is None:
                if dials == RECONNECT_ATTEMPTS:
                    break
                dials += 1
                try:
                    self._reconnect_locked(dials - 1)
                except TransportError as exc:
                    last = exc
                    continue
            try:
                blob = b"".join(map(encode_request, outstanding.values()))
                self._sock.sendall(blob)
                while outstanding:
                    line = self._file.readline()
                    if not line:
                        raise ConnectionResetError(
                            "server closed the connection mid-stream"
                        )
                    response = decode_line(line)
                    response_id = response.get("id")
                    if response_id not in outstanding:  # pragma: no cover
                        raise ServiceError(
                            f"unsolicited response id {response_id!r}"
                        )
                    outstanding.pop(response_id)
                    answers[response_id] = response
                return [answers[payload["id"]] for payload in payloads]
            except OSError as exc:
                # torn stream: drop the socket; the next attempt (if the
                # budget allows) re-dials and re-sends the unanswered tail
                last = exc
                self._teardown_locked()
        raise TransportError(
            f"connection to {self.host}:{self.port} lost and not "
            f"restored after {RECONNECT_ATTEMPTS} "
            f"reconnect attempt(s): {last}"
        ) from last

    def _roundtrip_many(self, payloads: list[dict]) -> list[dict]:
        stamped = [
            dict(payload, id=str(next(self._ids))) for payload in payloads
        ]
        with self._lock:
            if self._closed:
                raise TransportError("client is closed")
            return self._exchange_locked(stamped)

    def _roundtrip(self, payload: dict) -> dict:
        return self._roundtrip_many([payload])[0]

    # ------------------------------------------------------------------
    def ping(self) -> bool:
        return bool(self._roundtrip({"op": "ping"}).get("pong"))

    def stats(self) -> dict:
        response = self._roundtrip({"op": "stats"})
        return response.get("stats", {})

    @staticmethod
    def _request_payload(query, timeout: float | None) -> dict:
        payload: dict = {"op": "estimate"}
        if isinstance(query, str):
            payload["sql"] = query
        else:
            # a Query or predicate set: ship the parse-free spelling
            from repro.service.protocol import encode_predicates

            predicates = getattr(query, "predicates", query)
            payload["predicates"] = encode_predicates(predicates)
        if timeout is not None:
            payload["timeout_ms"] = timeout * 1000.0
        return payload

    def estimate(self, query, timeout: float | None = None) -> ServedEstimate:
        """Estimate one query (SQL string, ``Query``, or predicate set);
        raises the typed failure on non-ok."""
        return result_from_wire(
            self._roundtrip(self._request_payload(query, timeout))
        )

    def estimate_batch(
        self, queries, timeout: float | None = None
    ) -> list[ServedEstimate]:
        payloads = [self._request_payload(q, timeout) for q in queries]
        if not payloads:
            return []
        return [
            result_from_wire(response)
            for response in self._roundtrip_many(payloads)
        ]

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._teardown_locked()


# ----------------------------------------------------------------------
# The one construction path
# ----------------------------------------------------------------------
def connect(target, **kwargs) -> EstimationClient:
    """Build the right :class:`EstimationClient` for ``target``.

    ========================================  ==============================
    ``target``                                client
    ========================================  ==============================
    ``EstimationService``                     :class:`InProcessClient`
    catalog / snapshot / pool                 :class:`InProcessClient` owning
                                              a private service (pass
                                              ``database=`` / ``config=``)
    ``"host:port"`` or ``(host, port)``       :class:`SocketClient`
    ``ServerHandle`` (running server)         :class:`SocketClient` dialled
                                              at its bound address
    an ``EstimationClient``                   returned unchanged
    ========================================  ==============================

    Keyword arguments pass through to the chosen client's constructor
    (``timeout_s=``, ``config=``, ...).
    """
    if isinstance(target, EstimationClient):
        if kwargs:
            raise TypeError(
                "cannot re-configure an existing client; got "
                + ", ".join(sorted(kwargs))
            )
        return target
    if isinstance(target, str):
        host, _, port = target.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(
                f"target {target!r} is not 'host:port'"
            )
        return SocketClient(host, int(port), **kwargs)
    if isinstance(target, tuple) and len(target) == 2:
        host, port = target
        return SocketClient(str(host), int(port), **kwargs)
    if hasattr(target, "submit") and hasattr(target, "stats_snapshot"):
        # a live service object (an EstimationService, or anything
        # with its call surface)
        return InProcessClient(target, **kwargs)
    if hasattr(target, "address") and hasattr(target, "service"):
        # a ServerHandle: dial its bound socket
        host, port = target.address
        return SocketClient(host, port, **kwargs)
    if hasattr(target, "snapshot") or hasattr(target, "pool") or hasattr(
        target, "sits"
    ):
        # statistics (catalog / snapshot / pool): own a private service
        return InProcessClient.serving(target, **kwargs)
    raise TypeError(
        f"cannot connect to {type(target).__name__!r}: expected a service, "
        "statistics, 'host:port', (host, port), or a ServerHandle"
    )


__all__ = [
    "EstimationClient",
    "InProcessClient",
    "SocketClient",
    "TransportError",
    "connect",
]
