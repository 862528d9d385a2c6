"""The asyncio JSON-lines front-end over :class:`EstimationService`.

One TCP connection, one JSON object per line (see
:mod:`repro.service.protocol`).  The event loop never solves — it
decodes and admits into the thread-pooled service; a request whose
shape is in the serving snapshot's plan cache is replayed during
admission, on the loop thread (SQL straight from its literals, with no
predicate built), and every other one is parked on until a worker
answers it, so slow DP work on one connection does not stall another's
admission (and a shed request is answered in microseconds).

Each connection is an :class:`asyncio.Protocol` served a *group* at a
time: the complete lines one socket read delivers — a client's
pipelined burst — are decoded, admitted with one ``admit``
(``submit_many``'s admission) and encoded inside that read's
``data_received`` callback, response lines in request order.  A group
answered on arrival is written there and then: one loop callback, no
task, no wake-up, no ``drain``.  A group with queued members is counted
down by the worker threads, and its last resolution writes it through
one ``call_soon_threadsafe``.  Groups on one connection overlap, so
clients correlate on ``id``.  Past the transport's high-water mark a
connection stops reading until its replies drain.

Three ways to run it:

* ``async with EstimationServer(service) as server: await
  server.serve_forever()`` inside an existing loop;
* :func:`run_server` — blocking, drives its own loop (the CLI's
  ``python -m repro serve``);
* :func:`start_in_thread` — spins the loop up on a daemon thread and
  returns a handle with the bound address (tests, CI smoke, notebooks).
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import threading
from concurrent.futures import Future
from typing import Callable, Sequence

from repro.service.protocol import (
    InvalidRequest,
    ServedEstimate,
    ServiceError,
    decode_predicates,
    encode_line,
    encode_served,
    decode_request,
    failure_to_wire,
)
from repro.service.service import EstimationService


#: the longest request line accepted: a peer that sends more than this
#: without a newline is cut off once its earlier groups are answered
_MAX_LINE_BYTES = 2**16


def _failure(exc: Exception, request_id: object) -> dict:
    """A typed failure as it is; anything else is a bug, which must not
    kill the loop: it is answered as an internal error."""
    if not isinstance(exc, ServiceError):
        exc = ServiceError(f"internal error: {exc}")
    return failure_to_wire(exc, request_id)


def _timeout_s(payload: dict) -> float | None:
    """The request's ``timeout_ms`` in seconds (``None`` when absent).
    Anything but a JSON number — a boolean, a string, a list — and NaN,
    which would never expire, are :class:`InvalidRequest`."""
    timeout_ms = payload.get("timeout_ms")
    if timeout_ms is None:
        return None
    if type(timeout_ms) is int or type(timeout_ms) is float:
        try:
            seconds = timeout_ms / 1000.0
        except OverflowError:  # an integer past float range
            seconds = math.nan
        if seconds == seconds:
            return seconds
    raise InvalidRequest(
        f"timeout_ms must be a number of milliseconds, not {timeout_ms!r}"
    )


class EstimationServer:
    """Serve one :class:`EstimationService` over newline-delimited JSON."""

    def __init__(
        self,
        service: EstimationService,
        host: str | None = None,
        port: int | None = None,
    ):
        self.service = service
        self.host = host if host is not None else service.config.host
        self.port = port if port is not None else service.config.port
        self._server: asyncio.AbstractServer | None = None
        #: the connections open now, closed with the server
        self.connections: set[_Connection] = set()

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The actually-bound ``(host, port)`` (resolves port 0)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> "EstimationServer":
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
        )
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop listening and close every open connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
            for connection in list(self.connections):
                connection.transport.close()
            await asyncio.sleep(0)  # their ``connection_lost`` callbacks

    async def __aenter__(self) -> "EstimationServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    def _answer_in_place(self, op: str, request_id: object) -> dict:
        if op == "ping":
            return {"id": request_id, "ok": True, "status": "ok", "pong": True}
        if op == "stats":
            return {
                "id": request_id,
                "ok": True,
                "status": "ok",
                "stats": self.service.stats_snapshot().to_dict(),
            }
        raise InvalidRequest(f"unknown op {op!r}")

    @staticmethod
    def _estimate_line(
        request_id: object,
        outcome: "ServedEstimate | Future | Exception",
    ) -> bytes:
        """The response line of one admitted (or refused) estimate."""
        try:
            if type(outcome) is not ServedEstimate:
                if not isinstance(outcome, Future):
                    raise outcome
                outcome = outcome.result(timeout=0)
            return encode_served(outcome, request_id)
        except Exception as exc:
            return encode_line(_failure(exc, request_id))

    @staticmethod
    def _decode_query(payload: dict):
        """The request's query in whichever spelling it carried: a
        ``sql`` string, or the parse-free ``predicates`` list
        (:mod:`repro.service.protocol`)."""
        if "predicates" in payload:
            return decode_predicates(payload["predicates"])
        sql = payload.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise InvalidRequest(
                "estimate requires a non-empty 'sql' or a 'predicates' list"
            )
        return sql


class _Connection(asyncio.Protocol):
    """One client connection, served a group of lines per socket read."""

    def __init__(self, server: EstimationServer):
        self.server = server
        self.transport: asyncio.Transport | None = None
        self.tail = b""  # a partial last line, carried to the next read
        self.open_groups = 0  # admitted and not yet written
        #: EOF came, or a line passed the bound: close once nothing is open
        self.finished = False

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.server.connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self.server.connections.discard(self)

    def data_received(self, data: bytes) -> None:
        if self.finished:
            return
        *lines, self.tail = (self.tail + data).split(b"\n")
        if lines:
            self._serve_group(lines)
        if len(self.tail) > _MAX_LINE_BYTES:
            self.tail = b""
            self._finish()

    def eof_received(self) -> bool:
        if not self.finished:
            tail, self.tail = self.tail, b""
            if tail:  # a last line the peer did not terminate
                self._serve_group([tail])
            self._finish()
        return True  # the write half stays open for the groups still open

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        if not self.finished:
            self.transport.resume_reading()

    # ------------------------------------------------------------------
    def _finish(self) -> None:
        """Read no more; close once the open groups are written."""
        self.finished = True
        self.transport.pause_reading()
        if not self.open_groups:
            self.transport.close()

    def _write(self, blob: bytes) -> None:
        if not self.transport.is_closing():  # a peer that reset, or shutdown
            self.transport.write(blob)

    def _serve_group(self, lines: Sequence[bytes]) -> None:
        """One group of request lines to its response lines, in request
        order.  Estimates are admitted together; everything else —
        ``ping``, ``stats``, a line that does not decode — is answered in
        place.  A group with nothing queued is written at once."""
        server = self.server
        responses: "list[bytes | None]" = []
        estimates: list[tuple[int, object]] = []  # (response slot, id)
        requests: list[tuple[object, float | None]] = []
        for line in lines:
            request_id: object = None
            try:
                payload = decode_request(line)
                request_id = payload.get("id")
                op = payload.get("op", "estimate")
                if op == "estimate":
                    requests.append(
                        (server._decode_query(payload), _timeout_s(payload))
                    )
                    estimates.append((len(responses), request_id))
                    response = None  # filled in once it is served
                else:
                    response = encode_line(
                        server._answer_in_place(op, request_id)
                    )
            except Exception as exc:
                response = encode_line(_failure(exc, request_id))
            responses.append(response)
        try:
            outcomes = server.service.admit(requests) if requests else []
        except Exception as exc:  # a bug must not lose the group
            outcomes = [exc] * len(requests)
        # a hit comes back as its answer, not a future
        pending = [o for o in outcomes if isinstance(o, Future) and not o.done()]
        if pending:
            self._park(pending, (responses, estimates, outcomes))
        else:
            self._write(_fill(responses, estimates, outcomes))

    def _park(self, pending: "list[Future]", group: tuple) -> None:
        """Count the group down on the worker threads: only the last
        resolution crosses into the loop (one ``call_soon_threadsafe``),
        however many members are queued."""
        self.open_groups += 1
        loop = asyncio.get_running_loop()
        lock = threading.Lock()
        remaining = len(pending)

        def one_done(_future: Future) -> None:
            nonlocal remaining
            with lock:
                remaining -= 1
                last = remaining == 0
            if last:
                # RuntimeError: the loop closed under a late answer
                with contextlib.suppress(RuntimeError):
                    loop.call_soon_threadsafe(self._answered, group)

        for future in pending:
            future.add_done_callback(one_done)

    def _answered(self, group: tuple) -> None:
        """On the loop: a parked group is resolved; write it."""
        self.open_groups -= 1
        self._write(_fill(*group))
        if self.finished:
            self._finish()


def _fill(responses: list, estimates: list, outcomes: list) -> bytes:
    """The group's response lines, its estimates' lines filled in."""
    for (slot, request_id), outcome in zip(estimates, outcomes):
        responses[slot] = EstimationServer._estimate_line(request_id, outcome)
    return b"".join(responses)


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------
def run_server(
    service: EstimationService,
    host: str | None = None,
    port: int | None = None,
    ready: "Callable[[tuple[str, int]], None] | None" = None,
) -> None:
    """Blocking runner: start the server and serve until cancelled.

    ``ready`` (if given) is called with the bound address once
    listening.  On KeyboardInterrupt the service drains gracefully.
    """

    async def _main() -> None:
        server = EstimationServer(service, host, port)
        async with server:
            if ready is not None:
                ready(server.address)
            await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        service.close()


class ServerHandle:
    """A server running on a background thread (tests / CI smoke)."""

    def __init__(self, service: EstimationService, host: str, port: int):
        self.service = service
        self._loop = asyncio.new_event_loop()
        self._server = EstimationServer(service, host, port)
        self._started = threading.Event()
        self._stop = asyncio.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30.0):  # pragma: no cover
            raise RuntimeError("server failed to start within 30s")

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def _serve() -> None:
            await self._server.start()
            self._started.set()
            # an event, not loop.stop(): a stop requested while start-up
            # is still unwinding would be swallowed by that run and the
            # next run_forever() would never return
            await self._stop.wait()

        try:
            self._loop.run_until_complete(_serve())
        finally:
            self._loop.run_until_complete(self._server.aclose())
            self._loop.close()

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        return self._server.address

    def close(self, drain: bool = True) -> bool:
        """Stop the listener, then drain and close the service."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
            self._thread.join(timeout=30.0)
        return self.service.close(drain=drain)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def start_in_thread(
    service: EstimationService,
    host: str | None = None,
    port: int | None = None,
) -> ServerHandle:
    """Run the JSON-lines server on a daemon thread; returns its handle."""
    return ServerHandle(
        service,
        host if host is not None else service.config.host,
        port if port is not None else service.config.port,
    )


__all__ = [
    "EstimationServer",
    "ServerHandle",
    "run_server",
    "start_in_thread",
]
