"""The asyncio JSON-lines front-end over :class:`EstimationService`.

One TCP connection, one JSON object per line (see
:mod:`repro.service.protocol`).  The event loop never estimates — it
decodes, admits into the thread-pooled service and parks until the
answers exist, so slow DP work on one connection does not stall
another's admission (and a shed request is answered in microseconds).

The wire is handled a *group* at a time: whatever complete lines one
socket read delivers — a client's pipelined burst — are decoded
together, admitted with one ``submit_many``, awaited with one wake-up
(the last member to resolve wakes the loop) and answered with one
write, response lines in request order.  A burst therefore costs one
task, one cross-thread wake-up and one ``write`` + ``drain`` — not one
of each per request — and reaches the worker as one unit.

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
import threading
from concurrent.futures import Future
from typing import Callable, Sequence

from repro.service.protocol import (
    InvalidRequest,
    ServiceError,
    decode_predicates,
    encode_line,
    decode_line,
    failure_to_wire,
)
from repro.service.service import EstimationService


#: bytes asked of the socket per read, and the longest request line
#: accepted: a peer that sends more than this without a newline is cut
#: off (``StreamReader.readline``'s own default bound)
_MAX_LINE_BYTES = 2**16


def _failure(exc: Exception, request_id: object) -> dict:
    """A typed failure as it is; anything else is a bug, which must not
    kill the loop: it is answered as an internal error."""
    if not isinstance(exc, ServiceError):
        exc = ServiceError(f"internal error: {exc}")
    return failure_to_wire(exc, request_id)


async def _all_done(futures: "Sequence[Future]") -> None:
    """Park until every future is resolved.  The worker threads count
    the group down and only the last resolution crosses into the loop
    (one ``call_soon_threadsafe``), however many members there are."""
    if not futures:
        return
    loop = asyncio.get_running_loop()
    waiter = loop.create_future()
    lock = threading.Lock()
    remaining = len(futures)

    def wake() -> None:
        if not waiter.done():  # the group's task may have been cancelled
            waiter.set_result(None)

    def one_done(_future: Future) -> None:
        nonlocal remaining
        with lock:
            remaining -= 1
            last = remaining == 0
        if last:
            # RuntimeError: the loop closed under a late answer
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(wake)

    for future in futures:
        future.add_done_callback(one_done)
    await waiter


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
        #: cluster deployments set this so every ok response carries the
        #: answering shard's id (:mod:`repro.cluster`); None = no field
        self.shard: int | None = None
        self._server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The actually-bound ``(host, port)`` (resolves port 0)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> "EstimationServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "EstimationServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Pipelined, a group at a time: the complete lines of one
        socket read become one task (a partial last line is carried to
        the next read), and the loop goes straight back to reading, so
        groups on one connection overlap and are answered as each
        completes (clients correlate on ``id``)."""
        write_lock = asyncio.Lock()
        inflight: set[asyncio.Task] = set()

        async def respond(lines: list[bytes]) -> None:
            blob = await self._serve_group(lines)
            async with write_lock:
                writer.write(blob)
                await writer.drain()

        def spawn(lines: list[bytes]) -> None:
            task = asyncio.create_task(respond(lines))
            inflight.add(task)
            task.add_done_callback(inflight.discard)

        tail = b""
        try:
            while len(tail) <= _MAX_LINE_BYTES:
                data = await reader.read(_MAX_LINE_BYTES)
                if not data:
                    if tail:
                        # a last line the peer did not terminate
                        spawn([tail])
                    break
                *lines, tail = (tail + data).split(b"\n")
                if lines:
                    spawn(lines)
            if inflight:
                await asyncio.gather(*list(inflight), return_exceptions=True)
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            for task in list(inflight):  # pragma: no cover - abrupt close
                task.cancel()
            with contextlib.suppress(Exception):
                writer.close()
            # deliberately no ``await writer.wait_closed()``: the
            # transport finishes closing on the loop, while awaiting it
            # would park this handler task past server shutdown (and a
            # cancelled handler trips asyncio.streams' done-callback)

    async def _serve_group(self, lines: Sequence[bytes]) -> bytes:
        """One group of request lines to its response lines, in request
        order.  Estimates are admitted together and awaited once;
        everything else — ``ping``, ``stats``, subclass ops, a line that
        does not decode — is answered in place."""
        responses: "list[dict | None]" = []
        estimates: list[tuple[int, dict]] = []  # (response slot, payload)
        requests: list[tuple[object, float | None]] = []
        for line in lines:
            request_id: object = None
            try:
                payload = decode_line(line)
                request_id = payload.get("id")
                op = payload.get("op", "estimate")
                if op == "estimate":
                    query = self._decode_query(payload)
                    timeout_ms = payload.get("timeout_ms")
                    timeout = (
                        None if timeout_ms is None else float(timeout_ms) / 1000.0
                    )
                    requests.append((query, timeout))
                    estimates.append((len(responses), payload))
                    response = None  # filled in once it is served
                else:
                    response = await self._answer_in_place(
                        op, payload, request_id
                    )
            except Exception as exc:
                response = _failure(exc, request_id)
            responses.append(response)
        if requests:
            try:
                outcomes = self.service.submit_many(requests)
            except Exception as exc:  # a bug must not lose the group
                outcomes = [exc] * len(requests)
            await _all_done(
                [outcome for outcome in outcomes if isinstance(outcome, Future)]
            )
            for (slot, payload), outcome in zip(estimates, outcomes):
                responses[slot] = self._estimate_response(payload, outcome)
        return b"".join(map(encode_line, responses))

    async def _answer_in_place(
        self, op: str, payload: dict, request_id: object
    ) -> dict:
        if op == "ping":
            return {"id": request_id, "ok": True, "status": "ok", "pong": True}
        if op == "stats":
            return {
                "id": request_id,
                "ok": True,
                "status": "ok",
                "stats": self.service.stats_snapshot().to_dict(),
            }
        extra = await self._dispatch_extra(op, payload, request_id)
        if extra is None:
            raise InvalidRequest(f"unknown op {op!r}")
        return extra

    def _estimate_response(
        self, payload: dict, outcome: "Future | Exception"
    ) -> dict:
        """The response line of one admitted (or refused) estimate."""
        request_id = payload.get("id")
        try:
            if not isinstance(outcome, Future):
                raise outcome
            response = outcome.result(timeout=0).to_wire(request_id)
        except Exception as exc:
            return _failure(exc, request_id)
        if self.shard is not None:
            response["shard"] = self.shard
        return response

    @staticmethod
    def _decode_query(payload: dict):
        """The request's query in whichever spelling it carried: a
        ``sql`` string, or the parse-free ``predicates`` list the
        cluster router sends (:mod:`repro.service.protocol`)."""
        if "predicates" in payload:
            return decode_predicates(payload["predicates"])
        sql = payload.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise InvalidRequest(
                "estimate requires a non-empty 'sql' or a 'predicates' list"
            )
        return sql

    async def _dispatch_extra(
        self, op: str, payload: dict, request_id: object
    ) -> dict | None:
        """Subclass hook for ops beyond ping/stats/estimate (the cluster
        shard server adds invalidate/swap control ops).  Return ``None``
        to reject the op as unknown."""
        return None


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
            # connection handlers may still be parked on a half-closed
            # socket; cancel them so the loop closes without complaint
            pending = [
                task
                for task in asyncio.all_tasks(self._loop)
                if not task.done()
            ]
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
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
