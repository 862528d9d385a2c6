"""The asyncio JSON-lines front-end over :class:`EstimationService`.

One TCP connection, one JSON object per line (see
:mod:`repro.service.protocol`).  The event loop never estimates — it
decodes, admits into the thread-pooled service and awaits the wrapped
future, so slow DP work on one connection does not stall another's
admission (and a shed request is answered in microseconds).

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
from typing import Callable

from repro.service.protocol import (
    InvalidRequest,
    ServiceError,
    decode_predicates,
    encode_line,
    decode_line,
    failure_to_wire,
)
from repro.service.service import EstimationService


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
        """Pipelined: every request line becomes a task, responses are
        written as they complete (clients correlate on ``id``).  This is
        what lets one connection's burst coalesce into one micro-batch."""
        write_lock = asyncio.Lock()
        inflight: set[asyncio.Task] = set()

        async def respond(line: bytes) -> None:
            response = await self._dispatch(line)
            async with write_lock:
                writer.write(encode_line(response))
                await writer.drain()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                task = asyncio.create_task(respond(line))
                inflight.add(task)
                task.add_done_callback(inflight.discard)
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

    async def _dispatch(self, line: bytes) -> dict:
        request_id: object = None
        try:
            payload = decode_line(line)
            request_id = payload.get("id")
            op = payload.get("op", "estimate")
            if op == "ping":
                return {"id": request_id, "ok": True, "status": "ok", "pong": True}
            if op == "stats":
                return {
                    "id": request_id,
                    "ok": True,
                    "status": "ok",
                    "stats": self.service.stats_snapshot().to_dict(),
                }
            if op != "estimate":
                extra = await self._dispatch_extra(op, payload, request_id)
                if extra is not None:
                    return extra
                raise InvalidRequest(f"unknown op {op!r}")
            query = self._decode_query(payload)
            timeout_ms = payload.get("timeout_ms")
            timeout = None if timeout_ms is None else float(timeout_ms) / 1000.0
            future = self.service.submit(query, timeout=timeout)
            result = await asyncio.wrap_future(future)
            response = result.to_wire(request_id)
            if self.shard is not None:
                response["shard"] = self.shard
            if payload.get("hedge"):
                # a hedged duplicate: echo the flag so the winning
                # answer is attributable (repro.cluster observability)
                response["hedged"] = True
            return response
        except ServiceError as exc:
            return failure_to_wire(exc, request_id)
        except Exception as exc:  # defensive: a bug must not kill the loop
            return failure_to_wire(
                ServiceError(f"internal error: {exc}"), request_id
            )

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
