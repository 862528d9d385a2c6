"""The shard process: a full estimation service over attached memory.

Each shard is a separate OS process (``spawn`` start method) hosting an
ordinary :class:`~repro.service.EstimationService` — worker threads,
micro-batching, admission control, plan cache, the lot — whose catalog
is rebuilt zero-copy over the router's shared-memory snapshot export
(:mod:`repro.cluster.shm`).  It listens on an ephemeral TCP port with a
:class:`ShardServer`, an :class:`~repro.service.EstimationServer` that
adds the cluster control ops:

``{"op": "invalidate", "table": ..., "version": ...}``
    the router fanning out ``notify_table_update``: the shard runs its
    own catalog's invalidation path, pins the catalog version to the
    router's (so ``snapshot_version`` stays coherent cluster-wide) and
    acks with the new version.  The router holds the shard's requests
    until this ack — the coherent-routing half of a hot swap.
``{"op": "crash"}``
    test/chaos hook: hard-exits the process mid-serve, exercising the
    router's fault path: hold → respawn in place → catch-up → release.

The bootstrap handshake: the parent passes a one-shot pipe; the child
sends ``("ready", port)`` once listening (or ``("error", message)``), so
the router never polls.
"""

from __future__ import annotations

import os

from repro.cluster.shm import attach_snapshot
from repro.service.config import ServiceConfig
from repro.service.server import EstimationServer
from repro.service.service import EstimationService


class ShardServer(EstimationServer):
    """The TCP front-end of one shard: estimate + cluster control ops."""

    def __init__(self, service: EstimationService, shard_id: int, **kwargs):
        super().__init__(service, **kwargs)
        self.shard = int(shard_id)

    async def _dispatch_extra(
        self, op: str, payload: dict, request_id: object
    ) -> dict | None:
        if op == "invalidate":
            catalog = self.service._catalog
            if catalog is None:  # pragma: no cover - shards always have one
                return None
            catalog.notify_table_update(str(payload["table"]))
            version = payload.get("version")
            if version is not None:
                # pin to the router's catalog version so every shard
                # reports the same snapshot_version after the swap
                catalog.version = int(version)
            return {
                "id": request_id,
                "ok": True,
                "status": "ok",
                "shard": self.shard,
                "version": catalog.version,
            }
        if op == "crash":
            # chaos hook: die without draining, like a real shard loss
            os._exit(17)
        return None


def shard_main(
    descriptor: dict,
    shard_id: int,
    config_data: dict,
    conn,
) -> None:
    """Child-process entrypoint (must stay module-level for ``spawn``).

    Attaches the shared snapshot, builds the service, binds an ephemeral
    port, reports it through ``conn``, and serves until killed.
    """
    try:
        attached = attach_snapshot(descriptor)
        config = ServiceConfig.from_dict(config_data)
        service = EstimationService(
            attached.catalog,
            database=attached.database,
            config=config,
            name=f"repro.cluster.shard{shard_id}",
        )
    except Exception as exc:  # pragma: no cover - bootstrap failure path
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return

    def ready(address) -> None:
        conn.send(("ready", address[1]))
        conn.close()

    server = ShardServer(service, shard_id, host=config.host, port=0)
    try:
        _serve(server, ready)
    finally:
        service.close(drain=False)
        attached.close()


def _serve(server: ShardServer, ready) -> None:
    """Blocking serve loop (mirrors :func:`repro.service.server.run_server`
    but for an already-constructed server object)."""
    import asyncio

    async def _main() -> None:
        async with server:
            ready(server.address)
            await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass


__all__ = ["ShardServer", "shard_main"]
