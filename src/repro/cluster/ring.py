"""Consistent-hash ring over shard ids.

The router hashes each request's plan-cache shape fingerprint digest
(:func:`repro.core.plancache.fingerprint_digest`) onto the ring, so all
queries of one template land on one shard and that shard's match /
estimate / compiled-plan caches stay hot.  Virtual nodes (``points`` per
shard) smooth the keyspace split; blake2b keeps placement stable across
processes and runs (``hash()`` is salted per process and useless here).

Membership is static: a faulted shard is held and respawned in place by
the router (:mod:`repro.cluster.router`), never taken off the ring, so
its templates always come back to the caches they warmed.
"""

from __future__ import annotations

import bisect
import hashlib


def _point(label: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest(), "big"
    )


class HashRing:
    """Consistent hashing of string keys onto integer shard ids."""

    def __init__(self, shards, points: int = 64):
        if points < 1:
            raise ValueError("points must be >= 1")
        pairs = sorted(
            (_point(f"shard-{shard}#{index}"), shard)
            for shard in sorted({int(shard) for shard in shards})
            for index in range(points)
        )
        if not pairs:
            raise ValueError("ring requires at least one shard")
        #: sorted virtual-node positions and their parallel owners
        self._ring = [position for position, _ in pairs]
        self._owners = [owner for _, owner in pairs]

    def lookup(self, key: str) -> int:
        """The shard owning ``key`` (first point clockwise)."""
        index = bisect.bisect_right(self._ring, _point(key))
        if index == len(self._ring):
            index = 0
        return self._owners[index]


__all__ = ["HashRing"]
