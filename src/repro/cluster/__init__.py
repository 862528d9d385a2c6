"""``repro.cluster`` — the sharded multi-process estimation tier.

DP enumeration is GIL-bound, so one Python process cannot scale the
service across cores no matter how many worker threads it runs.  This
package moves the parallelism to the OS-process level without paying a
per-process copy of the statistics:

* :mod:`repro.cluster.shm` — one catalog snapshot **exported** into a
  single ``multiprocessing.shared_memory`` segment; every shard
  process **attaches** it read-only and rebuilds a serving catalog
  zero-copy (estimates stay bit-identical to the exporter's);
* :mod:`repro.cluster.shard` — the child-process entrypoint: a full
  :class:`~repro.service.EstimationService` behind a TCP front-end
  that adds the cluster control ops (``invalidate``, ``crash``);
* :mod:`repro.cluster.ring` — static consistent hashing of
  query-template fingerprints onto shards;
* :mod:`repro.cluster.router` — :class:`EstimationCluster`, the one
  public entry: spawns the shards, routes by template so per-shard
  caches stay hot, and keeps every answer at the cluster's version
  through one per-shard hold — installed while a table update fans out
  and while a faulted shard is respawned in place and caught up.

The router duck-types :class:`~repro.service.EstimationService`, so the
redesigned client API needs no cluster-specific spelling::

    from repro.cluster import EstimationCluster
    from repro.service import connect

    with EstimationCluster(catalog) as cluster:
        with connect(cluster) as client:
            answer = client.estimate("SELECT * FROM sales, customer WHERE ...")
"""

from repro.cluster.ring import HashRing
from repro.cluster.router import EstimationCluster
from repro.cluster.shard import ShardServer, shard_main
from repro.cluster.shm import (
    AttachedSnapshot,
    SnapshotExport,
    StatsOnlyDatabase,
    attach_snapshot,
    export_snapshot,
)

__all__ = [
    "AttachedSnapshot",
    "EstimationCluster",
    "HashRing",
    "ShardServer",
    "SnapshotExport",
    "StatsOnlyDatabase",
    "attach_snapshot",
    "export_snapshot",
    "shard_main",
]
