"""Sharded, durable, replayable serving tier.

The gateway (:mod:`repro.gateway`) multiplexes threads inside one process;
this package scales *out*:

* :mod:`repro.cluster.ring` — a consistent-hash ring mapping model ids to
  shards, with stable reassignment when shards join or leave;
* :mod:`repro.cluster.store` — a SQLite-backed durable store behind the
  LRU model cache: model artifact blobs, fast-path table metadata, and an
  append-only request journal with exactly-once replay;
* :mod:`repro.cluster.shard` — a shard worker process hosting its own
  :class:`~repro.api.service.ImputationService`, speaking a
  length-prefixed socket protocol over the existing tensor wire codec;
* :mod:`repro.cluster.router` — a :class:`ClusterRouter` fronting the
  shards with the same ``submit()/gather()`` surface as the service and
  the :class:`~repro.api.service.ServingBackend` protocol the gateway
  serves through, plus SQL window-function analytics over the journal.

The two-shard hello world::

    from repro.cluster import ClusterRouter

    router = ClusterRouter(directory="cluster-store", shards=2)
    model_id = router.fit(training_tensor, method="deepmvi")
    router.submit(scenario, model_id=model_id)
    results = router.gather()
    print(router.analytics()["p99_over_time"])
    router.close()
"""

from repro.cluster.ring import HashRing
from repro.cluster.router import ClusterRouter, ShardClient
from repro.cluster.shard import ShardHandle, ShardServer, replay_pending, start_shard
from repro.cluster.store import DurableStore, SQLiteBackend, cluster_analytics

__all__ = [
    "ClusterRouter",
    "DurableStore",
    "HashRing",
    "SQLiteBackend",
    "ShardClient",
    "ShardHandle",
    "ShardServer",
    "cluster_analytics",
    "replay_pending",
    "start_shard",
]
