"""Cluster router: the service's ``submit()/gather()`` surface over shards.

:class:`ClusterRouter` starts N shard worker processes, places model ids
on a consistent-hash ring, and forwards traffic over the shard socket
protocol.  It offers the service's ``fit`` / ``impute`` / ``submit`` /
``gather`` / ``list_models`` and implements
:class:`~repro.api.service.ServingBackend`, so the serving
:class:`~repro.gateway.Gateway` can front a whole cluster
(``Gateway(service=router)``): each gateway batch becomes one ``serve``
RPC, and the shard's per-request results and failures come back as they
are.

Failure handling is where the durability work pays off: when a shard
connection dies mid-call, the router restarts the shard over its durable
directory and **resends the same request ids**.  The shard's journal
replay plus the exactly-once result ledger make the resend safe — every
request is answered exactly once no matter where the kill landed
(:mod:`repro.cluster.store`).

Analytics (:meth:`ClusterRouter.analytics`) attach every shard's SQLite
journal and run the window-function queries over the union, so
p99-over-time, per-model QPS and fusion trends come straight from the
durable log rather than in-process counters.
"""

from __future__ import annotations

import dataclasses
import itertools
import socket
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.api.refs import ModelRef
from repro.api.requests import FitRequest, ImputeRequest, ImputeResult
from repro.api.service import (
    Served,
    TensorLike,
    as_tensor,
    coerce_impute_request,
)
from repro.api.telemetry import MetricsSnapshot
from repro.api.versioning import VersionRegistry
from repro.cluster.ring import HashRing
from repro.cluster.shard import (
    ShardHandle,
    recv_message,
    send_message,
    start_shard,
)
from repro.cluster.store import DB_FILENAME, cluster_analytics
from repro.exceptions import ServiceError, ValidationError
from repro.obs import trace as obs_trace

__all__ = ["ClusterRouter", "ShardClient"]


class ShardClient:
    """One persistent length-prefixed connection to a shard."""

    def __init__(self, port: int, host: str = "127.0.0.1",
                 timeout: float = 120.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None

    def _connect(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout)
        return self._sock

    def call(self, payload: Dict) -> Dict:
        """One request/reply round trip; raises on transport failure."""
        sock = self._connect()
        send_message(sock, payload)
        reply = recv_message(sock)
        if reply is None:
            raise ConnectionError(
                f"shard at port {self.port} closed the connection")
        return reply

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None


class ClusterRouter:
    """Front door of the sharded serving tier.

    Parameters
    ----------
    directory:
        Root of the cluster's durable state; each shard owns
        ``directory/shard-<i>/`` (SQLite store + journal).  Restarting a
        router over an existing directory reattaches to the persisted
        models and journals.
    shards:
        Number of shard worker processes.
    replicas:
        Virtual nodes per shard on the consistent-hash ring.
    max_cached_models:
        Per-shard LRU bound; evicted models rehydrate from SQLite.
    auto_restart:
        Restart a dead shard (over its durable directory) and resend the
        in-flight requests when a call fails mid-flight.  The journal +
        result ledger make the resend exactly-once.
    """

    def __init__(self, directory: Union[str, Path], shards: int = 2,
                 replicas: int = 64,
                 max_cached_models: Optional[int] = None,
                 auto_restart: bool = True, start: bool = True,
                 deadline_ms: Optional[float] = None) -> None:
        if shards < 1:
            raise ValidationError(f"shards must be >= 1, got {shards}")
        self.directory = Path(directory)
        self.max_cached_models = max_cached_models
        self.auto_restart = auto_restart
        self.default_deadline_ms = deadline_ms
        self.shard_names = [f"shard-{index}" for index in range(shards)]
        self.ring = HashRing(self.shard_names, replicas=replicas)
        self.handles: Dict[str, ShardHandle] = {}
        self._clients: Dict[str, ShardClient] = {}
        self._model_counter = 0
        self._request_counter = itertools.count(1)
        #: model ids a shard confirmed it stores (ids are immutable once
        #: fitted, so the answer never goes stale)
        self._known: set = set()
        #: per-router id nonce: a restarted router must never mint an id a
        #: previous router already burned into a shard's ledger
        self._nonce = uuid.uuid4().hex[:8]
        self._pending: List[Dict] = []
        self._pending_ids: set = set()
        #: request id -> traceback for the most recent gather()
        self.last_errors: Dict[str, str] = {}
        #: ledger hits among the most recent gather()'s results
        self.last_deduped = 0
        #: [{shard, seconds}] for every auto/explicit restart
        self.recoveries: List[Dict[str, object]] = []
        #: version lineages for models served through this router; the
        #: journal lives at the cluster root so a restarted router
        #: replays serving pointers and in-flight candidates
        self.versions = VersionRegistry(
            journal_path=self.directory / "model_versions.jsonl")
        if start:
            for name in self.shard_names:
                self._start(name)

    # -- lifecycle ------------------------------------------------------- #
    def _shard_dir(self, name: str) -> Path:
        return self.directory / name

    def _start(self, name: str) -> ShardHandle:
        handle = start_shard(name, str(self._shard_dir(name)),
                             max_cached_models=self.max_cached_models)
        self.handles[name] = handle
        self._clients.pop(name, None)
        return handle

    def _client(self, name: str) -> ShardClient:
        client = self._clients.get(name)
        if client is None:
            handle = self.handles.get(name)
            if handle is None:
                raise ServiceError(f"shard {name!r} is not running")
            client = self._clients[name] = ShardClient(handle.port)
        return client

    def kill_shard(self, name: str) -> None:
        """SIGKILL a shard process (chaos injection; state survives)."""
        handle = self.handles.get(name)
        if handle is None:
            raise ServiceError(f"shard {name!r} is not running")
        handle.kill()
        client = self._clients.pop(name, None)
        if client is not None:
            client.close()

    def restart_shard(self, name: str) -> float:
        """Restart a shard over its durable directory; returns seconds.

        The elapsed time covers process start, SQLite open, journal
        ingest and replay of unanswered requests — the cluster bench's
        recovery-time metric.
        """
        started = time.perf_counter()
        old = self.handles.get(name)
        if old is not None and old.alive:
            old.kill()
        client = self._clients.pop(name, None)
        if client is not None:
            client.close()
        self._start(name)
        elapsed = time.perf_counter() - started
        self.recoveries.append({"shard": name, "seconds": elapsed})
        return elapsed

    def close(self) -> None:
        """Shut every shard down (politely, then firmly)."""
        for name, handle in list(self.handles.items()):
            try:
                self._call(name, {"op": "shutdown"}, retries=0)
            except (ServiceError, ConnectionError, OSError):
                pass
            client = self._clients.pop(name, None)
            if client is not None:
                client.close()
            handle.process.join(timeout=5.0)
            if handle.alive:
                handle.kill()
        self.handles.clear()

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- transport ------------------------------------------------------- #
    def _call(self, name: str, payload: Dict, retries: int = 1) -> Dict:
        """One RPC to a shard, with restart-and-resend on a dead socket.

        The resend is what makes auto-restart safe to combine with
        at-least-once delivery: the shard's result ledger dedupes, so the
        caller observes exactly-once.
        """
        try:
            reply = self._client(name).call(payload)
        except (ConnectionError, OSError):
            client = self._clients.pop(name, None)
            if client is not None:
                client.close()
            if retries <= 0 or not self.auto_restart:
                raise
            self.restart_shard(name)
            return self._call(name, payload, retries=retries - 1)
        if not reply.get("ok"):
            raise ServiceError(
                f"shard {name!r} rejected {payload.get('op')!r}:\n"
                f"{reply.get('error')}")
        return reply

    # -- fitting / model placement --------------------------------------- #
    def fit(self, data: Union[TensorLike, FitRequest],
            method: Optional[str] = None, model_id: Optional[str] = None,
            **method_kwargs) -> str:
        """Fit on the shard the ring assigns; returns the model id."""
        if isinstance(data, FitRequest):
            request = data
            if method is not None or model_id is not None or method_kwargs:
                raise ValidationError(
                    "pass either a FitRequest or (data, method=..., "
                    "model_id=..., **kwargs), not both")
        else:
            request = FitRequest(data=as_tensor(data),
                                 method=method or "deepmvi",
                                 method_kwargs=dict(method_kwargs),
                                 model_id=model_id)
        request.validate()
        if request.model_id is None:
            # Ids are assigned router-side so the ring owner is known
            # before any shard is contacted.
            self._model_counter += 1
            request = FitRequest(data=request.data, method=request.method,
                                 method_kwargs=request.method_kwargs,
                                 model_id=f"{request.method}-"
                                          f"c{self._model_counter:04d}")
        owner = self.ring.assign(request.model_id)
        reply = self._call(owner, {"op": "fit",
                                   "request": request.to_dict()})
        self._known.add(reply["model_id"])
        return reply["model_id"]

    def put_model(self, model_id: str, imputer,
                  method: Optional[str] = None) -> str:
        """Ship an already-fitted imputer to its owning shard."""
        import base64

        from repro.engine.artifacts import dump_imputer_bytes

        owner = self.ring.assign(model_id)
        blob = base64.b64encode(dump_imputer_bytes(imputer)).decode("ascii")
        self._call(owner, {"op": "put_model", "model_id": model_id,
                           "method": method, "blob": blob})
        self._known.add(model_id)
        return model_id

    # -- serving --------------------------------------------------------- #
    def resolve_ref(self, ref) -> str:
        """Concrete model id a :class:`ModelRef` (or string) serves as."""
        return self.versions.resolve(ModelRef.parse(ref))

    def _resolve_request(self, request: ImputeRequest) -> ImputeRequest:
        """Pin a request to its concrete model id before it hits the wire.

        Refs are router-side state: shards only ever see concrete,
        pattern-legal model ids (``@`` never crosses the socket), and the
        ring placement keys on the resolved id.
        """
        concrete = self.versions.resolve(request.model_ref)
        if request.model_id != concrete:
            request = dataclasses.replace(request, model_id=concrete)
        return request

    def submit(self, request=None, model_id=None,
               deadline_ms: Optional[float] = None) -> str:
        """Queue one request for the next :meth:`gather`; returns its id."""
        request = self._resolve_request(
            coerce_impute_request(request, model_id))
        if not self.has_model(request.model_id):
            raise ServiceError(
                f"unknown model id {request.model_id!r}; fit() a model "
                "through this router first")
        if request.request_id is None:
            request_id = self._next_request_id()
        else:
            request_id = str(request.request_id)
        if request_id in self._pending_ids:
            raise ValidationError(
                f"request id {request_id!r} is already queued")
        now = time.perf_counter()
        deadline_ms = (self.default_deadline_ms
                       if deadline_ms is None else deadline_ms)
        # Tracing front door for direct router use (the gateway path stamps
        # upstream): mint a sampled root and ship a child on the wire so
        # shard spans parent under it.
        ctx = request.trace
        if ctx is None and obs_trace.enabled():
            ctx = obs_trace.start_trace()
            if ctx is not None:
                request = dataclasses.replace(request, trace=ctx)
                obs_trace.write_span("cluster.submit", ctx, now,
                                     time.perf_counter(),
                                     {"request_id": request_id})
        wire = request.to_dict()
        wire["request_id"] = request_id
        self._pending.append({
            "request": wire,
            "enqueued_at": now,
            "deadline_at": (None if deadline_ms is None
                            else now + deadline_ms / 1000.0),
        })
        self._pending_ids.add(request_id)
        return request_id

    def gather(self, raise_on_error: bool = True) -> List[ImputeResult]:
        """Serve every queued request; results come back in submit order.

        Each shard receives one ``serve`` RPC carrying all of its queued
        requests (the shard micro-batches them per model).  A shard dying
        mid-call is restarted and the same entries are resent — the
        exactly-once ledger turns the resend into idempotent delivery.
        """
        if not self._pending:
            return []
        pending, self._pending = self._pending, []
        self._pending_ids = set()
        by_owner: Dict[str, List[Dict]] = {}
        for entry in pending:
            owner = self.ring.assign(entry["request"]["model_id"])
            by_owner.setdefault(owner, []).append(entry)
        results: Dict[str, ImputeResult] = {}
        self.last_errors = {}
        self.last_deduped = 0
        for owner, entries in by_owner.items():
            call_start = time.perf_counter()
            try:
                reply = self._call(owner, {"op": "serve",
                                           "entries": entries})
            except (ServiceError, ConnectionError, OSError) as error:
                for entry in entries:
                    self.last_errors[entry["request"]["request_id"]] = \
                        str(error)
                continue
            if obs_trace.enabled():
                call_end = time.perf_counter()
                for entry in entries:
                    ctx = obs_trace.TraceContext.from_wire(
                        entry["request"].get("trace"))
                    if ctx is not None:
                        obs_trace.write_span(
                            "cluster.rpc", ctx.child(), call_start,
                            call_end, {"shard": owner,
                                       "batch_size": len(entries)})
            self.last_deduped += int(reply.get("deduped", 0))
            for request_id, wire in reply["results"].items():
                results[request_id] = ImputeResult.from_dict(wire)
            for failure in reply["failures"]:
                self.last_errors[failure["request_id"]] = failure["error"]
        ordered = [results[entry["request"]["request_id"]]
                   for entry in pending
                   if entry["request"]["request_id"] in results]
        if self.last_errors and raise_on_error:
            error = ServiceError(
                f"{len(self.last_errors)} of {len(pending)} request(s) "
                f"failed ({', '.join(sorted(self.last_errors))}); "
                f"first error:\n{next(iter(self.last_errors.values()))}")
            error.partial_results = ordered
            raise error
        return ordered

    def impute(self, request=None, model_id=None,
               deadline_ms: Optional[float] = None) -> ImputeResult:
        """Serve one request immediately (no queueing).

        A caller-supplied request id is kept, so resending it after a
        failure is answered from the shard's ledger.
        """
        request = self._resolve_request(
            coerce_impute_request(request, model_id))
        request_id = str(request.request_id) \
            if request.request_id is not None else self._next_request_id()
        reply = self._serve_rpc(request.model_id, [request], [request_id],
                                deadline_ms=deadline_ms)
        if reply["failures"]:
            raise ServiceError(
                f"request {request_id!r} failed on shard "
                f"{self.ring.assign(request.model_id)!r}:\n"
                f"{reply['failures'][0]['error']}")
        return ImputeResult.from_dict(reply["results"][request_id])

    # -- ServingBackend ---------------------------------------------------- #
    def has_model(self, model_id) -> bool:
        """Whether the owning shard stores ``model_id`` (memoised)."""
        if model_id in self._known:
            return True
        try:
            reply = self._call(self.ring.assign(model_id),
                               {"op": "has_model", "model_id": model_id})
        except (ServiceError, ConnectionError, OSError, LookupError):
            return False
        if reply.get("exists"):
            self._known.add(model_id)
            return True
        return False

    def serve(self, model_id,
              requests: Sequence[ImputeRequest]) -> List[Served]:
        """Answer ``requests`` in one ``serve`` RPC to the owning shard.

        Each request gets a fresh router id once — gateway ids are
        per-gateway counters, not the globally unique keys the exactly-once
        ledger needs.  The shard's per-request results and failures come
        back as they are: a bad request fails alone, and nothing is resent
        under a new id.  A multi-request batch reports ``fused``: it shared
        one RPC.
        """
        request_ids = [self._next_request_id() for _ in requests]
        start = time.perf_counter()
        reply = self._serve_rpc(model_id, requests, request_ids)
        end = time.perf_counter()
        share = (end - start) / max(1, len(requests))
        fused = len(requests) > 1
        errors = {failure["request_id"]: failure["error"]
                  for failure in reply["failures"]}
        outcomes = []
        for request_id in request_ids:
            wire = reply["results"].get(request_id)
            if wire is None:
                outcomes.append(Served(error=errors.get(
                    request_id, f"shard sent no answer for {request_id!r}")))
                continue
            result = ImputeResult.from_dict(wire)
            outcomes.append(Served(
                completed=result.completed, method=result.method,
                fast_path=result.fast_path, fused=fused, seconds=share,
                finished=end))
        return outcomes

    def try_fast_path(self, model_id,
                      tensors: Sequence) -> Optional[List[Served]]:
        """Always ``None``: the lookup tables live in the shard processes,
        so every batch takes the :meth:`serve` RPC."""
        return None

    def serving_stats(self) -> Dict[str, object]:
        """Per-shard rollups, with the shards' LRU counters summed and
        their fast-path telemetry merged."""
        shards = self.shard_stats()
        cache = {"size": 0, "bytes": 0, "hits": 0, "misses": 0,
                 "evictions": 0}
        fast_path: Dict[str, Dict[str, object]] = {}
        for stats in shards.values():
            for key in cache:
                cache[key] += int((stats.get("model_cache") or {})
                                  .get(key) or 0)
            fast_path.update(stats.get("fast_path") or {})
        lookups = cache["hits"] + cache["misses"]
        return {"model_cache": {**cache, "hit_rate": (cache["hits"] / lookups)
                                if lookups else 0.0},
                "fast_path": fast_path,
                "shards": shards}

    def _next_request_id(self) -> str:
        return f"req-{self._nonce}-{next(self._request_counter):06d}"

    def _serve_rpc(self, model_id: str, requests: Sequence[ImputeRequest],
                   request_ids: List[str],
                   deadline_ms: Optional[float] = None) -> Dict:
        """Send ``requests`` under ``request_ids`` in one shard RPC.

        A traced request gets an RPC child context, written as its
        ``cluster.rpc`` span here and shipped in the wire payload so the
        shard's spans parent under it.  Returns the shard's reply.
        """
        now = time.perf_counter()
        deadline_ms = (self.default_deadline_ms
                       if deadline_ms is None else deadline_ms)
        deadline_at = None if deadline_ms is None \
            else now + deadline_ms / 1000.0
        entries = []
        rpc_ctxs = []
        for request, request_id in zip(requests, request_ids):
            rpc_ctx = request.trace.child() if request.trace is not None \
                and obs_trace.enabled() else None
            encode_start = time.perf_counter()
            wire = ImputeRequest(model_id=model_id, data=request.data,
                                 request_id=request_id,
                                 trace=rpc_ctx).to_dict()
            if rpc_ctx is not None:
                obs_trace.write_span("wire.encode", rpc_ctx.child(),
                                     encode_start, time.perf_counter())
                rpc_ctxs.append(rpc_ctx)
            entries.append({"request": wire, "enqueued_at": now,
                            "deadline_at": deadline_at})
        owner = self.ring.assign(model_id)
        reply = self._call(owner, {"op": "serve", "entries": entries})
        call_end = time.perf_counter()
        for rpc_ctx in rpc_ctxs:
            # Spans from encode through reply: the shard-side spans (which
            # the wire context parents) land inside this window.
            obs_trace.write_span("cluster.rpc", rpc_ctx, now, call_end,
                                 {"shard": owner,
                                  "batch_size": len(entries)})
        self.last_deduped = int(reply.get("deduped", 0))
        return reply

    # -- introspection ---------------------------------------------------- #
    def pending_count(self) -> int:
        return len(self._pending)

    def list_models(self) -> List[str]:
        models: set = set()
        for name in self.shard_names:
            try:
                reply = self._call(name, {"op": "list_models"}, retries=0)
            except (ServiceError, ConnectionError, OSError):
                continue
            models.update(reply.get("models", ()))
        return sorted(models)

    def shard_stats(self) -> Dict[str, Dict[str, object]]:
        """Per-shard rollups (dead shards report ``alive: False``)."""
        stats: Dict[str, Dict[str, object]] = {}
        for name in self.shard_names:
            try:
                reply = self._call(name, {"op": "stats"}, retries=0)
            except (ServiceError, ConnectionError, OSError) as error:
                stats[name] = {"alive": False, "error": str(error)}
                continue
            reply.pop("ok", None)
            stats[name] = reply
        return stats

    def stats(self) -> Dict[str, object]:
        return {
            "ring": self.ring.describe(),
            "shards": self.shard_stats(),
            "recoveries": list(self.recoveries),
            "pending_requests": len(self._pending),
            "models": self.list_models(),
        }

    def describe(self) -> Dict[str, object]:
        return {
            **self.stats(),
            "directory": str(self.directory),
            "shards": list(self.shard_names),
            "shard_stats": self.shard_stats(),
            "default_deadline_ms": self.default_deadline_ms,
            "auto_restart": self.auto_restart,
        }

    def analytics(self, bucket_seconds: float = 1.0) -> MetricsSnapshot:
        """SQL window-function analytics over every shard's journal.

        Reads the shards' SQLite files directly (they may be mid-restart
        or even dead — the durable log still answers), unioning the
        journals with ``ATTACH`` so one query set covers the cluster:
        p99-over-time, per-model QPS, fusion-rate trend.

        Returns the shared :class:`~repro.api.telemetry.MetricsSnapshot`
        surface: the journal-wide rollup (completions, QPS over the
        journal's wall-clock span, p50/p95/p99, fusion and fast-path
        rates) fills the typed fields, while the historical analytics
        keys (``p99_over_time``, ``per_model_qps``, ``fusion_trend``,
        ``bucket_seconds``, ``shards``, ``overall``) remain addressable
        through the snapshot's Mapping interface.
        """
        paths = [(name, str(self._shard_dir(name) / DB_FILENAME))
                 for name in self.shard_names
                 if (self._shard_dir(name) / DB_FILENAME).exists()]
        report = cluster_analytics(paths, bucket_seconds=bucket_seconds)
        overall = report["overall"]
        return MetricsSnapshot(
            source="cluster",
            uptime_seconds=overall["duration_seconds"],
            submitted=overall["completions"],
            completed=overall["completions"],
            qps=overall["qps"],
            latency_p50_seconds=overall["latency_p50_seconds"],
            latency_p95_seconds=overall["latency_p95_seconds"],
            latency_p99_seconds=overall["latency_p99_seconds"],
            fusion_rate=overall["fusion_rate"],
            fast_path_hit_rate=overall["fast_path_hit_rate"],
            extras={key: report[key]
                    for key in ("bucket_seconds", "overall", "p99_over_time",
                                "per_model_qps", "fusion_trend", "shards")
                    if key in report},
        )
