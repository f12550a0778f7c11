"""Shard worker: one process, one service, one durable store, one socket.

A shard hosts its own :class:`~repro.api.service.ImputationService` whose
:class:`~repro.api.service.ModelStore` persists through the shard's
:class:`~repro.cluster.store.DurableStore` (SQLite blobs behind the LRU
cache), and serves a small length-prefixed protocol over a loopback
socket.  Messages are 4-byte big-endian length + UTF-8 JSON; tensors ride
the existing wire codec (:func:`repro.api.requests.tensor_to_dict`), so
the cluster tier adds framing, not a new serialisation format.

Durability contract per ``serve`` request:

1. already-committed results are answered from the ledger (dedupe);
2. live requests are journaled *before* serving;
3. results are committed idempotently, then answered.

A shard killed between (2) and (3) owes answers: :func:`replay_pending`
(run at startup) re-serves every journaled-but-unanswered request, so the
router's resend after a restart either hits the ledger (already served) or
completes the replayed result — exactly once either way.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import multiprocessing
import socket
import struct
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.api.requests import FitRequest, ImputeRequest
from repro.api.service import (
    ImputationService,
    ModelStore,
    ServingBatch,
    execute_serving_batch,
)
from repro.cluster.store import DurableStore, SQLiteBackend
from repro.engine.artifacts import load_imputer_bytes
from repro.obs import trace as obs_trace

__all__ = ["ShardHandle", "ShardServer", "recv_message", "replay_pending",
           "send_message", "start_shard"]

_LENGTH = struct.Struct(">I")

#: upper bound on one frame; a corrupt length prefix must not trigger a
#: multi-gigabyte allocation
MAX_MESSAGE_BYTES = 1 << 30


# ---------------------------------------------------------------------- #
# framing
# ---------------------------------------------------------------------- #
def send_message(sock: socket.socket, payload: Dict) -> None:
    """Write one length-prefixed JSON frame."""
    body = json.dumps(payload).encode("utf-8")
    sock.sendall(_LENGTH.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    chunks = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            return None
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Optional[Dict]:
    """Read one frame; ``None`` on a clean EOF before the prefix."""
    prefix = _recv_exact(sock, _LENGTH.size)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_MESSAGE_BYTES:
        raise ValueError(f"frame of {length} bytes exceeds the "
                         f"{MAX_MESSAGE_BYTES}-byte cap")
    body = _recv_exact(sock, length)
    if body is None:
        raise ConnectionError("peer closed mid-frame")
    return json.loads(body.decode("utf-8"))


# ---------------------------------------------------------------------- #
# replay
# ---------------------------------------------------------------------- #
def replay_pending(store: DurableStore,
                   service: ImputationService) -> Dict[str, int]:
    """Serve every journaled-but-unanswered request; idempotent.

    Requests whose model the shard no longer stores (a stale ring handed
    the request to the wrong shard, or the model was discarded) are marked
    failed so replay does not retry them forever.  Results commit through
    the exactly-once ledger, so replaying a request whose result *did*
    land before the crash is a no-op.
    """
    pending = store.pending_requests()
    summary = {"pending": len(pending), "replayed": 0, "deduped": 0,
               "stale": 0, "failed": 0}
    by_model: Dict[str, List[Dict]] = {}
    for entry in pending:
        by_model.setdefault(entry["model_id"], []).append(entry)
    for model_id, entries in by_model.items():
        if model_id not in service.store:
            for entry in entries:
                store.mark_failed(
                    entry["request_id"], model_id,
                    "model not stored on this shard (stale ring?)")
            summary["stale"] += len(entries)
            continue
        served = execute_serving_batch(ServingBatch(
            model_id=model_id, backend=service,
            requests=[ImputeRequest.from_dict(entry["payload"])
                      for entry in entries]))
        for result in served.results:
            inserted = store.commit_result(
                result.request_id, model_id, result.to_dict(),
                latency_seconds=result.latency_seconds,
                fused=result.fused, fast_path=result.fast_path)
            summary["replayed" if inserted else "deduped"] += 1
        for request_id, error in served.failures.items():
            store.mark_failed(request_id, model_id, error)
            summary["failed"] += 1
    return summary


# ---------------------------------------------------------------------- #
# the shard server
# ---------------------------------------------------------------------- #
class ShardServer:
    """One shard: durable store + imputation service + socket front door."""

    def __init__(self, name: str, directory,
                 max_cached_models: Optional[int] = None,
                 host: str = "127.0.0.1") -> None:
        self.name = name
        self.store = DurableStore(directory)
        self.service = ImputationService(
            store=ModelStore(backend=SQLiteBackend(self.store),
                             max_cached_models=max_cached_models))
        self.replay_summary = replay_pending(self.store, self.service)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, 0))
        self._listener.listen(16)
        self.port = self._listener.getsockname()[1]
        self._stop = threading.Event()
        # Ops mutate shared state (service store, journal seq); one shard
        # serves its ops serially — parallelism comes from having shards.
        self._op_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def serve_forever(self) -> None:
        """Accept connections until a ``shutdown`` op arrives."""
        self._listener.settimeout(0.2)
        threads: List[threading.Thread] = []
        while not self._stop.is_set():
            try:
                connection, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            worker = threading.Thread(target=self._serve_connection,
                                      args=(connection,), daemon=True)
            worker.start()
            threads.append(worker)
        self._listener.close()
        for worker in threads:
            worker.join(timeout=1.0)
        self.store.close()

    def _serve_connection(self, connection: socket.socket) -> None:
        with connection:
            while not self._stop.is_set():
                try:
                    payload = recv_message(connection)
                except (ConnectionError, OSError, ValueError):
                    return
                if payload is None:
                    return
                try:
                    with self._op_lock:
                        reply = self.handle(payload)
                except Exception:
                    reply = {"ok": False, "error": traceback.format_exc()}
                try:
                    send_message(connection, reply)
                except OSError:
                    return

    # ------------------------------------------------------------------ #
    def handle(self, payload: Dict) -> Dict:
        """Dispatch one protocol op (also callable in-process, for tests)."""
        op = payload.get("op")
        if op == "ping":
            return {"ok": True, "name": self.name, "port": self.port,
                    "replay": self.replay_summary}
        if op == "fit":
            request = FitRequest.from_dict(payload["request"])
            model_id = self.service.fit(request)
            return {"ok": True, "model_id": model_id,
                    "method": self.service.store.method_for(model_id)}
        if op == "put_model":
            imputer = load_imputer_bytes(
                base64.b64decode(payload["blob"]), trusted=False)
            self.service.store.put(payload["model_id"], imputer,
                                   method=payload.get("method"))
            return {"ok": True, "model_id": payload["model_id"]}
        if op == "has_model":
            return {"ok": True,
                    "exists": payload["model_id"] in self.service.store}
        if op == "list_models":
            return {"ok": True, "models": self.service.list_models()}
        if op == "serve":
            return self._handle_serve(payload)
        if op == "stats":
            return self._handle_stats()
        if op == "analytics":
            return {"ok": True,
                    "analytics": self.store.analytics(
                        float(payload.get("bucket_seconds", 1.0)))}
        if op == "shutdown":
            self._stop.set()
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _handle_serve(self, payload: Dict) -> Dict:
        results: Dict[str, Dict] = {}
        failures: List[Dict[str, str]] = []
        deduped = 0
        live: List[Dict] = []
        for entry in payload["entries"]:
            wire = entry["request"]
            request_id = wire.get("request_id")
            if not request_id:
                failures.append({"request_id": str(request_id),
                                 "error": "serve entries need a request_id "
                                          "(the exactly-once ledger key)"})
                continue
            stored = self.store.get_result(request_id)
            if stored is not None:
                results[request_id] = stored
                deduped += 1
                continue
            deadline_at = entry.get("deadline_at")
            if deadline_at is not None \
                    and time.perf_counter() > float(deadline_at):
                # Expired before admission: fail fast and do not journal —
                # a replay must not resurrect a request its caller already
                # gave up on.
                failures.append({"request_id": request_id,
                                 "error": "deadline expired before the "
                                          "shard admitted the request"})
                continue
            journal_start = time.perf_counter()
            self.store.journal_request(request_id, wire["model_id"], wire)
            if obs_trace.enabled():
                rpc_ctx = obs_trace.TraceContext.from_wire(wire.get("trace"))
                if rpc_ctx is not None:
                    obs_trace.write_span("shard.journal", rpc_ctx.child(),
                                         journal_start, time.perf_counter(),
                                         {"shard": self.name})
            live.append(entry)

        by_model: Dict[str, List[Dict]] = {}
        for entry in live:
            by_model.setdefault(entry["request"]["model_id"],
                                []).append(entry)
        for model_id, entries in by_model.items():
            if model_id not in self.service.store:
                for entry in entries:
                    request_id = entry["request"]["request_id"]
                    message = (f"unknown model id {model_id!r} "
                               f"on shard {self.name!r}")
                    self.store.mark_failed(request_id, model_id, message)
                    failures.append({"request_id": request_id,
                                     "error": message})
                continue
            requests = []
            # request_id -> the shard-serve span context minted for it;
            # written after commit so the span covers serve + commit.
            serve_ctxs: Dict[str, obs_trace.TraceContext] = {}
            for entry in entries:
                decode_start = time.perf_counter()
                request = ImputeRequest.from_dict(entry["request"])
                decode_end = time.perf_counter()
                if entry.get("enqueued_at") is not None:
                    # perf_counter is CLOCK_MONOTONIC system-wide, so the
                    # router's admission stamp is meaningful here and
                    # latency_seconds reports true queue wait + compute.
                    request = dataclasses.replace(
                        request, enqueued_at=float(entry["enqueued_at"]))
                if obs_trace.enabled() and request.trace is not None:
                    obs_trace.write_span("wire.decode",
                                         request.trace.child(),
                                         decode_start, decode_end,
                                         {"shard": self.name})
                    # Re-stamp with the shard-serve context so the serving
                    # spans written inside execute_serving_batch parent
                    # under ``shard.serve`` rather than the RPC span.
                    serve_ctx = request.trace.child()
                    request = dataclasses.replace(request, trace=serve_ctx)
                    serve_ctxs[str(request.request_id)] = serve_ctx
                requests.append(request)
            serve_start = time.perf_counter()
            served = execute_serving_batch(ServingBatch(
                model_id=model_id, backend=self.service, requests=requests))
            for result in served.results:
                wire_result = result.to_dict()
                commit_start = time.perf_counter()
                inserted = self.store.commit_result(
                    result.request_id, model_id, wire_result,
                    latency_seconds=result.latency_seconds,
                    fused=result.fused, fast_path=result.fast_path)
                serve_ctx = serve_ctxs.get(result.request_id)
                if serve_ctx is not None:
                    end = time.perf_counter()
                    obs_trace.write_span("shard.commit", serve_ctx.child(),
                                         commit_start, end,
                                         {"shard": self.name})
                    obs_trace.write_span(
                        "shard.serve", serve_ctx, serve_start, end,
                        {"shard": self.name, "model_id": model_id,
                         "fast_path": result.fast_path,
                         "fused": result.fused,
                         "batch_size": len(requests)})
                if not inserted:
                    deduped += 1
                    wire_result = self.store.get_result(result.request_id)
                results[result.request_id] = wire_result
            for request_id, error in served.failures.items():
                self.store.mark_failed(request_id, model_id, error)
                failures.append({"request_id": request_id, "error": error})
        return {"ok": True, "results": results, "failures": failures,
                "deduped": deduped}

    def _handle_stats(self) -> Dict:
        return {
            "ok": True,
            "name": self.name,
            "alive": True,
            "models": self.service.list_models(),
            "model_cache": self.service.store.cache_stats(),
            "fast_path": self.service.store.fast_path_stats(),
            "journal": self.store.journal_counts(),
            "results": self.store.result_count(),
            "replay": self.replay_summary,
            "truncated_records": self.store.truncated_records,
        }


# ---------------------------------------------------------------------- #
# process lifecycle
# ---------------------------------------------------------------------- #
def run_shard(name: str, directory: str, port_conn,
              max_cached_models: Optional[int] = None) -> None:
    """Process entry point: build the server, report the port, serve."""
    try:
        # Shard-local span file: each shard process appends to its own
        # <directory>/traces.jsonl, and repro-obs re-joins the files by
        # trace id.  (The enabled/sample state is inherited from the
        # router's environment via fork/spawn.)
        obs_trace.configure(trace_dir=directory)
        server = ShardServer(name, directory,
                             max_cached_models=max_cached_models)
    except Exception:
        port_conn.send({"error": traceback.format_exc()})
        return
    port_conn.send({"port": server.port})
    port_conn.close()
    server.serve_forever()


@dataclass
class ShardHandle:
    """A running shard process and how to reach it."""

    name: str
    directory: str
    process: multiprocessing.process.BaseProcess
    port: int

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """SIGKILL — no cleanup, no flush; the chaos the journal is for."""
        self.process.kill()
        self.process.join(timeout=10.0)


def _context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:                              # pragma: no cover
        return multiprocessing.get_context("spawn")


def start_shard(name: str, directory: str,
                max_cached_models: Optional[int] = None,
                timeout: float = 60.0) -> ShardHandle:
    """Spawn a shard worker over ``directory`` and wait for its port."""
    ctx = _context()
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(
        target=run_shard, name=f"repro-{name}",
        args=(name, str(directory), child_conn, max_cached_models),
        daemon=True)
    process.start()
    child_conn.close()
    if not parent_conn.poll(timeout):
        process.kill()
        raise TimeoutError(f"shard {name!r} did not report a port "
                           f"within {timeout}s")
    message = parent_conn.recv()
    parent_conn.close()
    if "error" in message:
        process.join(timeout=5.0)
        raise RuntimeError(f"shard {name!r} failed to start:\n"
                           f"{message['error']}")
    return ShardHandle(name=name, directory=str(directory),
                       process=process, port=message["port"])
