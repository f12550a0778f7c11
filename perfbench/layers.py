"""Which public calls of repro are timed, and the per-layer metrics.

Every span wraps one public function or method of the layer it is named
after; the table in ``spec.json`` ("predictions") says which end-to-end
metric each of these should move and on which workload.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Dict, Iterable

import numpy as np

#: (metric, unit) in the order BENCHMARK.json lists them
PER_LAYER = [
    ("gateway.submit_us", "us"),
    ("gateway.queue_wait_ms", "ms"),
    ("gateway.batch_size", "count"),
    ("gateway.fast_lane_share", "ratio"),
    ("api.serve_batch_ms", "ms"),
    ("api.model_cache_hit_rate", "ratio"),
    ("core.context_build_us", "us"),
    ("core.build_batch_us", "us"),
    ("core.predict_ms", "ms"),
    ("core.pooled_hidden_ms", "ms"),
    ("core.pooled_hidden_distinct_ratio", "ratio"),
    ("core.kernel_regression_ms", "ms"),
    ("core.fast_path.lookup_us", "us"),
    ("core.fast_path.hit_rate", "ratio"),
    ("core.fast_path.build_ms", "ms"),
    ("data.fill_us", "us"),
    ("train.sample_batch_ms", "ms"),
    ("train.forward_ms", "ms"),
    ("train.backward_ms", "ms"),
    ("train.optimizer_ms", "ms"),
    ("train.epochs", "count"),
    ("train.steps", "count"),
    ("cluster.rpc_ms", "ms"),
    ("cluster.rpc_batch_size", "count"),
    ("cluster.codec_us", "us"),
    ("cluster.wire_bytes_per_request", "bytes"),
    ("cluster.journal_per_request", "ratio"),
    ("trace_overhead_pct", "%"),
    ("unattributed_ms", "ms"),
]

#: serve RPCs whose wire size is computed by re-encoding the messages
WIRE_SAMPLES = 16

#: phases whose spans are serving traffic (the rest are set-up and fits)
SERVE_PHASES = ("burst", "paced", "serve")


def instrument(tracer, cluster: bool) -> None:
    """Wrap the public calls of every layer the workload runs through."""
    import repro.core.imputer as imputer_module
    import repro.gateway.gateway as gateway_module
    from repro.api.requests import ImputeRequest, ImputeResult
    from repro.core.context import DatasetContext
    from repro.core.fast_path import FastPathTables
    from repro.core.imputer import DeepMVIImputer
    from repro.core.kernel_regression import KernelRegression
    from repro.core.model import DeepMVIModel
    from repro.core.sampling import TrainingSampler
    from repro.core.temporal_transformer import TemporalTransformer
    from repro.data.tensor import TimeSeriesTensor
    from repro.gateway import Gateway
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor

    # Admission stamps keyed by the request's tensor: every request of a
    # pool is its own object, and the pool outnumbers what can be in
    # flight, so no key is live twice.
    admitted: Dict[int, float] = {}

    def stamp(args, kwargs):
        request = args[1] if len(args) > 1 else kwargs.get("request")
        admitted[id(request.data)] = perf_counter()

    def dispatched(tracer_, start, tensors):
        size = 0
        for tensor in tensors:
            stamp_at = admitted.pop(id(tensor), None)
            if stamp_at is not None:
                size += 1
                tracer_.sample("gateway.queue_wait_s", start - stamp_at)
        if size:
            tracer_.sample("gateway.batch_size", size)
        return size

    def fast_lane(tracer_, start, args, kwargs, result):
        size = dispatched(tracer_, start, args[1])
        if size:
            tracer_.sample("gateway.fast_lane", size if result is not None
                           else 0)

    def serve_batch(tracer_, start, args, kwargs, result):
        dispatched(tracer_, start,
                   [request.data for request in args[0].requests])

    # Rows are compared through a random projection: equal rows always get
    # equal keys, and unequal rows colliding is vanishingly unlikely.
    projections: Dict[int, np.ndarray] = {}

    def distinct_rows(tracer_, start, args, kwargs, result):
        if tracer_.phase not in SERVE_PHASES:
            return
        values, avail, index, target = args[1:5]
        rows = np.concatenate([
            values.reshape(len(values), -1), avail.reshape(len(avail), -1),
            index.reshape(len(index), -1),
            np.asarray(target).reshape(-1, 1)], axis=1)
        width = rows.shape[1]
        if width not in projections:
            projections[width] = np.random.default_rng(width).normal(
                size=width)
        tracer_.sample("core.pooled_hidden.rows", len(rows))
        tracer_.sample("core.pooled_hidden.distinct",
                       len(np.unique(rows @ projections[width])))

    tracer.patch(Gateway, "submit", "gateway.submit", before=stamp)
    tracer.patch(DeepMVIImputer, "try_fast_path", "core.fast_path.serve",
                 probe=fast_lane)
    tracer.patch(gateway_module, "execute_serving_batch", "api.serve_batch",
                 probe=serve_batch)
    tracer.patch(DeepMVIImputer, "impute_many", "core.impute_many")
    tracer.patch(DatasetContext, "__init__", "core.context_build")
    tracer.patch(DatasetContext, "build_batch", "core.build_batch")
    tracer.patch(DeepMVIModel, "predict", "core.predict")
    tracer.patch(TemporalTransformer, "pooled_hidden", "core.pooled_hidden",
                 probe=distinct_rows)
    tracer.patch(KernelRegression, "forward", "core.kernel_regression")
    tracer.patch(FastPathTables, "match_windows", "core.fast_path.match")
    tracer.patch(FastPathTables, "lookup", "core.fast_path.lookup")
    tracer.patch(imputer_module, "build_fast_path_tables",
                 "core.fast_path.build")
    tracer.patch(TimeSeriesTensor, "fill", "data.fill")
    tracer.patch(TrainingSampler, "sample_batch", "train.sample_batch")
    tracer.patch(DeepMVIModel, "__call__", "train.forward")
    tracer.patch(Tensor, "backward", "train.backward")
    tracer.patch(Adam, "step", "train.optimizer.step")
    tracer.patch(Adam, "clip_grad_norm", "train.optimizer.clip")
    if not cluster:
        return

    from repro.cluster.router import ShardClient

    def rpc_name(args, kwargs):
        return "cluster.rpc" if args[1].get("op") == "serve" \
            else f"cluster.rpc_{args[1].get('op')}"

    def rpc(tracer_, start, args, kwargs, result):
        payload = args[1]
        if payload.get("op") != "serve":
            return
        entries = len(payload["entries"])
        tracer_.sample("cluster.rpc_batch_size", entries)
        # Re-encoding costs more than the call it measures: sample a few.
        if len(tracer_.values([tracer_.phase], "cluster.wire_bytes")) \
                < WIRE_SAMPLES:
            # Both frames: 4-byte length prefix plus the JSON body.
            size = len(json.dumps(payload).encode("utf-8")) \
                + len(json.dumps(result).encode("utf-8")) + 8
            tracer_.sample("cluster.wire_bytes", size / entries)

    tracer.patch(ShardClient, "call", rpc_name, probe=rpc)
    tracer.patch(ImputeRequest, "to_dict", "cluster.codec")
    tracer.patch(ImputeResult, "from_dict", "cluster.codec")


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(tracer, serve: Iterable[str], paced: str,
                  fast: Iterable[str], fit: Iterable[str],
                  cluster: Iterable[str],
                  extras: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric; 0 for a layer the workload never reached.

    ``fast`` names the phases whose traffic is meant to hit the fast-path
    tables; the fast-lane and lookup metrics are taken there.
    """
    serve, fast = tuple(serve), tuple(fast)
    fit, cluster = tuple(fit), tuple(cluster)
    per_call = tracer.per_call
    rows = sum(tracer.values(serve, "core.pooled_hidden.rows"))
    distinct = sum(tracer.values(serve, "core.pooled_hidden.distinct"))
    fast_dispatched = sum(tracer.values(fast, "gateway.batch_size"))
    rpc_requests = sum(tracer.values(cluster, "cluster.rpc_batch_size"))
    steps = tracer.calls(fit, "train.optimizer.step")
    matches = tracer.calls(fast, "core.fast_path.match")
    metrics = {
        "gateway.submit_us": per_call((paced,), "gateway.submit", 1e6),
        "gateway.queue_wait_ms": _mean(
            tracer.values((paced,), "gateway.queue_wait_s")) * 1e3,
        "gateway.batch_size": _mean(tracer.values(serve,
                                                  "gateway.batch_size")),
        "gateway.fast_lane_share": (
            sum(tracer.values(fast, "gateway.fast_lane")) / fast_dispatched
            if fast_dispatched else 0.0),
        "api.serve_batch_ms": per_call(serve, "api.serve_batch", 1e3,
                                       inclusive=False),
        "core.context_build_us": per_call(serve, "core.context_build", 1e6),
        "core.build_batch_us": per_call(serve, "core.build_batch", 1e6),
        "core.predict_ms": per_call(serve, "core.predict", 1e3),
        "core.pooled_hidden_ms": per_call(serve, "core.pooled_hidden", 1e3),
        "core.pooled_hidden_distinct_ratio": distinct / rows if rows else 0.0,
        "core.kernel_regression_ms": per_call(
            serve, "core.kernel_regression", 1e3),
        "core.fast_path.lookup_us": (
            (tracer.total_s(fast, "core.fast_path.match")
             + tracer.total_s(fast, "core.fast_path.lookup")) * 1e6 / matches
            if matches else 0.0),
        "core.fast_path.build_ms": per_call(fit, "core.fast_path.build",
                                            1e3),
        "data.fill_us": per_call(serve, "data.fill", 1e6),
        "train.sample_batch_ms": per_call(fit, "train.sample_batch", 1e3),
        "train.forward_ms": per_call(fit, "train.forward", 1e3),
        "train.backward_ms": per_call(fit, "train.backward", 1e3),
        "train.optimizer_ms": (
            (tracer.total_s(fit, "train.optimizer.step")
             + tracer.total_s(fit, "train.optimizer.clip")) * 1e3 / steps
            if steps else 0.0),
        "train.steps": float(steps),
        "cluster.rpc_ms": per_call(cluster, "cluster.rpc", 1e3),
        "cluster.rpc_batch_size": _mean(
            tracer.values(cluster, "cluster.rpc_batch_size")),
        "cluster.codec_us": (tracer.total_s(cluster, "cluster.codec") * 1e6
                             / rpc_requests if rpc_requests else 0.0),
        "cluster.wire_bytes_per_request": _mean(
            tracer.values(cluster, "cluster.wire_bytes")),
        "cluster.journal_per_request": 0.0,
        "train.epochs": 0.0,
    }
    metrics.update(extras)
    return {name: float(metrics[name]) for name, _ in PER_LAYER}
