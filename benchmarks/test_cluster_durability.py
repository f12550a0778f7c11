"""Cluster durability: exactly-once serving under shard kill/restart.

The cluster tier's claim is that sharding adds fault tolerance without
changing answers.  This benchmark proves both halves:

* **bit-identity** — one DeepMVI model is fitted once in-process, shipped
  to its owning shard as an artifact blob, and the same window-shaped
  requests are served through the single-process
  :class:`~repro.api.ImputationService` and through the 2-shard
  :class:`~repro.cluster.ClusterRouter`.  The completed tensors must be
  byte-for-byte equal — the shard serves the same weights through the
  same fused serving path, just behind a socket.
* **exactly-once under SIGKILL** — with a full batch queued, the shard
  that owns the model is killed (``SIGKILL``, no cleanup).  The router
  restarts it, journal replay heals the durable store, the queued batch
  is resent, and every request must be delivered exactly once: zero lost
  (all ids answered), zero duplicated (the results ledger holds exactly
  one row per id), and a deliberate resend of every id must dedupe
  through the ledger instead of re-serving.

Reported metrics: ``cluster.exactly_once`` (1.0 iff zero lost, zero
duplicated, full dedupe — gated at face value), ``cluster.recovery_rate``
(1 / seconds to restart the killed shard and replay its journal; gated as
a rate because the regression checker treats higher as better), plus
ungated requests/sec throughput numbers for trajectory tracking.

Recording runs (``REPRO_BENCH_RECORD=1``) write the results to
``benchmarks/results/cluster.{txt,json}`` and, at full size, to the
repo-root ``BENCH_cluster.json`` trajectory artifact.  The
CI bench-regression job re-runs this file in fast mode and gates the two
metrics against ``benchmarks/baselines/cluster_fast.json`` via
``benchmarks/check_regression.py``.
"""

import json
import time

import numpy as np

from repro.api import ImputationService
from repro.api.requests import ImputeRequest
from repro.cluster import ClusterRouter
from repro.core.config import DeepMVIConfig
from repro.data.missing import MissingScenario, apply_scenario

from benchmarks._harness import bench_dataset, emit, is_fast, record_trajectory


N_SHARDS = 2
SERVING_WINDOW = 25
SCENARIO = MissingScenario("mcar", {"incomplete_fraction": 0.5,
                                    "block_size": 4})

if is_fast():
    N_REQUESTS = 16
    SERVING_CONFIG = dict(max_epochs=2, samples_per_epoch=32, patience=1,
                          batch_size=8, n_filters=4, max_context_windows=8)
else:
    N_REQUESTS = 48
    SERVING_CONFIG = dict(max_epochs=3, samples_per_epoch=128, patience=2,
                          batch_size=16, n_filters=8, max_context_windows=16)


def _windows(incomplete, n_time, count):
    return [incomplete.slice_time((index * 7) % (n_time - SERVING_WINDOW),
                                  (index * 7) % (n_time - SERVING_WINDOW)
                                  + SERVING_WINDOW)
            for index in range(count)]


def test_cluster_durability(results_dir, tmp_path):
    truth = bench_dataset("airq", seed=0)
    incomplete, _ = apply_scenario(truth, SCENARIO, seed=0)
    windows = _windows(incomplete, truth.n_time, N_REQUESTS)

    # Fit ONCE in-process; the cluster serves the same weights.
    local = ImputationService()
    model_id = local.fit(incomplete, method="deepmvi",
                         config=DeepMVIConfig(**SERVING_CONFIG))
    imputer = local.store.get(model_id)

    with ClusterRouter(directory=tmp_path, shards=N_SHARDS) as router:
        router.put_model(model_id, imputer, method="deepmvi")
        owner = router.ring.assign(model_id)

        # -- phase A: bit-identity vs single-process serving ------------ #
        for tensor in windows:
            local.submit(ImputeRequest(model_id=model_id, data=tensor))
        local_results = local.gather()

        start = time.perf_counter()
        ids = [router.submit(tensor, model_id=model_id)
               for tensor in windows]
        remote_results = router.gather()
        healthy_elapsed = time.perf_counter() - start

        assert [r.request_id for r in remote_results] == ids
        identical = all(
            np.array_equal(remote.completed.values, local_r.completed.values)
            for remote, local_r in zip(remote_results, local_results))
        assert identical, (
            "cluster serving diverged from single-process serving — the "
            "shard must serve the same weights through the same fused path")

        # -- phase B: SIGKILL the owner with a full batch queued -------- #
        kill_ids = [router.submit(tensor, model_id=model_id)
                    for tensor in windows]
        router.kill_shard(owner)
        start = time.perf_counter()
        kill_results = router.gather()
        killed_elapsed = time.perf_counter() - start
        delivered = {result.request_id for result in kill_results}
        lost = [rid for rid in kill_ids if rid not in delivered]
        recovery_seconds = router.recoveries[-1]["seconds"]

        # Killed-batch answers must match the healthy-batch answers for
        # the same windows: recovery changes availability, not results.
        identical_after_kill = all(
            np.array_equal(after.completed.values, before.completed.values)
            for after, before in zip(kill_results, remote_results))
        assert identical_after_kill

        # Resend EVERY id from both batches: the ledger must dedupe all.
        for request_id, tensor in zip(ids + kill_ids, windows + windows):
            router.submit(ImputeRequest(model_id=model_id, data=tensor,
                                        request_id=request_id))
        router.gather()
        deduped = router.last_deduped
        ledger_rows = sum(info.get("results", 0)
                          for info in router.shard_stats().values()
                          if info.get("alive"))
        duplicated = ledger_rows - 2 * N_REQUESTS

        exactly_once = float(not lost and duplicated == 0
                             and deduped == 2 * N_REQUESTS)

        # -- phase C: SQL window-function analytics over the journal ---- #
        report = router.analytics(bucket_seconds=3600.0)
        completions = sum(row["completions"]
                          for row in report["p99_over_time"])
        assert completions == 2 * N_REQUESTS
        assert any(row["model_id"] == model_id
                   for row in report["per_model_qps"])
        p99_ms = report["p99_over_time"][0]["p99_seconds"] * 1e3

    metrics = {
        "cluster.exactly_once": exactly_once,
        "cluster.recovery_rate": 1.0 / max(recovery_seconds, 1e-9),
        "cluster.recovery_seconds": recovery_seconds,
        "cluster.requests_per_second": N_REQUESTS / healthy_elapsed,
        "cluster.killed_requests_per_second": N_REQUESTS / killed_elapsed,
        "cluster.deduped": float(deduped),
        "cluster.bit_identical": float(identical and identical_after_kill),
    }
    lines = [
        f"cluster  {N_SHARDS} shards   healthy "
        f"{N_REQUESTS / healthy_elapsed:>7.1f} req/sec   with SIGKILL "
        f"{N_REQUESTS / killed_elapsed:>7.1f} req/sec",
        f"kill     lost {len(lost)}   duplicated {duplicated}   "
        f"resend dedupe {deduped}/{2 * N_REQUESTS}   recovery "
        f"{recovery_seconds * 1e3:.0f} ms",
        f"journal  p99 {p99_ms:.2f} ms over {completions} completions "
        f"(SQL window functions, shards={report['shards']})",
    ]
    payload = {
        "benchmark": "cluster",
        "fast_mode": is_fast(),
        "workload": {
            "dataset": "airq",
            "window": SERVING_WINDOW,
            "requests": N_REQUESTS,
            "shards": N_SHARDS,
            "scenario": SCENARIO.describe(),
        },
        "metrics": {key: round(float(value), 6)
                    for key, value in sorted(metrics.items())},
        # exactly_once is pass/fail; recovery is gated as a rate (the
        # regression checker treats higher as better).  Throughput is
        # reported, not gated — absolute req/sec is host-dependent.
        "gate": ["cluster.exactly_once", "cluster.recovery_rate"],
    }
    emit(results_dir, "cluster",
         "Cluster durability: exactly-once serving under shard SIGKILL",
         "\n".join(lines))
    (results_dir / "cluster.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    record_trajectory("cluster", payload)

    assert exactly_once == 1.0, (
        f"exactly-once violated: lost={len(lost)} duplicated={duplicated} "
        f"deduped={deduped}/{2 * N_REQUESTS}")
