"""Gateway serving throughput: concurrent producers vs one-at-a-time.

The serving gateway's claim is that under concurrent traffic it beats the
naive pattern (every caller invokes ``service.impute()`` itself, one
request at a time) by fusing same-model window-shaped requests into shared
forward calls.  This benchmark measures exactly that claim with
``N_PRODUCERS`` concurrent producer threads and three serving modes:

* **sequential** — one thread serves every request back-to-back through
  ``service.impute()`` (the zero-concurrency floor);
* **one-at-a-time concurrent** — the producers each call
  ``service.impute()`` directly, serialised by a lock
  (:class:`~repro.api.ImputationService` is not thread-safe); this is the
  pattern the gateway replaces;
* **gateway** — the same producers submit to
  :class:`repro.gateway.Gateway`, whose adaptive micro-batcher fuses the
  requests (acceptance bar: **>= 2x** requests/sec against both
  baselines).

Producers synchronise on a barrier so the timed window contains only
serving work.  The three modes run in ``REPEATS`` interleaved rounds
(sequential, one-at-a-time, gateway; then again), each round yields its
two speedups, and the 2x bars apply to the **median** round: a single
pass on a shared host can lose a scheduling quantum to a neighbour, and
interleaving puts the arms of one ratio under the same host conditions.
Every gateway pass also asserts delivery integrity (each request exactly
one result, in submit order per producer) — throughput earned by dropping
requests would be meaningless.

Recording runs (``REPRO_BENCH_RECORD=1``) write the results to
``benchmarks/results/gateway_throughput.{txt,json}`` and, at full size,
to the repo-root ``BENCH_gateway_throughput.json`` trajectory artifact.
The CI
bench-regression job re-runs this file in fast mode and gates
``gateway.concurrent_speedup`` against
``benchmarks/baselines/gateway_fast.json`` via
``benchmarks/check_regression.py`` (25% tolerance).
"""

import json
import statistics
import threading
import time

from repro.api import ImputationService
from repro.api.requests import ImputeRequest
from repro.core.config import DeepMVIConfig
from repro.data.missing import MissingScenario, apply_scenario
from repro.gateway import Gateway, GatewayConfig

from benchmarks._harness import bench_dataset, emit, is_fast, record_trajectory


N_PRODUCERS = 8

if is_fast():
    SERVING_WINDOW = 25
    REQUESTS_PER_PRODUCER = 8
    SERVING_CONFIG = dict(max_epochs=2, samples_per_epoch=32, patience=1,
                          batch_size=8, n_filters=4, max_context_windows=8)
else:
    SERVING_WINDOW = 16
    REQUESTS_PER_PRODUCER = 16
    SERVING_CONFIG = dict(max_epochs=3, samples_per_epoch=128, patience=2,
                          batch_size=16, n_filters=8, max_context_windows=16)

#: interleaved rounds of the three modes; the bars apply to the median
REPEATS = 5
MAX_BATCH_SIZE = 64
MAX_WAIT_MS = 10.0
SCENARIO = MissingScenario("mcar", {"incomplete_fraction": 0.5,
                                    "block_size": 4})


def _traffic(incomplete, n_time):
    """Per-producer lists of window-shaped request tensors."""
    traffic = []
    for producer in range(N_PRODUCERS):
        windows = []
        for index in range(REQUESTS_PER_PRODUCER):
            offset = producer * REQUESTS_PER_PRODUCER + index
            start = (offset * 7) % (n_time - SERVING_WINDOW)
            windows.append(incomplete.slice_time(
                start, start + SERVING_WINDOW))
        traffic.append(windows)
    return traffic


def _timed_producers(producer_fn):
    """Run one producer thread per traffic lane; time from barrier release.

    Thread creation happens outside the timed window: the measurement is
    serving throughput, not ``Thread.start`` overhead.
    """
    barrier = threading.Barrier(N_PRODUCERS + 1)
    threads = [threading.Thread(target=producer_fn, args=(index, barrier),
                                name=f"bench-producer-{index}")
               for index in range(N_PRODUCERS)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


def _run_gateway_pass(service, model_id, traffic):
    """One concurrent pass; returns (elapsed, stats, delivered results)."""
    gateway = Gateway(service, GatewayConfig(
        max_batch_size=MAX_BATCH_SIZE, max_wait_ms=MAX_WAIT_MS,
        workers=1, max_queue_depth=4096, admission="block"))
    delivered = {}

    def producer_loop(producer_index, barrier):
        barrier.wait()
        futures = []
        for index, tensor in enumerate(traffic[producer_index]):
            request_id = f"p{producer_index}-r{index:03d}"
            futures.append(gateway.submit(ImputeRequest(
                model_id=model_id, data=tensor, request_id=request_id)))
        delivered[producer_index] = [future.result(timeout=120.0)
                                     for future in futures]

    elapsed = _timed_producers(producer_loop)
    stats = gateway.stats()
    gateway.close()
    return elapsed, stats, delivered


def test_gateway_throughput(results_dir):
    truth = bench_dataset("airq", seed=0)
    incomplete, _ = apply_scenario(truth, SCENARIO, seed=0)
    config = DeepMVIConfig(**SERVING_CONFIG)
    service = ImputationService()
    model_id = service.fit(incomplete, method="deepmvi", config=config)
    traffic = _traffic(incomplete, truth.n_time)
    total = N_PRODUCERS * REQUESTS_PER_PRODUCER

    # Warm the serving path (first impute builds lazy tables and the
    # per-shape context-structure template).
    for tensor in traffic[0]:
        service.impute(tensor, model_id=model_id)

    def sequential_pass():
        """One thread serving every request back-to-back."""
        start = time.perf_counter()
        for windows in traffic:
            for tensor in windows:
                service.impute(tensor, model_id=model_id)
        return total / (time.perf_counter() - start)

    # The pattern the gateway replaces: every producer calls
    # service.impute() itself.  The service is not thread-safe, so the
    # calls serialise on a lock — which is precisely what "one-at-a-time"
    # serving is.
    impute_lock = threading.Lock()

    def naive_producer(producer_index, barrier):
        barrier.wait()
        for tensor in traffic[producer_index]:
            with impute_lock:
                service.impute(tensor, model_id=model_id)

    rounds = []
    for _ in range(REPEATS):
        sequential_rps = sequential_pass()
        naive_rps = total / _timed_producers(naive_producer)
        elapsed, stats, delivered = _run_gateway_pass(service, model_id,
                                                      traffic)
        # Delivery integrity on EVERY pass: exactly one result per request,
        # in submit order per producer (the gateway preserves caller ids).
        assert sorted(delivered) == list(range(N_PRODUCERS))
        for producer_index, results in delivered.items():
            expected = [f"p{producer_index}-r{index:03d}"
                        for index in range(REQUESTS_PER_PRODUCER)]
            assert [r.request_id for r in results] == expected, (
                f"producer {producer_index} results out of order or lost")
        assert stats["completed"] == total and stats["failed"] == 0
        gateway_rps = total / elapsed
        rounds.append({"sequential": sequential_rps, "naive": naive_rps,
                       "gateway": gateway_rps,
                       "speedup": gateway_rps / max(naive_rps, 1e-9),
                       "speedup_vs_sequential":
                           gateway_rps / max(sequential_rps, 1e-9),
                       "stats": stats})

    def median_of(key):
        return statistics.median(round_[key] for round_ in rounds)

    sequential_rps = median_of("sequential")
    naive_rps = median_of("naive")
    gateway_rps = median_of("gateway")
    speedup = median_of("speedup")
    speedup_vs_sequential = median_of("speedup_vs_sequential")
    # Batching statistics of the round with the median gateway rate.
    median_stats = sorted(rounds, key=lambda round_: round_["gateway"])[
        len(rounds) // 2]["stats"]
    metrics = {
        "gateway.sequential_requests_per_sec": sequential_rps,
        "gateway.naive_concurrent_requests_per_sec": naive_rps,
        "gateway.concurrent_requests_per_sec": gateway_rps,
        "gateway.concurrent_speedup": speedup,
        "gateway.sequential_speedup": speedup_vs_sequential,
        "gateway.fusion_rate": median_stats["fusion_rate"],
        "gateway.mean_batch_size": median_stats["mean_batch_size"],
        "gateway.latency_p50_seconds": median_stats["latency_p50_seconds"],
        "gateway.latency_p95_seconds": median_stats["latency_p95_seconds"],
        "gateway.latency_p99_seconds": median_stats["latency_p99_seconds"],
    }
    lines = [
        f"serving  sequential {sequential_rps:>8.1f} req/sec   "
        f"one-at-a-time({N_PRODUCERS} producers) {naive_rps:>8.1f} req/sec",
        f"gateway  {gateway_rps:>8.1f} req/sec   "
        f"{speedup:.2f}x vs one-at-a-time   "
        f"{speedup_vs_sequential:.2f}x vs sequential",
        f"gateway  fusion {median_stats['fusion_rate']:.0%}   "
        f"mean batch {median_stats['mean_batch_size']:.1f}   "
        f"p50 {median_stats['latency_p50_seconds'] * 1e3:.1f} ms   "
        f"p95 {median_stats['latency_p95_seconds'] * 1e3:.1f} ms   "
        f"p99 {median_stats['latency_p99_seconds'] * 1e3:.1f} ms",
        f"medians of {REPEATS} interleaved rounds; speedups per round "
        + " ".join(f"{r['speedup']:.2f}/{r['speedup_vs_sequential']:.2f}"
                   for r in rounds),
    ]

    payload = {
        "benchmark": "gateway_throughput",
        "fast_mode": is_fast(),
        "workload": {
            "dataset": "airq",
            "window": SERVING_WINDOW,
            "producers": N_PRODUCERS,
            "requests_per_producer": REQUESTS_PER_PRODUCER,
            "max_batch_size": MAX_BATCH_SIZE,
            "max_wait_ms": MAX_WAIT_MS,
            "scenario": SCENARIO.describe(),
            "repeats": REPEATS,
        },
        "metrics": {key: round(float(value), 4)
                    for key, value in sorted(metrics.items())},
        # Dimensionless ratio gated by benchmarks/check_regression.py:
        # stable across host speeds, unlike absolute requests/sec.
        "gate": ["gateway.concurrent_speedup"],
    }
    emit(results_dir, "gateway_throughput",
         "Gateway serving throughput: concurrent producers vs sequential",
         "\n".join(lines))
    (results_dir / "gateway_throughput.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    record_trajectory("gateway_throughput", payload)

    # Acceptance bar: in the median interleaved round, the gateway must at
    # least double one-at-a-time throughput under concurrent window-shaped
    # traffic — against both the concurrent naive pattern it replaces and
    # the zero-concurrency sequential floor.
    assert speedup >= 2.0, (
        f"gateway throughput only {speedup:.2f}x the one-at-a-time "
        f"concurrent baseline (bar: 2.0x)")
    assert speedup_vs_sequential >= 2.0, (
        f"gateway throughput only {speedup_vs_sequential:.2f}x the "
        f"sequential baseline (bar: 2.0x)")
    # Micro-batching must actually engage — a gateway that degenerates to
    # per-request serving can still pass a noisy speedup check.
    assert median_stats["fusion_rate"] >= 0.9, (
        f"fusion rate {median_stats['fusion_rate']:.0%} — the adaptive "
        "batcher is not grouping requests")
