"""Tracing overhead: the observability tax on gateway serving.

The tracer's contract (``src/repro/obs/trace.py``) is pay-for-what-you-
sample: with ``REPRO_TRACE`` off every hook collapses to one boolean
check, and at the production-style 10% head-sampling rate the span cost
amortises to a few microseconds per request.  The acceptance bar this
file gates is **at most a 5% serving-cost increase at 10% sampling, and
~0 when disabled**.

A 5% bar cannot be gated on raw end-to-end throughput: identical
back-to-back gateway passes on a shared CI host vary by far more than
5% (scheduler steal, bursty neighbours), so any such gate would be
flakiness, not a floor.  Instead the bar is checked on its measured
components, each individually stable:

* **serving baseline R** — process-CPU per request of the real
  pipeline: concurrent producers through :class:`repro.gateway.Gateway`
  over the same DeepMVI serving config as the gateway-throughput
  benchmark, tracing disabled (median of several passes);
* **traced-request cost T** — CPU of everything tracing adds for one
  sampled request, measured in a tight loop over the *real* code path:
  root minting, child contexts, stage timers, span records, and
  ``O_APPEND`` writes to a real ``traces.jsonl``.  The loop writes more
  often than the serving path does (the gateway coalesces a whole
  batch's spans into one write), so T is an overestimate — conservative
  in the gate's favour;
* **disabled-hook cost** — ns per ``stage()``/``start_trace()`` call
  with tracing off, the "~0 when disabled" claim.

Gated ratios (bigger is better, floor 1.0 in
``benchmarks/baselines/obs_fast.json``, checked by
``benchmarks/check_regression.py`` in the CI bench-regression job):

* ``obs.traced_ratio`` = (0.05 x R) / (0.10 x T): how many times over
  the 10%-sampled tracing cost fits inside the 5% budget;
* ``obs.disabled_headroom`` = 1000ns / disabled-hook-ns: how many times
  under a (already generous) 1us-per-hook budget the disabled path is.

One fully-sampled end-to-end pass also runs as a sanity check that
tracing engages (spans actually land on disk) and to report the
e2e CPU ratio as context.  Recording runs (``REPRO_BENCH_RECORD=1``)
write the results to ``benchmarks/results/obs.{txt,json}`` and, at full
size, to the repo-root ``BENCH_obs_overhead.json``.
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
from repro.obs import trace as obs_trace
from repro.obs.cli import load_spans

from benchmarks._harness import bench_dataset, emit, is_fast, record_trajectory


N_PRODUCERS = 4
SAMPLE_RATE = 0.10   # the gated production-style sampling rate
BUDGET = 0.05        # the acceptance bar: <= 5% of serving cost
HOOK_BUDGET_NS = 1000.0

if is_fast():
    SERVING_WINDOW = 25
    REQUESTS_PER_PRODUCER = 150
    SERVING_PASSES = 3
    MICRO_ITERS = 2000
    SERVING_CONFIG = dict(max_epochs=2, samples_per_epoch=32, patience=1,
                          batch_size=8, n_filters=4, max_context_windows=8)
else:
    SERVING_WINDOW = 16
    REQUESTS_PER_PRODUCER = 250
    SERVING_PASSES = 5
    MICRO_ITERS = 5000
    SERVING_CONFIG = dict(max_epochs=3, samples_per_epoch=128, patience=2,
                          batch_size=16, n_filters=8, max_context_windows=16)

MAX_BATCH_SIZE = 32
MAX_WAIT_MS = 5.0
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
    """One producer thread per lane; (wall_s, process_cpu_s) from barrier."""
    barrier = threading.Barrier(N_PRODUCERS + 1)
    threads = [threading.Thread(target=producer_fn, args=(index, barrier),
                                name=f"obs-bench-producer-{index}")
               for index in range(N_PRODUCERS)]
    for thread in threads:
        thread.start()
    barrier.wait()
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join()
    return (time.perf_counter() - wall_start,
            time.process_time() - cpu_start)


def _run_pass(service, model_id, traffic, sample_rate):
    """One concurrent pass; returns (cpu_seconds_per_request, wall_rps)."""
    gateway = Gateway(service, GatewayConfig(
        max_batch_size=MAX_BATCH_SIZE, max_wait_ms=MAX_WAIT_MS,
        workers=1, max_queue_depth=4096, admission="block",
        trace_sample_rate=sample_rate))

    def producer_loop(producer_index, barrier):
        barrier.wait()
        futures = [gateway.submit(ImputeRequest(model_id=model_id,
                                                data=tensor))
                   for tensor in traffic[producer_index]]
        for future in futures:
            future.result(timeout=120.0)

    wall, cpu = _timed_producers(producer_loop)
    stats = gateway.stats()
    gateway.close()
    total = N_PRODUCERS * REQUESTS_PER_PRODUCER
    assert stats["completed"] == total and stats["failed"] == 0
    return cpu / total, total / wall


def _traced_request_cpu_us(iters):
    """CPU microseconds tracing adds to one fully-sampled request.

    Replays the span work of a request's trip through the gateway over
    a cluster-free service — root span, queue/batch records, stage
    timers — against the real file-backed write path.  Three O_APPEND
    writes per request here versus amortised fractions of a write in
    the real batched path, so the result overstates the true cost.
    """
    start = time.process_time()
    for _ in range(iters):
        ctx = obs_trace.start_trace()
        t0 = time.perf_counter()
        obs_trace.write_span("gateway.submit", ctx, t0, time.perf_counter(),
                             {"lane": "interactive", "request_id": "r-0",
                              "model_id": "deepmvi-0001"})
        batch_ctx = ctx.child()
        obs_trace.write_records([
            obs_trace.span_record("gateway.queue", ctx.child(), t0,
                                  time.perf_counter(),
                                  {"lane": "interactive"}),
            obs_trace.span_record("gateway.batch", batch_ctx, t0,
                                  time.perf_counter(),
                                  {"batch_size": 8, "lane": "interactive",
                                   "fast_lane": False}),
        ])
        with obs_trace.activate(batch_ctx):
            with obs_trace.stage("serve.context_build", batch_size=8):
                pass
            with obs_trace.stage("serve.forward", batch_size=8):
                pass
        obs_trace.write_span("serve.fused_forward", batch_ctx.child(), t0,
                             time.perf_counter(),
                             {"batch_size": 8, "fast_path": False,
                              "model_id": "deepmvi-0001"})
    return (time.process_time() - start) / iters * 1e6


def _disabled_hook_ns(iters):
    """ns per tracing hook with tracing disabled (the default state)."""
    start = time.process_time()
    for _ in range(iters):
        obs_trace.start_trace()
        with obs_trace.stage("serve.forward"):
            pass
        with obs_trace.span("serve.impute", None):
            pass
    # three hooks per iteration
    return (time.process_time() - start) / (3 * iters) * 1e9


def test_obs_overhead(results_dir, tmp_path):
    truth = bench_dataset("airq", seed=0)
    incomplete, _ = apply_scenario(truth, SCENARIO, seed=0)
    service = ImputationService()
    model_id = service.fit(incomplete, method="deepmvi",
                           config=DeepMVIConfig(**SERVING_CONFIG))
    traffic = _traffic(incomplete, truth.n_time)

    # Warm the serving path (lazy fast-path tables, per-shape context
    # templates) so first-call costs stay out of the measured passes.
    for tensor in traffic[0]:
        service.impute(tensor, model_id=model_id)

    saved = (obs_trace.enabled(), obs_trace.sample_rate(),
             obs_trace._trace_dir)
    try:
        obs_trace.configure(trace_dir=tmp_path, enabled=False)

        # -- disabled hooks: the "~0 when disabled" claim --------------- #
        disabled_ns = statistics.median(
            _disabled_hook_ns(MICRO_ITERS) for _ in range(3))

        # -- serving baseline R: the real pipeline, tracing off --------- #
        _run_pass(service, model_id, traffic, sample_rate=1.0)  # warm-up
        baseline = [_run_pass(service, model_id, traffic, sample_rate=1.0)
                    for _ in range(SERVING_PASSES)]
        serving_cpu_us = statistics.median(
            cpu for cpu, _ in baseline) * 1e6
        serving_rps = statistics.median(rps for _, rps in baseline)

        # -- traced-request cost T: the real span path, fully sampled --- #
        obs_trace.configure(enabled=True, sample_rate=1.0)
        _traced_request_cpu_us(200)  # warm-up
        traced_cpu_us = statistics.median(
            _traced_request_cpu_us(MICRO_ITERS) for _ in range(3))

        # -- e2e sanity: sampled serving engages and lands spans -------- #
        sampled_cpu, _ = _run_pass(service, model_id, traffic,
                                   sample_rate=SAMPLE_RATE)
        e2e_ratio = serving_cpu_us / max(sampled_cpu * 1e6, 1e-9)
    finally:
        obs_trace.configure(enabled=saved[0], sample_rate=saved[1],
                            trace_dir=saved[2])

    spans = load_spans([tmp_path])
    assert spans, "no spans written — tracing never engaged"
    assert any(span.get("name") == "gateway.batch" and "attrs" in span
               for span in spans), "serving pipeline wrote no batch spans"

    overhead_percent = SAMPLE_RATE * traced_cpu_us / serving_cpu_us * 100
    traced_ratio = (BUDGET * serving_cpu_us) / (SAMPLE_RATE * traced_cpu_us)
    disabled_headroom = HOOK_BUDGET_NS / max(disabled_ns, 1e-9)

    metrics = {
        "obs.serving_cpu_us_per_request": serving_cpu_us,
        "obs.serving_requests_per_sec": serving_rps,
        "obs.traced_request_cpu_us": traced_cpu_us,
        "obs.sampled_overhead_percent": overhead_percent,
        "obs.e2e_sampled_cpu_ratio": e2e_ratio,
        "obs.disabled_hook_ns": disabled_ns,
        "obs.traced_ratio": traced_ratio,
        "obs.disabled_headroom": disabled_headroom,
    }
    lines = [
        f"serving baseline      {serving_cpu_us:>8.1f} us CPU/req "
        f"({serving_rps:.0f} req/sec wall)",
        f"traced request        {traced_cpu_us:>8.1f} us CPU "
        f"-> {overhead_percent:.2f}% of serving at {SAMPLE_RATE:.0%} "
        f"sampling (budget {BUDGET:.0%}, headroom {traced_ratio:.1f}x)",
        f"disabled hook         {disabled_ns:>8.1f} ns "
        f"(budget {HOOK_BUDGET_NS:.0f} ns, "
        f"headroom {disabled_headroom:.1f}x)",
        f"e2e CPU ratio at {SAMPLE_RATE:.0%}  {e2e_ratio:>8.3f} "
        f"(context only; {len(spans)} spans written)",
    ]

    payload = {
        "benchmark": "obs_overhead",
        "fast_mode": is_fast(),
        "workload": {
            "dataset": "airq",
            "method": "deepmvi",
            "window": SERVING_WINDOW,
            "producers": N_PRODUCERS,
            "requests_per_producer": REQUESTS_PER_PRODUCER,
            "serving_passes": SERVING_PASSES,
            "micro_iters": MICRO_ITERS,
            "sample_rate": SAMPLE_RATE,
            "max_batch_size": MAX_BATCH_SIZE,
            "max_wait_ms": MAX_WAIT_MS,
            "scenario": SCENARIO.describe(),
        },
        "metrics": {key: round(float(value), 4)
                    for key, value in sorted(metrics.items())},
        # Dimensionless headroom multiples gated by check_regression.py —
        # host-speed independent, like every other gated benchmark.
        "gate": ["obs.traced_ratio", "obs.disabled_headroom"],
    }
    emit(results_dir, "obs",
         "Tracing overhead: serving cost vs the 5%-at-10%-sampling budget",
         "\n".join(lines))
    (results_dir / "obs.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    record_trajectory("obs_overhead", payload)

    # Acceptance bars: 10%-sampled tracing costs at most 5% of serving
    # CPU (headroom >= 1), and a disabled hook stays under 1us.
    assert traced_ratio >= 1.0, (
        f"10%-sampled tracing costs {overhead_percent:.2f}% of "
        f"per-request serving CPU (bar: <= {BUDGET:.0%})")
    assert disabled_headroom >= 1.0, (
        f"disabled tracing hooks cost {disabled_ns:.0f} ns each "
        f"(bar: <= {HOOK_BUDGET_NS:.0f} ns)")
