"""Fast-path serving throughput: precomputed lookup tables vs full forward.

The fast path (:mod:`repro.core.fast_path`) precomputes per-model lookup
tables at fit/refresh time — pooled transformer hiddens per (series,
window), fine-grained signals and kernel-regression summaries per missing
cell, plus frozen copies of the decode/output parameters — so that
*repeat-snapshot* traffic (requests whose content matches the fitted
tensor: dashboards re-polling, retry storms, replicas warming) is answered
with NumPy gathers and one small matmul instead of a fused forward pass.

This benchmark measures that trade end to end on the same model weights:

* **full forward** — a model fitted with ``fast_path="off"`` serves the
  repeat traffic through the fused forward (the floor the tables beat);
* **cold build** — one ``refresh_fast_path()`` is timed: the price paid
  once per (re)fit, amortised over every warm request after it;
* **warm lookup** — the same traffic against the built tables
  (acceptance bar: **>= 4x** full-forward requests/sec in full mode,
  >= 2x in fast mode where fixed per-request overhead looms larger);
* **hit-rate sweep** — mixes of table-hit and table-miss requests through
  :class:`repro.gateway.Gateway`, reading ``fast_path_hit_rate`` from
  ``Gateway.stats()`` to show telemetry tracks the traffic mix.

Recording runs (``REPRO_BENCH_RECORD=1``) write the results to
``benchmarks/results/fast_path.{txt,json}`` and, at full size, to the
repo-root ``BENCH_fast_path.json`` trajectory artifact.  The CI bench-regression job re-runs this file in
fast mode and gates ``fast_path.warm_speedup`` against
``benchmarks/baselines/fast_path_fast.json`` via
``benchmarks/check_regression.py`` (25% tolerance).
"""

import json
import time

from repro.api import ImputationService
from repro.api.requests import ImputeRequest
from repro.core.config import DeepMVIConfig
from repro.data.missing import MissingScenario, apply_scenario
from repro.data.tensor import TimeSeriesTensor
from repro.gateway import Gateway, GatewayConfig

from benchmarks._harness import bench_dataset, emit, is_fast, record_trajectory


if is_fast():
    DATASET = "airq"
    N_REQUESTS = 16
    TIME_BUDGET = 0.25                # seconds of timing per measurement
    SPEEDUP_FLOOR = 2.0
    SERVING_CONFIG = dict(max_epochs=2, samples_per_epoch=32, patience=1,
                          batch_size=8, n_filters=4, max_context_windows=8)
else:
    DATASET = "airq"
    N_REQUESTS = 32
    TIME_BUDGET = 1.0
    SPEEDUP_FLOOR = 4.0
    SERVING_CONFIG = dict(max_epochs=3, samples_per_epoch=128, patience=2,
                          batch_size=16, n_filters=8,
                          max_context_windows=16)

SCENARIO = MissingScenario("mcar", {"incomplete_fraction": 0.5,
                                    "block_size": 4})
SWEEP_MIXES = (0.0, 0.5, 1.0)


def _throughput(fn, units_per_call: int) -> float:
    """Units/sec of ``fn``, timed over at least ``TIME_BUDGET`` seconds."""
    fn()                                          # warm-up
    calls = 0
    start = time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= TIME_BUDGET:
            return calls * units_per_call / elapsed


def _copy_of(tensor, name):
    """Content-identical tensor, different object — repeat traffic."""
    return TimeSeriesTensor(values=tensor.values.copy(),
                            dimensions=list(tensor.dimensions),
                            mask=tensor.mask.copy(), name=name)


def _perturbed(tensor, name):
    """Same shape, shifted values — guaranteed table miss."""
    return TimeSeriesTensor(values=tensor.values + 1.0,
                            dimensions=list(tensor.dimensions),
                            mask=tensor.mask.copy(), name=name)


def _repeat_traffic(incomplete):
    """Repeat-snapshot requests: fitted-tensor polls + identical copies."""
    return [None if index % 2 == 0
            else _copy_of(incomplete, f"snapshot-{index}")
            for index in range(N_REQUESTS)]


def _serve_all(service, model_id, traffic):
    def run():
        for tensor in traffic:
            service.impute(ImputeRequest(model_id=model_id, data=tensor))
    return run


def test_fast_path_throughput(results_dir):
    metrics = {}
    lines = []
    truth = bench_dataset(DATASET, seed=0)
    incomplete, _ = apply_scenario(truth, SCENARIO, seed=0)
    traffic = _repeat_traffic(incomplete)

    # -- full forward: the same weights with the fast path disabled ----- #
    service = ImputationService()
    off_config = DeepMVIConfig(**SERVING_CONFIG, fast_path="off")
    off_id = service.fit(incomplete, method="deepmvi", config=off_config)
    full_rps = _throughput(_serve_all(service, off_id, traffic),
                           len(traffic))

    # -- cold build: the one-off price of the tables -------------------- #
    warm_config = DeepMVIConfig(**SERVING_CONFIG, fast_path="lazy")
    warm_id = service.fit(incomplete, method="deepmvi", config=warm_config)
    build_start = time.perf_counter()
    info = service.refresh_fast_path(warm_id)
    cold_build_seconds = time.perf_counter() - build_start
    assert info["built"] is True

    # -- warm lookup: the same traffic served from the tables ----------- #
    warm_rps = _throughput(_serve_all(service, warm_id, traffic),
                           len(traffic))
    warm_speedup = warm_rps / max(full_rps, 1e-9)
    metrics["fast_path.full_forward_requests_per_sec"] = full_rps
    metrics["fast_path.warm_requests_per_sec"] = warm_rps
    metrics["fast_path.warm_speedup"] = warm_speedup
    metrics["fast_path.cold_build_seconds"] = cold_build_seconds
    metrics["fast_path.table_build_seconds"] = info["build_seconds"]
    metrics["fast_path.table_nbytes"] = info["nbytes"]
    metrics["fast_path.table_cells"] = info["cells"]
    breakeven = cold_build_seconds * full_rps * warm_speedup / max(
        warm_speedup - 1.0, 1e-9)
    metrics["fast_path.breakeven_requests"] = breakeven
    lines.append(
        f"serving  full forward {full_rps:>8.1f} req/sec   "
        f"warm lookup {warm_rps:>8.1f} req/sec   "
        f"speedup {warm_speedup:.2f}x")
    lines.append(
        f"tables   build {cold_build_seconds * 1e3:>7.1f} ms   "
        f"{info['nbytes'] / 1024:.1f} KiB for {info['cells']} cells   "
        f"pays for itself after ~{breakeven:.0f} warm requests")

    # -- hit-rate sweep through the gateway ----------------------------- #
    for mix in SWEEP_MIXES:
        n_hits = round(N_REQUESTS * mix)
        requests = [
            _copy_of(incomplete, f"hit-{index}") if index < n_hits
            else _perturbed(incomplete, f"miss-{index}")
            for index in range(N_REQUESTS)]
        gateway = Gateway(service, GatewayConfig(max_batch_size=8,
                                                 max_wait_ms=5.0))
        start = time.perf_counter()
        futures = gateway.submit_many(requests, model_id=warm_id)
        results = [future.result(timeout=300.0) for future in futures]
        elapsed = time.perf_counter() - start
        stats = gateway.stats()
        gateway.close()
        assert len(results) == N_REQUESTS
        assert stats["completed"] == N_REQUESTS
        hit_rate = stats["fast_path_hit_rate"]
        label = f"mix{int(mix * 100):03d}"
        metrics[f"fast_path.{label}.hit_rate"] = hit_rate
        metrics[f"fast_path.{label}.requests_per_sec"] = \
            N_REQUESTS / elapsed
        lines.append(
            f"gateway  {mix:>4.0%} hit traffic -> "
            f"fast_path_hit_rate {hit_rate:>4.0%}   "
            f"{N_REQUESTS / elapsed:>8.1f} req/sec")
        # Telemetry must track the offered mix at the extremes; mixed
        # batches may serve hit-cells inside the locked lane, so the
        # middle point is only bounded, not pinned.
        if mix == 0.0:
            assert hit_rate == 0.0
        elif mix == 1.0:
            assert hit_rate == 1.0
        else:
            assert 0.0 < hit_rate < 1.0

    payload = {
        "benchmark": "fast_path",
        "fast_mode": is_fast(),
        "workload": {
            "dataset": DATASET,
            "n_requests": N_REQUESTS,
            "sweep_mixes": list(SWEEP_MIXES),
            "scenario": SCENARIO.describe(),
        },
        "metrics": {key: round(float(value), 4)
                    for key, value in sorted(metrics.items())},
        # Dimensionless ratio gated by benchmarks/check_regression.py:
        # stable across host speeds, unlike absolute requests/sec.
        "gate": ["fast_path.warm_speedup"],
    }
    emit(results_dir, "fast_path",
         "Fast-path serving: precomputed lookup tables vs full forward",
         "\n".join(lines))
    (results_dir / "fast_path.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    record_trajectory("fast_path", payload)

    # Acceptance bar: warm table-hit serving must beat the fused forward
    # by 4x in full mode (2x in fast mode, where the model is tiny and
    # fixed per-request service overhead looms larger).
    assert warm_speedup >= SPEEDUP_FLOOR, (
        f"fast path only {warm_speedup:.2f}x the full forward "
        f"(bar: {SPEEDUP_FLOOR}x)")
