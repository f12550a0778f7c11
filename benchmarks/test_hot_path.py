"""Hot-path throughput: vectorised batch assembly and fused serving.

Two hot paths carry essentially all of DeepMVI's steady-state compute:

* **batch assembly** — every training step and every imputation sweep
  builds a :class:`~repro.core.context.Batch`.  The vectorised
  :meth:`~repro.core.sampling.TrainingSampler.sample_batch` is measured
  against the per-sample loop reference
  (:meth:`~repro.core.sampling.TrainingSampler.sample_batch_reference`),
  which consumes identical random draws, so the comparison is pure
  assembly cost;
* **serving** — a micro-batched ``gather()`` sweep fuses the requests'
  missing-cell batches into shared forward calls
  (``DeepMVIImputer.impute_many``).  Requests/sec is measured for
  one-at-a-time ``impute()`` calls and a fused serial ``gather()``.

Recording runs (``REPRO_BENCH_RECORD=1``) write the results to
``benchmarks/results/hot_path.{txt,json}`` and, at full size (no
``REPRO_BENCH_FAST``), to the repo-root ``BENCH_hot_path.json`` — the
committed trajectory artifact.  The CI
bench-regression job re-runs this file in fast mode and compares the
dimensionless gate metrics (speedup ratios, which are stable across host
speeds) against ``benchmarks/baselines/hot_path_fast.json`` via
``benchmarks/check_regression.py`` with a 25% tolerance.
"""

import json
import time

import numpy as np

from repro.api import ImputationService
from repro.core.config import DeepMVIConfig
from repro.core.context import DatasetContext
from repro.core.sampling import MissingShapeSampler, TrainingSampler
from repro.data.missing import MissingScenario, apply_scenario

from benchmarks._harness import bench_dataset, emit, is_fast, record_trajectory


if is_fast():
    ASSEMBLY_DATASET = "gas"          # (100, 64): sibling-heavy assembly
    ASSEMBLY_BATCH_SIZES = (64, 256)
    TIME_BUDGET = 0.25                # seconds of timing per measurement
    SERVING_DATASET = "airq"
    SERVING_WINDOW = 25
    N_REQUESTS = 8
    SERVING_CONFIG = dict(max_epochs=2, samples_per_epoch=32, patience=1,
                          batch_size=8, n_filters=4, max_context_windows=8)
else:
    ASSEMBLY_DATASET = "gas"          # (100, 120)
    ASSEMBLY_BATCH_SIZES = (64, 256)
    TIME_BUDGET = 1.0
    SERVING_DATASET = "airq"
    SERVING_WINDOW = 50
    N_REQUESTS = 32
    SERVING_CONFIG = dict(max_epochs=3, samples_per_epoch=128, patience=2,
                          batch_size=16, n_filters=8, max_context_windows=16)

SCENARIO = MissingScenario("mcar", {"incomplete_fraction": 0.5,
                                    "block_size": 4})


def _throughput(fn, units_per_call: int, budget: float = None) -> float:
    """Units/sec of ``fn``, timed over at least ``budget`` seconds."""
    budget = TIME_BUDGET if budget is None else budget
    fn()                                          # warm-up (JIT-free, but
    calls = 0                                     # populates lazy tables)
    start = time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= budget:
            return calls * units_per_call / elapsed


# ---------------------------------------------------------------------- #
# batch assembly
# ---------------------------------------------------------------------- #
def _assembly_sampler():
    truth = bench_dataset(ASSEMBLY_DATASET, seed=0)
    incomplete, _ = apply_scenario(truth, SCENARIO, seed=3)
    context = DatasetContext(incomplete, window=8, max_context_windows=16)
    shapes = MissingShapeSampler(1.0 - context.avail, context.index_table,
                                 context.dimension_sizes)
    return TrainingSampler(context, shapes, np.random.default_rng(0))


def test_hot_path_throughput(results_dir):
    metrics = {}
    lines = []

    # -- batch assembly: loop reference vs vectorised ------------------- #
    sampler = _assembly_sampler()
    for batch_size in ASSEMBLY_BATCH_SIZES:
        loop = _throughput(lambda: sampler.sample_batch_reference(batch_size),
                           batch_size)
        vectorised = _throughput(lambda: sampler.sample_batch(batch_size),
                                 batch_size)
        speedup = vectorised / max(loop, 1e-9)
        metrics[f"assembly.batch{batch_size}.loop_samples_per_sec"] = loop
        metrics[f"assembly.batch{batch_size}.vectorised_samples_per_sec"] = \
            vectorised
        metrics[f"assembly.batch{batch_size}.speedup"] = speedup
        lines.append(
            f"assembly B={batch_size:<4} loop {loop:>12,.0f} samples/sec   "
            f"vectorised {vectorised:>12,.0f} samples/sec   "
            f"speedup {speedup:.2f}x")

    # -- serving: sequential vs fused ----------------------------------- #
    truth = bench_dataset(SERVING_DATASET, seed=0)
    incomplete, _ = apply_scenario(truth, SCENARIO, seed=0)
    config = DeepMVIConfig(**SERVING_CONFIG)
    # Requests are short windows (streaming-shaped traffic): each has far
    # fewer missing cells than impute_batch_size, which is exactly where
    # fusing forward calls pays.
    windows = []
    for index in range(N_REQUESTS):
        start = (index * SERVING_WINDOW) % (truth.n_time - SERVING_WINDOW)
        window = incomplete.slice_time(start, start + SERVING_WINDOW)
        windows.append(window)

    service = ImputationService()
    model_id = service.fit(incomplete, method="deepmvi", config=config)

    def sequential():
        for window in windows:
            service.impute(window, model_id=model_id)

    def fused():
        for window in windows:
            service.submit(window, model_id=model_id)
        service.gather()

    sequential_rps = _throughput(sequential, len(windows))
    fused_rps = _throughput(fused, len(windows))
    fused_speedup = fused_rps / max(sequential_rps, 1e-9)
    metrics["serving.sequential_requests_per_sec"] = sequential_rps
    metrics["serving.fused_requests_per_sec"] = fused_rps
    metrics["serving.fused_speedup"] = fused_speedup
    lines.append(
        f"serving  sequential {sequential_rps:>8.1f} req/sec   "
        f"fused {fused_rps:>8.1f} req/sec   speedup {fused_speedup:.2f}x")
    payload = {
        "benchmark": "hot_path",
        "fast_mode": is_fast(),
        "workload": {
            "assembly_dataset": ASSEMBLY_DATASET,
            "assembly_batch_sizes": list(ASSEMBLY_BATCH_SIZES),
            "serving_dataset": SERVING_DATASET,
            "serving_window": SERVING_WINDOW,
            "n_requests": N_REQUESTS,
            "scenario": SCENARIO.describe(),
        },
        "metrics": {key: round(float(value), 4)
                    for key, value in sorted(metrics.items())},
        # Dimensionless ratios gated by benchmarks/check_regression.py:
        # stable across host speeds, unlike absolute samples/sec.
        "gate": [
            "assembly.batch64.speedup",
            "assembly.batch256.speedup",
            "serving.fused_speedup",
        ],
    }
    emit(results_dir, "hot_path",
         "Hot-path throughput: batch assembly and fused serving",
         "\n".join(lines))
    (results_dir / "hot_path.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    record_trajectory("hot_path", payload)

    # The vectorised assembler must beat the loop by a wide margin; the
    # acceptance bar is 3x at batch 64.  Fast mode still requires a win but
    # with slack for noisy CI hosts.
    floor = 1.5 if is_fast() else 3.0
    assert metrics["assembly.batch64.speedup"] >= floor, (
        f"vectorised batch assembly regressed: "
        f"{metrics['assembly.batch64.speedup']:.2f}x < {floor}x at B=64")
    # Fused serving must not be slower than one-at-a-time serving.
    assert fused_speedup >= (0.9 if is_fast() else 1.0), (
        f"fused serving slower than sequential: {fused_speedup:.2f}x")
