"""Streaming throughput: windows/sec of the serial streaming serving path.

The streaming serving path (:mod:`repro.streaming`) micro-batches each
step's windows per model and serves them in process.  This harness replays
a multi-stream workload and reports windows/sec.  (A process-pool arm was
deleted with the pool serving path: it measured 0.33-0.40x serial; see
``benchmarks/README.md``.)

The replayed workload is deliberately compute-heavy per window (SVD
completion with many iterations on long windows) so the number measures
imputation throughput.  Recording runs (``REPRO_BENCH_RECORD=1``) write
the results to ``benchmarks/results/streaming_throughput.{txt,json}``;
the JSON is the artifact the CI bench-smoke job uploads.

Under ``REPRO_BENCH_FAST=1`` the workload shrinks to smoke-test size.
"""

import json

from repro.data.missing import MissingScenario
from repro.streaming import replay

from benchmarks._harness import bench_dataset, emit, is_fast

if is_fast():
    N_STREAMS = 2
    DATASET = "airq"
    WINDOW = 24
    SVD_ITERS = 10
else:
    N_STREAMS = 4
    DATASET = "gas"           # 100 series: SVD per window is genuinely heavy
    WINDOW = 96
    SVD_ITERS = 300

SCENARIO = MissingScenario("correlated_failure",
                           {"incomplete_fraction": 0.5, "block_size": 6,
                            "n_events": 2, "jitter": 2})


def test_streaming_throughput_serial(results_dir):
    truth = bench_dataset(DATASET, seed=0)
    # tol=0 forces every SVD iteration so the per-window cost is constant
    # and the number measures throughput, not early convergence luck.
    report = replay(
        truth, method="svdimp", scenario=SCENARIO,
        window_size=min(WINDOW, truth.n_time), stride=None,
        refit_every=0,            # fit once per stream, then serve
        n_streams=N_STREAMS, seed=0, max_iters=SVD_ITERS, tol=0.0, rank=8)

    assert report.windows > 0
    assert report.failures == 0

    lines = [
        f"workload: {DATASET}, {N_STREAMS} streams x "
        f"{report.windows // N_STREAMS} windows of {WINDOW} steps, "
        f"svdimp(max_iters={SVD_ITERS}, tol=0), {SCENARIO.describe()}",
        f"serial: {report.windows_per_second:8.2f} windows/sec "
        f"(mean MAE {report.mean_mae:.3f})",
    ]
    emit(results_dir, "streaming_throughput",
         "Streaming windows/sec, serial serving path", "\n".join(lines))

    payload = {
        "workload": {
            "dataset": DATASET,
            "n_streams": N_STREAMS,
            "window_size": WINDOW,
            "method": "svdimp",
            "svd_max_iters": SVD_ITERS,
            "scenario": SCENARIO.describe(),
            "fast_mode": is_fast(),
        },
        "serial": report.to_record(),
    }
    (results_dir / "streaming_throughput.json").write_text(
        json.dumps(payload, indent=2) + "\n")


def test_streaming_scenarios_reachable(results_dir):
    """Every live-failure scenario replays through the streaming layer."""
    truth = bench_dataset("airq", seed=1)
    rows = []
    for name in ("drift_outage", "correlated_failure", "periodic_outage"):
        report = replay(truth, method="interpolation", scenario=name,
                        window_size=min(WINDOW, truth.n_time),
                        refit_every=4, n_streams=1, seed=1)
        assert report.windows > 0 and report.failures == 0
        rows.append(f"{name:<20} {report.windows:>4} windows  "
                    f"{report.windows_per_second:>8.1f} w/s  "
                    f"mean MAE {report.mean_mae:.3f}")
    emit(results_dir, "streaming_scenarios",
         "Live-failure scenarios through the streaming layer",
         "\n".join(rows))
