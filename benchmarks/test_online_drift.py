"""Online drift recovery: frozen model vs the closed control loop.

The online subsystem's claim is that a drift-triggered refit + canary
rollout recovers imputation quality after a regime change, while leaving
undrifted traffic untouched.  This benchmark replays the *same* drifting
stream (a level shift injected halfway through a real dataset's
timeline) through two arms that start from the same fitted model:

* **static** — the model is frozen; every window is served by the
  version fitted on pre-drift data.
* **online** — :class:`~repro.online.OnlineLoop` watches the stream:
  probe scoring trips the drift budget, a warm-start refit registers the
  next version, the canary shadow-serves it and promotes on the SLO.

Both arms are scored on identical deterministic probe cells (same
stream id, seed and window indices → same hidden mask), so the gap is
attributable to the loop alone.  Reported metrics:
``online.drift_gain`` (post-drift NRMSE ratio static/online, gated —
the loop must keep beating the frozen model), ``online.exactly_once``
(1.0 iff the version journal holds each lifecycle transition exactly
once, gated at face value), plus ungated windows/sec and lifecycle
counters for trajectory tracking.

Recording runs (``REPRO_BENCH_RECORD=1``) write the results to
``benchmarks/results/online.{txt,json}`` and, at full size, to the
repo-root ``BENCH_online.json`` trajectory artifact.
The CI bench-regression job re-runs this file in fast mode and gates
the two metrics against ``benchmarks/baselines/online_fast.json`` via
``benchmarks/check_regression.py``.
"""

import json
import time
import warnings

import numpy as np

from repro.api.refs import ModelRef
from repro.api.requests import ImputeRequest
from repro.data.missing import MissingScenario, apply_scenario
from repro.data.tensor import TimeSeriesTensor
from repro.evaluation.metrics import nrmse
from repro.online import CanaryConfig, DriftConfig, DriftDetector, OnlineLoop
from repro.streaming import StreamingService, WindowedStream

from benchmarks._harness import bench_dataset, emit, is_fast, record_trajectory


SCENARIO = MissingScenario("mcar", {"incomplete_fraction": 0.3,
                                    "block_size": 4})
SHIFT_SIGMA = 6.0
METHOD = "fitted-mean"

if is_fast():
    WINDOW = 16
else:
    WINDOW = 24

DRIFT_CONFIG = DriftConfig(nrmse_budget=2.0, rolling_windows=2,
                           baseline_windows=2, cooldown_windows=2, seed=0)
CANARY_CONFIG = CanaryConfig(min_shadow_samples=1, max_shadow_windows=8)


def make_drifting_stream():
    """A real dataset with a level shift injected at mid-timeline."""
    truth = bench_dataset("airq", seed=0)
    incomplete, _ = apply_scenario(truth, SCENARIO, seed=0)
    _, observed_std = incomplete.observed_mean_std()
    half = incomplete.n_time // 2
    values = incomplete.values.copy()
    values[..., half:] += SHIFT_SIGMA * (observed_std or 1.0)
    drifting = TimeSeriesTensor(values=values,
                                dimensions=list(incomplete.dimensions),
                                mask=incomplete.mask.copy(),
                                name=f"{incomplete.name}-drifting")
    windows = list(WindowedStream.from_tensor(drifting, window_size=WINDOW,
                                              stride=WINDOW))
    return drifting.slice_time(0, half), windows, half


def run_arm(online, store_dir, head, windows):
    """Serve the stream; score @latest on shared deterministic probes."""
    # A short history buffer keeps drift-triggered refits dominated by
    # post-shift windows, so the new version adapts to the new regime
    # instead of averaging it away against stale pre-drift data.
    svc = StreamingService(store_dir=str(store_dir),
                           default_max_history=4 * WINDOW)
    model = svc.service.fit(head, method=METHOD, model_id="online-bench")
    svc.open_stream("online-bench", warm_start=ModelRef.latest(model),
                    refit_every=0)
    loop = OnlineLoop(svc, drift=DRIFT_CONFIG, canary=CANARY_CONFIG)
    if online:
        loop.watch("online-bench")
    scorer = DriftDetector("online-bench", DRIFT_CONFIG)
    scores = {}
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for window in windows:
            loop.push("online-bench", window)
            loop.step()
            probe = scorer.make_probe(window)
            if probe is None:
                continue
            probe_tensor, hidden = probe
            result = svc.service.impute(
                ImputeRequest(model_id=ModelRef.latest("online-bench"),
                              data=probe_tensor))
            scores[window.index] = nrmse(result.completed, window.tensor,
                                         mask=hidden)
    elapsed = time.perf_counter() - start
    return svc, loop, scores, elapsed


def test_online_drift_recovery(results_dir, tmp_path):
    head, windows, half = make_drifting_stream()
    post_shift = [w.index for w in windows if w.start >= half]

    _, _, static_scores, static_elapsed = run_arm(
        False, tmp_path / "static", head, windows)
    svc, loop, online_scores, online_elapsed = run_arm(
        True, tmp_path / "online", head, windows)

    def post_mean(scores):
        vals = [scores[i] for i in post_shift
                if i in scores and np.isfinite(scores[i])]
        return float(np.mean(vals)) if vals else float("nan")

    static_nrmse = post_mean(static_scores)
    online_nrmse = post_mean(online_scores)
    gain = static_nrmse / online_nrmse if online_nrmse > 0 else float("nan")

    journal = svc.service.versions.history("online-bench")
    transitions = [(e["event"], e["version"]) for e in journal]
    exactly_once = float(len(set(transitions)) == len(transitions)
                         and len(journal) > 0)
    serving = svc.service.resolve_ref(ModelRef.latest("online-bench"))
    snap = loop.snapshot()

    metrics = {
        "online.drift_gain": gain,
        "online.exactly_once": exactly_once,
        "online.static_nrmse": static_nrmse,
        "online.online_nrmse": online_nrmse,
        "online.windows_per_second": len(windows) / online_elapsed,
        "online.drift_events": float(snap["drift_events"]),
        "online.refits": float(snap["loop_refits"]),
        "online.promotions": float(snap["promotions"]),
        "online.rollbacks": float(snap["rollbacks"]),
    }
    lines = [
        f"online   {len(windows)} windows of {WINDOW}   "
        f"shift {SHIFT_SIGMA:g} sigma at t={half}   method {METHOD}",
        f"quality  post-drift NRMSE static {static_nrmse:.3f}   "
        f"online {online_nrmse:.3f}   gain {gain:.2f}x",
        f"loop     {snap['drift_events']} drift events   "
        f"{snap['loop_refits']} refits   {snap['promotions']} promotions   "
        f"{snap['rollbacks']} rollbacks   serving {serving!r}",
        f"journal  {len(journal)} transitions   exactly-once "
        f"{'yes' if exactly_once else 'NO'}   "
        f"{len(windows) / online_elapsed:.1f} windows/sec "
        f"(static arm {len(windows) / static_elapsed:.1f})",
    ]
    payload = {
        "benchmark": "online",
        "fast_mode": is_fast(),
        "workload": {
            "dataset": "airq",
            "window": WINDOW,
            "windows": len(windows),
            "shift_sigma": SHIFT_SIGMA,
            "method": METHOD,
            "scenario": SCENARIO.describe(),
        },
        "metrics": {key: round(float(value), 6)
                    for key, value in sorted(metrics.items())},
        # drift_gain is a dimensionless quality ratio (host-independent);
        # exactly_once is pass/fail.  Windows/sec and lifecycle counters
        # are reported, not gated.
        "gate": ["online.drift_gain", "online.exactly_once"],
    }
    emit(results_dir, "online",
         "Online drift recovery: frozen model vs closed control loop",
         "\n".join(lines))
    (results_dir / "online.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    record_trajectory("online", payload)

    assert exactly_once == 1.0, (
        f"duplicate journal transitions: {transitions}")
    assert snap["drift_events"] >= 1, "the level shift must trip the budget"
    assert snap["promotions"] >= 1, "a refit version must be promoted"
    assert gain > 1.1, (
        f"online loop must beat the frozen model post-drift, got "
        f"{gain:.2f}x (static {static_nrmse:.3f} vs online "
        f"{online_nrmse:.3f})")
