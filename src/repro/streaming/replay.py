"""Replay recorded datasets as streams and score every served window.

This is the evaluation counterpart of :class:`~repro.streaming.StreamingService`:
it applies a missing-value scenario to a ground-truth dataset, feeds the
incomplete tensor through the windowed serving path, and scores each
completed window against the hidden truth — per-window MAE, per-window
latency, and end-to-end throughput (windows/sec).  Multi-stream replays
give each stream its own scenario seed, so concurrent streams carry
distinct failure patterns of identical cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.data.datasets import load_dataset
from repro.data.missing import MissingScenario, apply_scenario
from repro.data.tensor import TimeSeriesTensor
from repro.evaluation.metrics import mae
from repro.streaming.service import StreamingService, StreamWindowResult
from repro.streaming.windows import WindowedStream

__all__ = ["ReplayReport", "WindowScore", "replay"]


@dataclass
class WindowScore:
    """One served window with its accuracy and cost."""

    stream_id: str
    window_index: int
    start: int
    stop: int
    mae: float
    latency_seconds: float
    refit: bool
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class ReplayReport:
    """Outcome of one stream replay."""

    rows: List[WindowScore] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    n_streams: int = 1
    method: str = ""
    scenario: str = ""

    @property
    def windows(self) -> int:
        return len(self.rows)

    @property
    def failures(self) -> int:
        return sum(1 for row in self.rows if not row.ok)

    @property
    def refits(self) -> int:
        return sum(1 for row in self.rows if row.refit)

    @property
    def windows_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.windows / self.elapsed_seconds

    @property
    def mean_mae(self) -> float:
        """Mean of the finite per-window MAEs (nan when none are finite)."""
        scores = [row.mae for row in self.rows if np.isfinite(row.mae)]
        return float(np.mean(scores)) if scores else float("nan")

    def describe(self) -> str:
        return (f"{self.windows} windows over {self.n_streams} stream(s) in "
                f"{self.elapsed_seconds:.2f}s ({self.windows_per_second:.1f} "
                f"windows/sec); mean MAE "
                f"{self.mean_mae:.3f}, {self.refits} refits, "
                f"{self.failures} failures")

    def to_record(self) -> Dict[str, object]:
        """JSON-safe summary (per-window rows included)."""
        return {
            "method": self.method,
            "scenario": self.scenario,
            "n_streams": self.n_streams,
            "windows": self.windows,
            "failures": self.failures,
            "refits": self.refits,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "windows_per_second": round(self.windows_per_second, 3),
            "mean_mae": None if not np.isfinite(self.mean_mae)
            else round(self.mean_mae, 5),
            "rows": [{
                "stream": row.stream_id,
                "window": row.window_index,
                "span": [row.start, row.stop],
                "mae": None if not np.isfinite(row.mae) else round(row.mae, 5),
                "latency_seconds": round(row.latency_seconds, 5),
                "refit": row.refit,
                "ok": row.ok,
            } for row in self.rows],
        }


def _coerce_scenario(scenario: Union[str, MissingScenario]) -> MissingScenario:
    if isinstance(scenario, MissingScenario):
        return scenario
    return MissingScenario(str(scenario), {})


def _window_score(result: StreamWindowResult, truth: TimeSeriesTensor,
                  missing_mask: np.ndarray) -> WindowScore:
    """Score one served window on the scenario cells inside its span."""
    error = float("nan")
    if result.ok:
        mask_slice = missing_mask[..., result.start:result.stop]
        if mask_slice.sum() > 0:
            truth_slice = truth.slice_time(result.start, result.stop)
            error = mae(result.completed, truth_slice, mask_slice)
    return WindowScore(
        stream_id=result.stream_id,
        window_index=result.window_index,
        start=result.start,
        stop=result.stop,
        mae=error,
        latency_seconds=result.latency_seconds,
        refit=result.refit,
        error=result.error,
    )


def replay(dataset: Union[str, TimeSeriesTensor],
           method: str = "interpolation",
           scenario: Union[str, MissingScenario] = "drift_outage",
           window_size: int = 48, stride: Optional[int] = None,
           refit_every: int = 8, max_history: Optional[int] = 512,
           n_streams: int = 1,
           store_dir: Optional[str] = None, size: str = "tiny",
           seed: int = 0, service: Optional[StreamingService] = None,
           **method_kwargs) -> ReplayReport:
    """Replay a dataset as ``n_streams`` concurrent windowed streams.

    Each stream applies ``scenario`` to the ground truth with its own seed
    (``seed + k``), so concurrent streams carry distinct failure patterns
    of identical cost.  Returns a :class:`ReplayReport` with per-window MAE
    (scored only on the scenario's hidden cells inside each window's span),
    per-window latency and overall windows/sec.
    """
    truth = dataset if isinstance(dataset, TimeSeriesTensor) \
        else load_dataset(dataset, size=size, seed=seed)
    scenario = _coerce_scenario(scenario)

    svc = service or StreamingService(
        store_dir=store_dir,
        default_refit_every=refit_every, default_max_history=max_history)
    streams: Dict[str, WindowedStream] = {}
    masks: Dict[str, np.ndarray] = {}
    for k in range(max(1, n_streams)):
        stream_id = f"s{k}"
        incomplete, missing_mask = apply_scenario(truth, scenario,
                                                  seed=seed + k)
        streams[stream_id] = WindowedStream.from_tensor(
            incomplete, window_size=window_size, stride=stride)
        masks[stream_id] = missing_mask
        svc.open_stream(stream_id, method=method, refit_every=refit_every,
                        max_history=max_history, **method_kwargs)

    start = time.perf_counter()
    served = svc.run(streams)
    elapsed = time.perf_counter() - start

    report = ReplayReport(
        elapsed_seconds=elapsed, n_streams=len(streams), method=method,
        scenario=scenario.describe())
    for stream_id in sorted(served):
        for result in served[stream_id]:
            report.rows.append(
                _window_score(result, truth, masks[stream_id]))
    return report
