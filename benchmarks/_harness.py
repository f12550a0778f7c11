"""Shared plumbing for the per-figure benchmark modules.

The benchmarks regenerate every table and figure of the paper's evaluation
section at laptop scale: datasets are the synthetic stand-ins at reduced
length, and the deep methods run with reduced capacity/epochs.  Absolute MAE
values therefore differ from the paper; the *shape* of each artefact (which
method wins, by roughly what factor, where the crossovers are) is what the
harness reports and what EXPERIMENTS.md records.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


from repro.baselines.registry import get_registry
from repro.core.config import DeepMVIConfig
from repro.data.datasets import load_dataset
from repro.data.missing import MissingScenario
from repro.data.tensor import TimeSeriesTensor
from repro.engine import (
    DatasetSpec,
    JobSpec,
    MethodSpec,
    ResultCache,
    execute_job,
    make_executor,
)

#: environment overrides: fan benchmark cells out over N processes and/or
#: persist per-cell results so interrupted benchmark runs resume for free
ENV_WORKERS = "REPRO_BENCH_WORKERS"
ENV_CACHE_DIR = "REPRO_BENCH_CACHE"

#: CI smoke switch: shrink every benchmark to collection-can-never-rot
#: sizes (tiny datasets, minimal model capacity) so the whole suite runs
#: in minutes instead of hours
ENV_FAST = "REPRO_BENCH_FAST"


def is_fast() -> bool:
    """True when ``REPRO_BENCH_FAST`` asks for smoke-test sizes."""
    return os.environ.get(ENV_FAST, "") not in ("", "0")


#: record switch: only a run with ``REPRO_BENCH_RECORD=1`` writes the
#: committed ``benchmarks/results/`` files and (at full size) the repo-root
#: ``BENCH_<name>.json`` trajectory artifacts; any other run writes its
#: results to a pytest temp dir and leaves the tree clean
ENV_RECORD = "REPRO_BENCH_RECORD"

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def is_recording() -> bool:
    """True when ``REPRO_BENCH_RECORD`` asks to refresh committed results."""
    return os.environ.get(ENV_RECORD, "") not in ("", "0")


def record_trajectory(name: str, payload: Dict) -> None:
    """Refresh the repo-root ``BENCH_<name>.json`` artifact.

    Only recording runs at full size write it: fast-mode numbers are smoke
    sizes, not the trajectory.
    """
    if is_recording() and not is_fast():
        (REPO_ROOT / f"BENCH_{name}.json").write_text(
            json.dumps(payload, indent=2) + "\n")


#: dataset size preset used throughout the benchmarks
BENCH_SIZE = "tiny" if is_fast() else "small"

#: DeepMVI configuration used by the benchmarks (reduced epochs/capacity
#: relative to the paper, but enough steps to converge at this data scale)
BENCH_DEEPMVI = dict(
    max_epochs=2, samples_per_epoch=64, patience=1, batch_size=16,
    n_filters=8, max_context_windows=16,
) if is_fast() else dict(
    max_epochs=20, samples_per_epoch=512, patience=4, batch_size=32,
    n_filters=16, max_context_windows=64,
)

#: reduced-capacity settings for the other deep baselines
BENCH_DEEP_BASELINES: Dict[str, Dict] = {
    "brits": dict(n_epochs=2, hidden_dim=8, crop_length=24),
    "gpvae": dict(n_epochs=2, hidden_dim=8, latent_dim=4, crop_length=24),
    "transformer": dict(n_epochs=2, model_dim=8, crop_length=48, batch_size=8),
    "mrnn": dict(n_epochs=1, hidden_dim=4, crop_length=16, batch_size=2),
} if is_fast() else {
    "brits": dict(n_epochs=30, hidden_dim=16, crop_length=48),
    "gpvae": dict(n_epochs=40, hidden_dim=16, latent_dim=6, crop_length=48),
    "transformer": dict(n_epochs=30, model_dim=16, crop_length=96, batch_size=16),
    "mrnn": dict(n_epochs=4, hidden_dim=8, crop_length=24, batch_size=2),
}


def build_method(name: str, **config_overrides):
    """Instantiate a method with benchmark-scale settings.

    DeepMVI variant names (``deepmvi1d``, ``deepmvi-no-tt``, ...) resolve
    through the registry, which applies the matching ablation flags.
    """
    key = name.lower()
    if key.startswith("deepmvi"):
        params = dict(BENCH_DEEPMVI)
        params.update(config_overrides)
        return get_registry().create(key, config=DeepMVIConfig(**params))
    kwargs = BENCH_DEEP_BASELINES.get(key, {})
    return get_registry().create(key, **kwargs)


def bench_dataset(name: str, seed: int = 0, length: Optional[int] = None,
                  shape: Optional[Tuple[int, ...]] = None) -> TimeSeriesTensor:
    """Load a benchmark-sized dataset."""
    return load_dataset(name, size=BENCH_SIZE, seed=seed, length=length, shape=shape)


def _bench_job(truth: TimeSeriesTensor, scenario: MissingScenario,
               method: str, seed: int) -> JobSpec:
    """Compile one benchmark cell to an engine job.

    The method label is the benchmark name (e.g. ``deepmvi-no-tt``), not the
    imputer's display name, so result tables keep the paper's variant labels.
    """
    return JobSpec(
        dataset=DatasetSpec.from_tensor(truth),
        scenario=scenario,
        method=MethodSpec(imputer=build_method(method), label=method),
        seed=seed,
    )


def _job_to_row(job: JobSpec, result) -> Dict[str, float]:
    return {
        "dataset": result.dataset,
        "scenario": job.scenario.name,
        "method": result.method,
        "mae": result.mae,
        "runtime": result.runtime_seconds,
        "missing_cells": result.missing_cells,
    }


def evaluate_cell(truth: TimeSeriesTensor, scenario: MissingScenario,
                  method: str, seed: int = 0) -> Dict[str, float]:
    """Run one (dataset, scenario, method) cell and report MAE + runtime."""
    job = _bench_job(truth, scenario, method, seed)
    return _job_to_row(job, execute_job(job, capture_errors=False).result)


def evaluate_grid(datasets: Sequence[str], scenarios: Dict[str, MissingScenario],
                  methods: Sequence[str], seed: int = 0,
                  workers: Optional[int] = None,
                  cache_dir: Optional[str] = None) -> List[Dict[str, float]]:
    """Evaluate every method on every (dataset, scenario) pair.

    Runs through the experiment engine, so figure reproductions pick up
    process-pool parallelism and resumable caching for free — either via the
    ``workers``/``cache_dir`` arguments or the ``REPRO_BENCH_WORKERS`` /
    ``REPRO_BENCH_CACHE`` environment variables.
    """
    if workers is None:
        workers = int(os.environ.get(ENV_WORKERS, "1"))
    if cache_dir is None:
        cache_dir = os.environ.get(ENV_CACHE_DIR) or None
    jobs: List[JobSpec] = []
    for dataset_name in datasets:
        truth = bench_dataset(dataset_name, seed=seed)
        for scenario in scenarios.values():
            for method in methods:
                jobs.append(_bench_job(truth, scenario, method, seed))

    executor = make_executor(workers)
    cache = ResultCache(cache_dir) if cache_dir else None
    job_results = executor.run(jobs, cache=cache)
    if executor.last_report.failed:
        raise RuntimeError(
            f"benchmark grid failed ({executor.last_report.describe()}):\n"
            f"{executor.last_report.failures[0].error}")
    return [_job_to_row(job, job_result.result)
            for job, job_result in zip(jobs, job_results)]


def rows_to_table(rows: Iterable[Dict[str, float]], index: str = "dataset",
                  column: str = "method", value: str = "mae") -> Dict[str, Dict[str, float]]:
    """Pivot raw result rows into ``{index: {column: value}}``."""
    table: Dict[str, Dict[str, float]] = {}
    for row in rows:
        table.setdefault(str(row[index]), {})[str(row[column])] = float(row[value])
    return table


def format_table(table: Dict[str, Dict[str, float]], index_name: str = "dataset",
                 value_format: str = "{:.3f}") -> str:
    """Aligned plain-text rendering of a pivoted table."""
    columns: List[str] = []
    for row in table.values():
        for name in row:
            if name not in columns:
                columns.append(name)
    header = [index_name] + columns
    body = []
    for key, row in table.items():
        body.append([str(key)] + [
            value_format.format(row[name]) if name in row else "-" for name in columns])
    widths = [max(len(line[i]) for line in [header] + body) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(header, widths)),
             "  ".join("-" * w for w in widths)]
    lines += ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)) for line in body]
    return "\n".join(lines)


def emit(results_dir, experiment_id: str, title: str, text: str) -> None:
    """Print a benchmark artefact and persist it under ``results_dir``."""
    banner = f"\n=== {experiment_id}: {title} ===\n{text}\n"
    print(banner)
    path = results_dir / f"{experiment_id}.txt"
    path.write_text(banner.lstrip("\n") + "\n")


def winner_per_row(table: Dict[str, Dict[str, float]]) -> Dict[str, str]:
    """Lowest-value column per row (used for shape-of-result summaries)."""
    return {row_name: min(row, key=row.get) for row_name, row in table.items()}
