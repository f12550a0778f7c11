"""The benchmark workloads and the client that loads them.

Load model: one client process, one generator thread (the caller's).
Completion times come from the futures' done-callbacks, which run on the
gateway's worker thread, so the client adds no threads of its own.  The
serve workload has two kinds of phase:

* **burst** -- queue ``burst_requests`` on a gateway that is not serving
  yet, open it and time the drain; the median over rounds is
  ``throughput_rps``;
* **paced** -- open loop at ``paced_rps``; each request is timed from when
  it was *due*, so a late generator shows up in the latency, and the
  lateness itself is reported.  Requests that arrive one at a time are not
  fused, so the rate is set against one-request service time, well below
  burst capacity.

Untraced runs interleave bursts with paced phases of ``LATENCY_WINDOW_S``
each over the whole run; the median over paced windows of each window's
median is ``latency_p50_ms``.

All sizes and rates live in ``spec.json``.  The fitted data are fixed; the
seed shapes the serving traffic (window offsets, each window's missing
draw, submission order).
"""

from __future__ import annotations

import functools
import json
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from repro.api import ImputationService, ImputeRequest, ModelRef
from repro.cluster import ClusterRouter
from repro.core.config import DeepMVIConfig
from repro.core.imputer import DeepMVIImputer
from repro.data.datasets import load_dataset
from repro.data.missing import MissingScenario, apply_scenario
from repro.data.tensor import TimeSeriesTensor
from repro.exceptions import DeadlineExceededError, QueueFullError, ServiceError
from repro.gateway import Gateway, GatewayConfig

from layers import instrument, layer_metrics
from tracing import Tracer, accounting

#: plain/traced burst pairs in a traced run
TRACED_ROUNDS = 4
#: latency percentiles are taken per window of this many seconds
LATENCY_WINDOW_S = 1.0

SPEC = json.loads((Path(__file__).resolve().parent / "spec.json").read_text())
SCENARIO = MissingScenario(SPEC["scenario"]["name"],
                           dict(SPEC["scenario"]["params"]))


@dataclass
class Options:
    seed: int
    seconds: float
    tiny: bool
    workdir: Path

    def config(self) -> DeepMVIConfig:
        key = "tiny_config" if self.tiny else "config"
        return DeepMVIConfig(**SPEC["model"][key])

    def dataset(self, name: str, data_seed: int) -> TimeSeriesTensor:
        size = SPEC["fitted_data"]["tiny_size"] if self.tiny else "small"
        return load_dataset(name, size=size, seed=data_seed)


@dataclass
class Report:
    """What a workload hands back to ``run.py``."""

    metrics: Dict[str, float] = field(default_factory=dict)
    checks: Dict[str, str] = field(default_factory=dict)
    phases: List["Phase"] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = ("ok" if ok else "FAIL") + \
            (f" ({detail})" if detail else "")


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def windowed_percentile(times: np.ndarray, values: np.ndarray,
                        q: float) -> float:
    """Median over consecutive ``LATENCY_WINDOW_S`` windows of ``times`` of
    the window's ``q``-th percentile of ``values``.

    A host stall inflates the tail of the window it falls in, not the
    whole run's.
    """
    windows = ((times - times[0]) // LATENCY_WINDOW_S).astype(int)
    return float(np.median([np.percentile(values[windows == window], q)
                            for window in np.unique(windows)]))


def _abs_error(answer: TimeSeriesTensor, truth: np.ndarray,
               cells: np.ndarray):
    return np.abs(answer.values[cells] - truth[cells]).sum(), int(cells.sum())


# ---------------------------------------------------------------------- #
# the load generator
# ---------------------------------------------------------------------- #
class Phase:
    """Outcome of one load phase, filled in by the futures' callbacks."""

    def __init__(self, name: str, n: int) -> None:
        self.name = name
        self.due = np.full(n, np.nan)
        self.done = np.full(n, np.nan)
        self.lateness = np.zeros(0)
        self.sent = 0
        self.succeeded = 0
        self.failed = 0
        self.refused = 0
        self.fast_path = 0
        #: when the first request was submitted, and when the timed part
        #: began (a burst is staged before its gateway starts serving)
        self.staged = self.started = 0.0
        self._outstanding = 0
        self._cond = threading.Condition()

    def expect(self) -> None:
        with self._cond:
            self._outstanding += 1
            self.sent += 1

    def finish(self, index: int, slot: int, answers: list, future) -> None:
        end = perf_counter()
        try:
            result = future.result()
        except (QueueFullError, DeadlineExceededError):
            outcome = "refused"
        except ServiceError:
            outcome = "failed"
        else:
            outcome = "ok"
            answers[slot] = result
            self.done[index] = end
        with self._cond:
            if outcome == "ok":
                self.succeeded += 1
                self.fast_path += bool(result.fast_path)
            elif outcome == "refused":
                self.refused += 1
            else:
                self.failed += 1
            self._outstanding -= 1
            if not self._outstanding:
                self._cond.notify_all()

    def refuse(self) -> None:
        with self._cond:
            self.sent += 1
            self.refused += 1

    def wait(self, timeout: float) -> None:
        with self._cond:
            if not self._cond.wait_for(lambda: not self._outstanding,
                                       timeout):
                raise TimeoutError(f"{self.name}: {self._outstanding} "
                                   f"request(s) unanswered after {timeout}s")

    @property
    def wall_s(self) -> float:
        return float(np.nanmax(self.done) - self.started)

    def throughput(self) -> float:
        return self.succeeded / self.wall_s

    def latencies_ms(self) -> np.ndarray:
        ok = ~np.isnan(self.done)
        return (self.done[ok] - self.due[ok]) * 1e3

    def latency_percentile(self, q: float) -> float:
        ok = ~np.isnan(self.done)
        return windowed_percentile(self.due[ok], self.latencies_ms(), q)

    def describe(self) -> str:
        line = (f"phase {self.name:<12} sent {self.sent:>6}  succeeded "
                f"{self.succeeded:>6}  failed {self.failed}  refused "
                f"{self.refused}")
        if self.succeeded and not self.lateness.size:
            line += f"  {self.throughput():.1f} req/s"
        if self.lateness.size:
            late = self.lateness * 1e3
            line += (f"  generator late p50 {np.percentile(late, 50):.3f} ms"
                     f" p99 {np.percentile(late, 99):.3f} ms"
                     f" max {late.max():.3f} ms")
        return line


class Traffic:
    """A fixed pool of requests, submitted in a seeded order."""

    def __init__(self, requests: List[ImputeRequest], truth: List[np.ndarray],
                 cells: List[np.ndarray], rng: np.random.Generator) -> None:
        self.requests = requests
        self.truth = truth
        self.cells = cells
        self.order = rng.permutation(len(requests))
        self.answers: list = [None] * len(requests)
        self._cursor = 0

    def next_slot(self) -> int:
        slot = int(self.order[self._cursor % len(self.order)])
        self._cursor += 1
        return slot

    def mae(self) -> float:
        error = cells = 0
        for answer, truth, mask in zip(self.answers, self.truth, self.cells):
            part, count = _abs_error(answer.completed, truth, mask)
            error += part
            cells += count
        return float(error / cells)


def _submit(gateway: Gateway, traffic: Traffic, phase: Phase,
            index: int) -> None:
    slot = traffic.next_slot()
    try:
        future = gateway.submit(traffic.requests[slot],
                                timeout=SPEC["request_timeout_s"])
    except (QueueFullError, DeadlineExceededError):
        phase.refuse()
        return
    phase.expect()
    # GatewayFuture has no callback hook of its own; the concurrent
    # Future behind it does, and it fires on the worker that completes it.
    future._future.add_done_callback(
        functools.partial(phase.finish, index, slot, traffic.answers))


def burst(service, traffic: Traffic, n: int, name: str) -> Phase:
    """Queue ``n`` requests on a gateway that is not serving yet, open it,
    and time the drain.

    Staging the burst keeps the generator off the interpreter lock while
    the worker drains, so batch formation (and throughput) does not depend
    on how the two threads happen to interleave.
    """
    config = GatewayConfig(**SPEC["gateway"])
    if n > config.max_queue_depth:
        raise ValueError(f"a burst of {n} does not fit the gateway's queue "
                         f"of {config.max_queue_depth}")
    gateway = Gateway(service, config, start=False)
    phase = Phase(name, n)
    phase.staged = perf_counter()
    try:
        for index in range(n):
            _submit(gateway, traffic, phase, index)
        phase.started = perf_counter()
        phase.due[:] = phase.started
        gateway.start()
        phase.wait(SPEC["request_timeout_s"])
    finally:
        gateway.close()
    return phase


def paced(gateway: Gateway, traffic: Traffic, rate: float, seconds: float,
          name: str) -> Phase:
    """Open loop: request ``i`` is due at ``start + i / rate``."""
    n = max(1, int(rate * seconds))
    phase = Phase(name, n)
    phase.lateness = np.zeros(n)
    start = phase.started = perf_counter() + 0.005
    phase.due[:] = start + np.arange(n) / rate
    for index in range(n):
        delay = phase.due[index] - perf_counter()
        if delay > 0:
            time.sleep(delay)
        phase.lateness[index] = perf_counter() - phase.due[index]
        _submit(gateway, traffic, phase, index)
    phase.wait(SPEC["request_timeout_s"])
    return phase


# ---------------------------------------------------------------------- #
# serving workloads
# ---------------------------------------------------------------------- #
@dataclass
class Deployment:
    """One set-up: a fitted model behind a started gateway."""

    service: ImputationService
    gateway: Gateway
    model: ModelRef
    traffic: Traffic
    fit_s: float
    incomplete: TimeSeriesTensor


class ServeWorkload:
    """``serve_fresh``: in-process Gateway -> service.

    After the measured load, copies of the fitted snapshot are driven
    through the gateway's no-lock fast lane (the repeat phase) and checked
    bit for bit; the traced run times that phase per layer.
    """

    name = "serve_fresh"

    def __init__(self, options: Options) -> None:
        self.options = options
        self.constants = SPEC["workloads"][self.name]
        self.report = Report()
        self.warmups: List[Phase] = []

    # -- set-up ------------------------------------------------------------ #
    def setup(self, index: int) -> Deployment:
        """Data, fit (tables included), gateway start and a warm-up burst."""
        source = SPEC["fitted_data"]["serve"]
        truth = self.options.dataset(source["dataset"], source["data_seed"])
        incomplete, _ = apply_scenario(truth, SCENARIO,
                                       seed=source["mask_seed"])
        service = ImputationService()
        start = perf_counter()
        model_id = service.fit(incomplete, method=SPEC["model"]["method"],
                               config=self.options.config())
        fit_s = perf_counter() - start
        model = ModelRef.parse(model_id)
        gateway = Gateway(service, GatewayConfig(**SPEC["gateway"]))
        deployment = Deployment(
            service=service, gateway=gateway, model=model,
            traffic=fresh_windows(truth, model, self.constants["pool"],
                                  self.constants["window"],
                                  np.random.default_rng(
                                      [self.options.seed, 1])),
            fit_s=fit_s, incomplete=incomplete)
        self.warmups.append(burst(service, deployment.traffic,
                                  self.constants["warmup_requests"],
                                  f"warmup{index}"))
        return deployment

    # -- measurement ------------------------------------------------------- #
    def load(self, deployment: Deployment) -> Dict[str, List[Phase]]:
        """Burst rounds and one-window paced phases, interleaved so that
        ``burst_share`` of the time goes to bursts; returns the phases.

        Interleaving makes both metrics sample the whole run: the host's
        speed drifts over seconds, and a metric timed in one stretch of the
        run follows whatever the host did then.
        """
        share = SPEC["burst_share"]
        bursts: List[Phase] = []
        windows: List[Phase] = []
        burst_s = paced_s = 0.0
        stop = perf_counter() + self.options.seconds
        while perf_counter() < stop or len(bursts) < 3 or len(windows) < 3:
            if burst_s * (1 - share) <= paced_s * share:
                phase = burst(deployment.service, deployment.traffic,
                              self.constants["burst_requests"],
                              f"burst{len(bursts)}")
                bursts.append(phase)
                burst_s += phase.wall_s
            else:
                start = perf_counter()
                windows.append(paced(deployment.gateway, deployment.traffic,
                                     self.constants["paced_rps"],
                                     LATENCY_WINDOW_S,
                                     f"paced{len(windows)}"))
                paced_s += perf_counter() - start
        return {"bursts": bursts, "paced": windows}

    def run(self) -> Report:
        report = self.report
        setups, fits = [], []
        deployment = None
        try:
            for index in range(SPEC["setup_repeats"]):
                if deployment is not None:
                    deployment.gateway.close()
                start = perf_counter()
                deployment = self.setup(index)
                setups.append(perf_counter() - start)
                fits.append(deployment.fit_s)
            phases = self.load(deployment)
            peak_mb = peak_rss_mb()
        finally:
            if deployment is not None:
                deployment.gateway.close()
        self.verify(deployment, report)
        repeats = self.repeat(deployment, report)
        bursts, windows = phases["bursts"], phases["paced"]
        report.phases = self.warmups + bursts + windows + repeats
        latencies = np.concatenate([w.latencies_ms() for w in windows])
        report.metrics.update({
            "setup_s": median(setups),
            "fit_s": median(fits),
            "mae": deployment.traffic.mae(),
            "throughput_rps": median(p.throughput() for p in bursts),
            "latency_p50_ms": median(w.latency_percentile(50)
                                     for w in windows),
            "peak_rss_mb": peak_mb,
        })
        p90, p99 = np.percentile(latencies, [90, 99])
        report.notes.append(
            f"paced, pooled over {len(windows)} windows: p90 {p90:.3f} ms, "
            f"p99 {p99:.3f} ms over {latencies.size} requests "
            f"({int((latencies > p99).sum())} beyond p99); setups "
            + ", ".join(f"{s:.3f}" for s in setups) + " s")
        return report

    def run_traced(self) -> Report:
        """Per-layer metrics: plain and traced bursts interleaved, then a
        traced paced phase, the traced repeat phase and the cluster phase."""
        report = self.report
        tracer = Tracer()
        constants = self.constants
        plain, traced = [], []
        # One traced set-up gives the fit's and the table build's numbers.
        instrument(tracer, cluster=False)
        tracer.phase = "setup"
        try:
            deployment = self.setup(0)
        finally:
            tracer.restore()
        try:
            for index in range(TRACED_ROUNDS):
                plain.append(burst(deployment.service, deployment.traffic,
                                   constants["burst_requests"],
                                   f"plain-burst{index}"))
                instrument(tracer, cluster=False)
                tracer.phase = "burst"
                try:
                    traced.append(burst(deployment.service,
                                        deployment.traffic,
                                        constants["burst_requests"],
                                        f"traced-burst{index}"))
                finally:
                    tracer.restore()
            instrument(tracer, cluster=False)
            tracer.phase = "paced"
            try:
                pacing = paced(deployment.gateway, deployment.traffic,
                               constants["paced_rps"],
                               self.options.seconds
                               * (1 - SPEC["burst_share"]), "traced-paced")
            finally:
                tracer.restore()
        finally:
            deployment.gateway.close()
        references = self.verify(deployment, report)
        instrument(tracer, cluster=False)
        tracer.phase = "repeat"
        try:
            repeats = self.repeat(deployment, report)
        finally:
            tracer.phase = "done"
            tracer.restore()
        report.phases = self.warmups + plain + traced + [pacing] + repeats
        store = deployment.service.store
        extras = {
            "api.model_cache_hit_rate": float(
                store.cache_stats()["hit_rate"]),
            "train.epochs": float(
                store.peek(deployment.model.model_id).history.n_epochs),
            "core.fast_path.hit_rate": sum(p.fast_path for p in repeats)
            / max(1, sum(p.succeeded for p in repeats)),
        }
        if references is not None:
            extras.update(ClusterPhase(self, deployment, tracer).run(
                report, references))
        plain_rps = median(p.throughput() for p in plain)
        traced_rps = median(p.throughput() for p in traced)
        windows = [(p.staged, float(np.nanmax(p.done))) for p in traced]
        booked = accounting(tracer, "burst", windows)
        extras.update({
            "trace_overhead_pct": (plain_rps / traced_rps - 1.0) * 100.0,
            "unattributed_ms": booked["unattributed_s"] * 1e3,
        })
        report.metrics.update(layer_metrics(
            tracer, serve=("burst", "paced"), paced="paced",
            fast=("repeat",), fit=("setup",), cluster=("cluster",),
            extras=extras))
        report.notes.extend(describe_accounting("traced bursts", booked))
        return report

    # -- correctness ------------------------------------------------------- #
    def verify(self, deployment: Deployment,
               report: Report) -> Optional[List[np.ndarray]]:
        """Check the answers; returns the reference answers it used."""
        traffic = deployment.traffic
        if not answered_in_full(traffic, report):
            return None
        references = [deployment.service.impute(request).completed.values
                      for request in traffic.requests]
        tolerance = SPEC["tolerances"]
        compare(traffic.answers, references, "serve_fresh_vs_single_impute",
                report)
        reference_error = cells = 0
        for reference, truth, mask in zip(references, traffic.truth,
                                          traffic.cells):
            reference_error += np.abs(reference[mask] - truth[mask]).sum()
            cells += int(mask.sum())
        expected = reference_error / cells
        report.check("mae_recomputed",
                     np.isclose(traffic.mae(), expected,
                                rtol=tolerance["mae_recomputed"]["rtol"],
                                atol=tolerance["mae_recomputed"]["atol"]),
                     f"{traffic.mae():.12g} from answers vs "
                     f"{expected:.12g} from the reference")
        return references

    def repeat(self, deployment: Deployment, report: Report) -> List[Phase]:
        """Dashboard re-polls: bursts of content-identical copies of the
        fitted snapshot, each its own object, which the gateway answers in
        its no-lock fast lane.  Every answer must be bit-identical to the
        full forward with the fast path off."""
        constants = SPEC["repeat"]
        snapshot = deployment.incomplete
        requests = [ImputeRequest(model_id=deployment.model,
                                  data=TimeSeriesTensor(
                                      values=snapshot.values.copy(),
                                      dimensions=list(snapshot.dimensions),
                                      mask=snapshot.mask.copy(),
                                      name=f"snapshot-{slot}"))
                    for slot in range(constants["pool"])]
        traffic = Traffic(requests, [], [], np.random.default_rng(
            [self.options.seed, 3]))
        phases = [burst(deployment.service, traffic,
                        constants["burst_requests"], f"repeat{index}")
                  for index in range(constants["bursts"])]
        if answered_in_full(traffic, report, prefix="repeat_"):
            reference = full_forward(
                deployment.service.store.get(deployment.model.model_id),
                snapshot)
            report.check("repeat_vs_full_forward", all(
                np.array_equal(answer.completed.values, reference)
                for answer in traffic.answers),
                SPEC["tolerances"]["repeat_vs_full_forward"])
        return phases


def full_forward(imputer: DeepMVIImputer,
                 tensor: TimeSeriesTensor) -> np.ndarray:
    """``tensor`` imputed by the same weights with the lookup tables off."""
    state = imputer.get_state()
    state["config"] = dict(state["config"], fast_path="off")
    state["fast_path"] = None
    return DeepMVIImputer().set_state(state).impute(tensor).values


def answered_in_full(traffic: Traffic, report: Report,
                     prefix: str = "") -> bool:
    """Every pool request has an answer that kept its observed cells."""
    missing = sum(answer is None for answer in traffic.answers)
    report.check(f"{prefix}every_pool_request_answered", not missing,
                 f"{missing} unanswered")
    if missing:
        return False
    report.check(f"{prefix}observed_cells_unchanged", all(
        np.array_equal(answer.completed.values[request.data.mask == 1],
                       request.data.values[request.data.mask == 1])
        and np.isfinite(answer.completed.values).all()
        for answer, request in zip(traffic.answers, traffic.requests)))
    return True


def compare(answers, references, key: str, report: Report) -> None:
    """Answers equal the references within the stated tolerance."""
    rtol = SPEC["tolerances"][key]["rtol"]
    atol = SPEC["tolerances"][key]["atol"]
    worst = max(float(np.max(np.abs(answer.completed.values - reference)))
                for answer, reference in zip(answers, references))
    close = all(np.allclose(answer.completed.values, reference, rtol=rtol,
                            atol=atol)
                for answer, reference in zip(answers, references))
    report.check(key, close,
                 f"max |diff| {worst:.3g}, rtol {rtol}, atol {atol}")


def fresh_windows(truth: TimeSeriesTensor, model: ModelRef, pool: int,
                  window: int, rng: np.random.Generator) -> Traffic:
    """``pool`` windows of the ground truth, each with its own missing draw."""
    window = min(window, truth.n_time // 2)
    requests, truths, cells = [], [], []
    for slot in range(pool):
        offset = int(rng.integers(0, truth.n_time - window + 1))
        piece = truth.slice_time(offset, offset + window)
        mask = SCENARIO.generate(piece, seed=int(rng.integers(2 ** 31)))
        requests.append(ImputeRequest(model_id=model,
                                      data=piece.with_missing(mask)))
        truths.append(piece.values)
        cells.append(mask == 1)
    return Traffic(requests, truths, cells, rng)


class ClusterPhase:
    """serve_fresh's traffic through Gateway -> ClusterRouter -> shard.

    Traced only.  A cluster request pays two fsync'd SQLite commits (the
    journal and the results ledger), so its end-to-end numbers follow the
    host's disk more than the code; the layers are timed here instead.
    The in-process model is shipped to its owning shard, so the answers
    must match in-process serving.
    """

    def __init__(self, workload: ServeWorkload, deployment: Deployment,
                 tracer: Tracer) -> None:
        self.workload = workload
        self.deployment = deployment
        self.tracer = tracer
        self.constants = SPEC["cluster"]

    def run(self, report: Report,
            references: List[np.ndarray]) -> Dict[str, float]:
        """Trace the cluster bursts; check them against ``references``."""
        deployment, tracer = self.deployment, self.tracer
        directory = self.workload.options.workdir / "cluster"
        # Forks the shards; no gateway thread may be alive at this point.
        router = ClusterRouter(directory=directory,
                               shards=self.constants["shards"])
        try:
            model_id = deployment.model.model_id
            router.put_model(model_id, deployment.service.store.get(model_id),
                             method=SPEC["model"]["method"])
            # The first requests of the in-process pool, sent in a new order.
            count = self.constants["requests"]
            source = deployment.traffic
            traffic = Traffic(source.requests[:count], source.truth[:count],
                              source.cells[:count], np.random.default_rng(
                                  [self.workload.options.seed, 2]))
            phases = [burst(router, traffic, self.constants["burst_requests"],
                            "cluster-warmup")]
            instrument(tracer, cluster=True)
            tracer.phase = "cluster"
            try:
                while sum(p.succeeded for p in phases) < len(
                        traffic.requests) or len(phases) < 4:
                    phases.append(burst(router, traffic,
                                        self.constants["burst_requests"],
                                        f"cluster-burst{len(phases) - 1}"))
            finally:
                tracer.phase = "done"
                tracer.restore()
            journaled = sum(
                int((info.get("journal") or {}).get("request", 0))
                for info in router.shard_stats().values())
        finally:
            router.close()
            shutil.rmtree(directory, ignore_errors=True)
        report.phases.extend(phases)
        if answered_in_full(traffic, report, prefix="cluster_"):
            compare(traffic.answers, references[:count],
                    "cluster_vs_in_process", report)
        return {"cluster.journal_per_request":
                journaled / sum(p.succeeded for p in phases)}


# ---------------------------------------------------------------------- #
# training workload
# ---------------------------------------------------------------------- #
class TrainWorkload:
    """``ImputationService.fit`` then ``impute`` of the fitted tensors."""

    name = "train"

    def __init__(self, options: Options) -> None:
        self.options = options
        self.report = Report()

    def setup(self):
        datasets = []
        for index, source in enumerate(SPEC["fitted_data"]["train"]):
            truth = self.options.dataset(source["dataset"],
                                         source["data_seed"])
            incomplete, mask = apply_scenario(truth, SCENARIO,
                                              seed=source["mask_seed"])
            datasets.append((source["dataset"], truth, incomplete, mask))
        return ImputationService(), datasets

    def fit_round(self, service, datasets, previous):
        """Fit every dataset once and impute its fitted tensor."""
        for model in previous:
            service.store.discard(model.model_id)
        models, answers, fit_s = [], [], 0.0
        for _, _, incomplete, _ in datasets:
            start = perf_counter()
            model_id = service.fit(incomplete, method=SPEC["model"]["method"],
                                   config=self.options.config())
            fit_s += perf_counter() - start
            model = ModelRef.parse(model_id)
            models.append(model)
            answers.append(service.impute(ImputeRequest(model_id=model))
                           .completed)
        return models, answers, fit_s

    def impute_pairs(self, service, models):
        """Closed loop for ``LATENCY_WINDOW_S``: one request imputes every
        fitted tensor once.  Returns the requests and the share of answers
        served from the fast-path tables."""
        requests = [ImputeRequest(model_id=model) for model in models]
        count = fast = 0
        stop = perf_counter() + LATENCY_WINDOW_S
        while perf_counter() < stop:
            for request in requests:
                fast += service.impute(request).fast_path
            count += 1
        return count, fast / (count * len(models))

    def run(self) -> Report:
        """One request is the researcher's round: fit every dataset, then
        impute its fitted tensor; at least two rounds per run."""
        report = self.report
        setups = []
        for _ in range(SPEC["workloads"]["train"]["setup_repeats"]):
            start = perf_counter()
            service, datasets = self.setup()
            setups.append(perf_counter() - start)
        rounds, models, spent = [], [], 0.0
        while len(rounds) < 2 or spent + rounds[-1][3] <= self.options.seconds:
            start = perf_counter()
            models, answers, fit_s = self.fit_round(service, datasets, models)
            rounds.append((models, answers, fit_s, perf_counter() - start))
            spent += rounds[-1][3]
        self.verify(service, models, datasets,
                    [answers for _, answers, _, _ in rounds], report)
        report.phases = [Fits("rounds", len(rounds))]
        walls = [wall for _, _, _, wall in rounds]
        report.metrics.update({
            "setup_s": median(setups),
            "fit_s": median(fit_s for _, _, fit_s, _ in rounds),
            "mae": pooled_mae(datasets, rounds[0][1]),
            "throughput_rps": len(walls) / sum(walls),
            "latency_p50_ms": median(walls) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        })
        report.notes.append(
            f"rounds {len(rounds)}: fit " + ", ".join(
                f"{fit_s:.3f}" for _, _, fit_s, _ in rounds)
            + " s, wall " + ", ".join(f"{wall:.3f}" for wall in walls)
            + " s; setups " + ", ".join(f"{s:.4f}" for s in setups) + " s")
        return report

    def run_traced(self) -> Report:
        report = self.report
        tracer = Tracer()
        instrument(tracer, False)
        tracer.phase = "setup"
        try:
            service, datasets = self.setup()
        finally:
            tracer.restore()
        start = perf_counter()
        models, first, _ = self.fit_round(service, datasets, [])
        plain_s = perf_counter() - start
        instrument(tracer, False)
        try:
            tracer.phase = "fit"
            start = perf_counter()
            models, answers, _ = self.fit_round(service, datasets, models)
            end = perf_counter()
            epochs = sum(service.store.get(model.model_id).history.n_epochs
                         for model in models)
            tracer.phase = "serve"
            imputes, fast_share = self.impute_pairs(service, models)
            tracer.phase = "done"
        finally:
            tracer.restore()
        self.verify(service, models, datasets, [first, answers], report)
        booked = accounting(tracer, "fit", [(start, end)])
        report.phases = [Fits("rounds", 2),
                         Fits("impute", imputes * len(datasets))]
        report.metrics.update(layer_metrics(
            tracer, serve=("serve",), paced="serve", fast=("serve",),
            fit=("fit",),
            cluster=(), extras={
                "trace_overhead_pct": ((end - start) / plain_s - 1.0) * 100.0,
                "unattributed_ms": booked["unattributed_s"] * 1e3,
                "train.epochs": float(epochs),
                "core.fast_path.hit_rate": fast_share,
                "api.model_cache_hit_rate": float(
                    service.store.cache_stats()["hit_rate"]),
            }))
        report.notes.extend(describe_accounting("traced fit round", booked))
        return report

    def verify(self, service, models, datasets, rounds,
               report: Report) -> None:
        """``rounds``: each fit round's answers, in dataset order."""
        first, last = rounds[0], rounds[-1]
        report.check("fit_is_deterministic", all(
            np.array_equal(a.values, b.values)
            for answers in rounds[1:] for a, b in zip(first, answers)))
        report.check("observed_cells_unchanged", all(
            np.array_equal(answer.values[incomplete.mask == 1],
                           incomplete.values[incomplete.mask == 1])
            and np.isfinite(answer.values).all()
            for (_, _, incomplete, _), answer in zip(datasets, first)))
        report.check("fitted_impute_vs_full_forward", all(
            np.array_equal(answer.values, full_forward(
                service.store.get(model.model_id), incomplete))
            for model, (_, _, incomplete, _), answer
            in zip(models, datasets, last)), "bit-identical")


@dataclass
class Fits:
    """Failure accounting for the train workload's operations."""

    name: str
    sent: int
    failed: int = 0
    refused: int = 0

    @property
    def succeeded(self) -> int:
        return self.sent - self.failed - self.refused

    def describe(self) -> str:
        return (f"phase {self.name:<12} sent {self.sent:>6}  succeeded "
                f"{self.succeeded:>6}  failed {self.failed}  refused "
                f"{self.refused}")


def pooled_mae(datasets, answers) -> float:
    error = cells = 0
    for (_, truth, _, mask), answer in zip(datasets, answers):
        part, count = _abs_error(answer, truth.values, mask == 1)
        error += part
        cells += count
    return float(error / cells)


def describe_accounting(label: str, booked: Dict[str, object]) -> List[str]:
    wall = booked["wall_s"]
    lines = [f"accounting {label}: wall {wall * 1e3:.1f} ms = sum(self) "
             f"{sum(booked['self_s'].values()) * 1e3:.1f} ms - overlap "
             f"{booked['overlap_s'] * 1e3:.1f} ms + unattributed "
             f"{booked['unattributed_s'] * 1e3:.1f} ms"]
    for name, seconds in sorted(booked["self_s"].items(),
                                key=lambda item: -item[1]):
        lines.append(f"  self {name:<28} {seconds * 1e3:>10.2f} ms "
                     f"{seconds / wall * 100:>6.1f}%")
    return lines


WORKLOADS = {
    "train": TrainWorkload,
    "serve_fresh": ServeWorkload,
}
