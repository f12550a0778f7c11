"""Streaming serving: many concurrent streams over one imputation service.

:class:`StreamingService` is the serving layer for live traffic.  Each
registered stream owns a model in the wrapped
:class:`~repro.api.ImputationService` (fitted on that stream's bounded
history, refreshed every ``refit_every`` windows); each serving *step*
takes the next pending window of every stream and pushes them through the
service's micro-batched ``submit``/``gather`` path, so

* the windows queued against one model are fused into one serving batch,
  and
* a failure is isolated to its stream and window — a poisoned window
  produces one failed :class:`StreamWindowResult` while every other
  stream's window in the same step completes normally.

Methods with a serving fast path (:mod:`repro.core.fast_path`) compose
with the refit cadence: fit DeepMVI with
``DeepMVIConfig(fast_path="background")`` and every refit-every-K model
spawns its table build off-thread — windows keep serving through the full
forward (stale-but-correct) until the tables land, at which point repeat
traffic drops to table lookups.  :meth:`StreamingService.wait_for_fast_path`
waits that gap out when determinism matters more than latency.

The typical loop::

    svc = StreamingService(store_dir="models/")
    svc.open_stream("plant-a", method="svdimp", refit_every=8)
    svc.open_stream("plant-b", method="interpolation")
    for window_a, window_b in zip(stream_a, stream_b):
        svc.push("plant-a", window_a)
        svc.push("plant-b", window_b)
        for result in svc.step():
            ...                       # result.completed, result.latency_seconds

or, for finite replays, simply ``svc.run({"plant-a": stream_a, ...})``.
"""

from __future__ import annotations

import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, Iterator, List, Mapping, Optional, \
    Union

from repro.analysis.lockcheck import checked_lock, guarded_by
from repro.api.refs import ModelRef, warn_bare_model_id
from repro.api.requests import ImputeRequest, check_model_id
from repro.api.service import ImputationService
from repro.api.telemetry import MetricsSnapshot, rate
from repro.baselines.registry import ImputerRegistry, get_registry
from repro.data.tensor import TimeSeriesTensor
from repro.exceptions import ServiceError, ValidationError
from repro.streaming.imputer import refit_due
from repro.streaming.windows import HistoryBuffer, StreamWindow, WindowedStream

__all__ = ["StreamState", "StreamWindowResult", "StreamingService"]

#: sentinel distinguishing "argument omitted" from an explicit ``None``
#: (``max_history=None`` legitimately means an unbounded history)
_UNSET: object = object()


@dataclass
class StreamWindowResult:
    """Outcome of serving one window of one stream."""

    stream_id: str
    window_index: int
    start: int
    stop: int
    completed: Optional[TimeSeriesTensor] = None
    #: end-to-end serving latency of this window (queue wait inside the
    #: sweep + its share of the compute)
    latency_seconds: float = 0.0
    #: True when this window triggered an incremental refit
    refit: bool = False
    #: wall-clock of that refit (0 when ``refit`` is False)
    refit_seconds: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.completed is not None


@dataclass
class StreamState:
    """Book-keeping for one open stream."""

    stream_id: str
    method: str
    method_kwargs: Dict[str, object] = field(default_factory=dict)
    refit_every: int = 8
    history: HistoryBuffer = field(default_factory=HistoryBuffer)
    model_id: Optional[str] = None
    #: True when ``model_id`` was fitted by the streaming service itself
    #: (and may therefore be evicted on refit); False for warm-start models
    #: owned by the caller.
    model_owned: bool = False
    windows_since_fit: int = 0
    windows_served: int = 0
    refits: int = 0
    #: window index -> error traceback for windows that failed
    errors: Dict[int, str] = field(default_factory=dict)
    pending: List[StreamWindow] = field(default_factory=list)
    closed: bool = False

    def describe(self) -> Dict[str, object]:
        return {
            "stream_id": self.stream_id,
            "method": self.method,
            "model_id": self.model_id,
            "windows_served": self.windows_served,
            "refits": self.refits,
            "failures": len(self.errors),
            "history_steps": self.history.steps,
            "closed": self.closed,
        }


@guarded_by("_telemetry_lock", "_completed", "_failed", "_fused_completed",
            "_fast_path_completed", "_latencies")
class StreamingService:
    """Serve per-window impute requests for many concurrent streams.

    Parameters
    ----------
    service:
        The :class:`~repro.api.ImputationService` to serve through; built
        from ``store_dir`` when omitted.
    store_dir:
        Model-store directory, so fitted stream models persist.
    default_refit_every / default_max_history:
        Stream defaults, overridable per :meth:`open_stream`.
    """

    def __init__(self, service: Optional[ImputationService] = None,
                 store_dir: Optional[str] = None,
                 registry: Optional[ImputerRegistry] = None,
                 default_refit_every: int = 8,
                 default_max_history: Optional[int] = 512) -> None:
        self.registry = registry or get_registry()
        self.service = service or ImputationService(
            store_dir=store_dir, registry=self.registry)
        self.default_refit_every = default_refit_every
        self.default_max_history = default_max_history
        self._streams: Dict[str, StreamState] = {}
        # telemetry behind stats(): window outcomes across every stream.
        # Guarded (lockcheck-instrumented, like GatewayMetrics) because a
        # stats() poll may run concurrently with a step() when the service
        # is driven next to a gateway worker pool.
        self._telemetry_lock = checked_lock(
            "StreamingService._telemetry_lock")
        self._started_at = time.perf_counter()
        self._completed = 0
        self._failed = 0
        self._fused_completed = 0
        self._fast_path_completed = 0
        self._latencies: Deque[float] = deque(maxlen=4096)

    # -- stream lifecycle ----------------------------------------------- #
    def open_stream(self, stream_id: str, method: Optional[str] = None,
                    refit_every: Optional[int] = None,
                    max_history: Union[int, None, object] = _UNSET,
                    warm_start=None,
                    **method_kwargs) -> StreamState:
        """Register a stream; returns its (mutable) state record.

        ``warm_start`` names a model already in the wrapped service's
        store — a :class:`~repro.api.refs.ModelRef` or a (deprecated)
        legacy id string: the stream serves from it immediately instead of
        fitting on its first window (combine with ``refit_every=0`` to
        never refit).  A floating ref (``ModelRef.latest``/bare id) keeps
        following the lineage's serving pointer, so a canary promotion
        reroutes the stream's traffic to the new version.
        ``method`` defaults to the warm-start model's recorded method (so
        incremental refits keep training the same model family), or to
        ``"interpolation"`` for cold streams.  ``max_history=None`` keeps
        an unbounded refit history; omit it for the service default.
        A closed stream's id may be reopened — the new stream starts
        fresh, and the closed stream's own model is dropped from the
        store.  Methods not tagged ``streaming`` in the registry are
        allowed but warned about — their refits rerun full training on
        every trigger.
        """
        check_model_id(stream_id, label="stream_id")
        existing = self._streams.get(stream_id)
        if existing is not None:
            if not existing.closed:
                raise ValidationError(
                    f"stream {stream_id!r} is already open")
            self._evict_owned_model(existing)
        warm_concrete = None
        if warm_start is not None:
            warn_bare_model_id(warm_start,
                               where="open_stream(warm_start=...)",
                               stacklevel=3)
            warm_ref = ModelRef.parse(warm_start)
            warm_concrete = self.service.resolve_ref(warm_ref)
            if warm_concrete not in self.service.store:
                raise ServiceError(
                    f"warm-start model {warm_start!r} is not in the service "
                    "store; fit() it first or pass a store_dir that has it")
            # Floating refs keep the stream on the lineage's *base* id so
            # every step re-resolves ``@latest`` (a canary promotion
            # reroutes traffic); pinned refs freeze the concrete version.
            if not warm_ref.pinned:
                warm_concrete = warm_ref.model_id
        if method is None:
            method = (self.service.store.method_for(
                self.service.resolve_ref(warm_concrete))
                if warm_concrete is not None else None) or "interpolation"
        info = self.registry.info(method)
        if "streaming" not in info.tags:
            warnings.warn(
                f"method {info.name!r} is not tagged streaming-capable; "
                "incremental refits will rerun full training "
                "(see list_method_infos(tags=('streaming',)))",
                UserWarning, stacklevel=2)
        refit_every = self.default_refit_every if refit_every is None \
            else refit_every
        if refit_every < 0:
            raise ValidationError(
                f"refit_every must be >= 0, got {refit_every}")
        if max_history is _UNSET:
            max_history = self.default_max_history
        state = StreamState(
            stream_id=stream_id, method=info.name,
            method_kwargs=dict(method_kwargs), refit_every=refit_every,
            history=HistoryBuffer(max_history=max_history),
            model_id=warm_concrete,
        )
        self._streams[stream_id] = state
        return state

    def close_stream(self, stream_id: str) -> StreamState:
        """Mark a stream closed; its pending windows are discarded."""
        state = self._state(stream_id)
        state.closed = True
        state.pending.clear()
        return state

    def streams(self) -> List[str]:
        return sorted(self._streams)

    def describe(self) -> Dict[str, object]:
        """Serving-state snapshot across all streams."""
        return {
            "streams": {sid: state.describe()
                        for sid, state in sorted(self._streams.items())},
            "service": self.service.describe(),
        }

    def stats(self) -> MetricsSnapshot:
        """Window-serving telemetry in the shared snapshot shape.

        The same typed :class:`~repro.api.telemetry.MetricsSnapshot` the
        gateway and the cluster router return, so the canary controller
        (and dashboards) read one surface regardless of tier.  Counters
        cover every stream: QPS is completed windows per second of uptime,
        ``queue_depth`` is windows pushed but not yet stepped, percentiles
        come from the per-window end-to-end latencies.  A cold service
        snapshots as all zeros.
        """
        from repro.gateway.metrics import percentile

        uptime = max(time.perf_counter() - self._started_at, 1e-9)
        # One critical section copies every counter, so a concurrent step()
        # can never produce a torn pair (e.g. a fusion rate above 1.0);
        # percentiles and rates are computed outside the lock.
        with self._telemetry_lock:
            completed = self._completed
            failed = self._failed
            fused_completed = self._fused_completed
            fast_path_completed = self._fast_path_completed
            latencies = list(self._latencies)
        pending = sum(len(state.pending) for state in self._streams.values()
                      if not state.closed)
        refits = sum(state.refits for state in self._streams.values())
        return MetricsSnapshot(
            source="streaming",
            uptime_seconds=uptime,
            submitted=completed + failed + pending,
            completed=completed,
            failed=failed,
            in_flight=pending,
            qps=rate(completed, uptime),
            latency_p50_seconds=percentile(latencies, 50.0),
            latency_p95_seconds=percentile(latencies, 95.0),
            latency_p99_seconds=percentile(latencies, 99.0),
            fusion_rate=rate(fused_completed, completed),
            fast_path_hit_rate=rate(fast_path_completed, completed),
            queue_depth=pending,
            extras={
                "streams": len([s for s in self._streams.values()
                                if not s.closed]),
                "refits": refits,
            },
        )

    # -- serving -------------------------------------------------------- #
    def push(self, stream_id: str, window: StreamWindow) -> None:
        """Queue ``window`` on its stream for the next :meth:`step`."""
        state = self._state(stream_id)
        if state.closed:
            raise ServiceError(f"stream {stream_id!r} is closed")
        state.pending.append(window)

    def step(self, max_windows: int = 1,
             gateway=None) -> List[StreamWindowResult]:
        """Serve pending windows of every stream, micro-batched together.

        Refits (when due) run first, serially in this process — they are
        rare by construction.  The impute requests of every stream then go
        through one ``submit``/``gather`` sweep of the wrapped service, so
        the windows queued against one model are **fused** into shared
        forward calls.

        ``max_windows`` bounds how many pending windows each stream serves
        in this step: the default ``1`` keeps the historical one-window
        cadence, while a backlogged caller can drain ``max_windows=K`` (or
        ``max_windows=0`` for *all* pending windows) per stream in a single
        fused sweep.  A model superseded by a mid-step refit is retired only
        after the sweep, so windows already queued against it still serve.

        ``gateway`` routes the step's windows through a running
        :class:`repro.gateway.Gateway` instead of the service's own
        submit/gather sweep: the windows enter the gateway's ``"batch"``
        lane (so a backlog drain never starves live interactive traffic),
        its adaptive batcher fuses them with whatever else is in flight,
        and this call blocks until every window of the step resolves.  The
        gateway must front this streaming service's own
        :class:`~repro.api.ImputationService`.

        Failures never propagate across streams: each becomes a per-window
        error result.

        The wrapped service's submit/gather queue belongs to this streaming
        service: a foreign request queued directly on it would be drained
        by this step and its result silently lost, so that state is
        rejected up front.
        """
        if gateway is not None:
            if gateway.service is not self.service:
                raise ServiceError(
                    "the gateway fronts a different backend than this "
                    "streaming service; build it over the same "
                    "ImputationService (Gateway(streaming.service, ...))")
            if not gateway.running:
                # step() blocks on the gateway's futures; without a worker
                # pool they would never resolve and the step would hang.
                raise ServiceError(
                    "the gateway's worker pool is not running; call "
                    "gateway.start() before routing a step through it")
        if self.service.pending_count():
            raise ServiceError(
                f"the wrapped ImputationService has "
                f"{self.service.pending_count()} foreign pending request(s); "
                "StreamingService owns its service's submit/gather queue — "
                "gather() them first or use a dedicated service")
        if max_windows < 0:
            raise ValidationError(
                f"max_windows must be >= 0, got {max_windows}")
        active: List[StreamWindowResult] = []
        requests: Dict[str, StreamWindowResult] = {}
        futures: Dict[str, object] = {}
        retired: List[str] = []
        for state in self._streams.values():
            if state.closed or not state.pending:
                continue
            take = len(state.pending) if max_windows == 0 \
                else min(max_windows, len(state.pending))
            windows = [state.pending.pop(0) for _ in range(take)]
            for window in windows:
                result = StreamWindowResult(
                    stream_id=state.stream_id, window_index=window.index,
                    start=window.start, stop=window.stop)
                active.append(result)
                if state.refit_every or state.model_id is None:
                    # Warm-start streams that never refit skip the history
                    # copy: nothing would ever read it.
                    state.history.absorb(window)
                state.windows_since_fit += 1
                try:
                    # Refit *and* submit failures stay on their stream: a
                    # submit that raises (e.g. the model was pruned from a
                    # shared store, or the gateway queue is full) must
                    # neither abort the step nor strand the sibling
                    # requests already queued.
                    if self._needs_refit(state):
                        result.refit = True
                        result.refit_seconds = self._refit(state, retired)
                    request_id = f"{state.stream_id}.w{window.index:06d}"
                    # A floating ref, not the bare string: versioned
                    # lineages re-resolve ``@latest`` per step (canary
                    # promotions reroute the stream), unversioned models
                    # resolve to themselves bit-identically — and internal
                    # traffic never draws the bare-string deprecation
                    # warning.
                    request = ImputeRequest(
                        model_id=ModelRef.latest(state.model_id),
                        data=window.tensor,
                        request_id=request_id)
                    if gateway is None:
                        self.service.submit(request)
                    else:
                        futures[request_id] = gateway.submit(
                            request, priority="batch")
                except Exception:
                    import traceback

                    result.error = traceback.format_exc()
                    state.errors[window.index] = result.error
                    with self._telemetry_lock:
                        self._failed += 1
                    continue
                requests[request_id] = result

        if gateway is None:
            served = self.service.gather(raise_on_error=False)
            errors = dict(self.service.last_errors)
        else:
            served, errors = [], {}
            for request_id, future in futures.items():
                try:
                    served.append(future.result())
                except Exception:
                    import traceback

                    errors[request_id] = traceback.format_exc()
        for impute_result in served:
            result = requests.get(impute_result.request_id)
            if result is None:
                continue
            result.completed = impute_result.completed
            result.latency_seconds = impute_result.latency_seconds
            state = self._streams[result.stream_id]
            state.windows_served += 1
            with self._telemetry_lock:
                self._completed += 1
                self._latencies.append(
                    float(impute_result.latency_seconds))
                if impute_result.fused:
                    self._fused_completed += 1
                if impute_result.fast_path:
                    self._fast_path_completed += 1
        for request_id, error in errors.items():
            result = requests.get(request_id)
            if result is None:
                continue
            result.error = error
            self._streams[result.stream_id].errors[result.window_index] = error
            with self._telemetry_lock:
                self._failed += 1
        # A refit mid-step supersedes the stream's previous model; it is
        # dropped only now, after the sweep, because windows accepted before
        # the refit were still queued against it.
        for model_id in retired:
            self._discard_model(model_id)
        return active

    def run(self, streams: Mapping[str, Union[WindowedStream,
                                              Iterable[StreamWindow]]],
            ) -> Dict[str, List[StreamWindowResult]]:
        """Replay finite streams to exhaustion, round-robin.

        Every round pushes the next window of each still-active stream and
        serves them in one micro-batched :meth:`step`; streams of unequal
        length simply drop out of later rounds.  Streams not yet opened are
        opened with the service defaults.  Windows already pushed on *other*
        open streams are served by the same steps and included in the
        returned mapping too.
        """
        iterators: Dict[str, Iterator[StreamWindow]] = {}
        results: Dict[str, List[StreamWindowResult]] = {}
        for stream_id, source in streams.items():
            if stream_id not in self._streams:
                self.open_stream(stream_id)
            iterators[stream_id] = iter(source)
            results[stream_id] = []
        while iterators:
            exhausted = []
            for stream_id, iterator in iterators.items():
                try:
                    self.push(stream_id, next(iterator))
                except StopIteration:
                    exhausted.append(stream_id)
            for stream_id in exhausted:
                del iterators[stream_id]
            if not iterators:
                break
            for result in self.step():
                results.setdefault(result.stream_id, []).append(result)
        # Drain: pre-pushed windows shift serving one round behind the
        # push cadence, so tails may still be queued when the iterators
        # run dry.  step() pops one window per stream per call, so this
        # terminates.
        while any(state.pending and not state.closed
                  for state in self._streams.values()):
            for result in self.step():
                results.setdefault(result.stream_id, []).append(result)
        return results

    # -- internals ------------------------------------------------------ #
    def _state(self, stream_id: str) -> StreamState:
        try:
            return self._streams[stream_id]
        except KeyError:
            known = ", ".join(sorted(self._streams)) or "<none>"
            raise ServiceError(
                f"unknown stream {stream_id!r}; open streams: {known}"
            ) from None

    # -- fast path ------------------------------------------------------ #
    def wait_for_fast_path(self, stream_id: str,
                           timeout: Optional[float] = None) -> bool:
        """Block until the stream's current model has serving tables.

        Streams whose method builds fast-path lookup tables in the
        background (``DeepMVIConfig(fast_path="background")``) serve
        full-forward — stale-but-correct — between a refit and the table
        build landing; this waits that gap out (tests, controlled
        benchmarks).  Returns False when the stream has no fitted model,
        the method has no fast path, or the wait timed out.
        """
        state = self._state(stream_id)
        if state.model_id is None:
            return False
        imputer = self.service.store.peek(state.model_id)
        if imputer is None:
            try:
                imputer = self.service.store.get(state.model_id)
            except ServiceError:
                return False
        waiter = getattr(imputer, "wait_for_fast_path", None)
        if not callable(waiter):
            return False
        return bool(waiter(timeout))

    def _needs_refit(self, state: StreamState) -> bool:
        return refit_due(state.model_id is not None, state.windows_since_fit,
                         state.refit_every)

    def _refit(self, state: StreamState,
               retired: Optional[List[str]] = None) -> float:
        history = state.history.tensor()
        if history is None:
            raise ServiceError(
                f"stream {state.stream_id!r} has no history to fit on")
        model_id = f"{state.stream_id}-r{state.refits:04d}"
        superseded = state.model_id if state.model_owned else None
        state.model_id = self.service.fit(
            history, method=state.method, model_id=model_id,
            **state.method_kwargs)
        state.model_owned = True
        state.refits += 1
        state.windows_since_fit = 0
        if superseded is not None:
            if retired is not None:
                # Deferred retirement: the caller still has requests queued
                # against the superseded model in the current sweep.
                retired.append(superseded)
            else:
                self._discard_model(superseded)
        return self.service.fit_seconds.get(model_id, 0.0)

    def _discard_model(self, model_id: str) -> None:
        """Drop one of *our* fitted models and its serving bookkeeping.

        Keeps the store bounded over long streams: only the newest model
        serves.  Callers guarantee the id was fitted by this streaming
        service — a caller's warm-start model is never touched.
        """
        self.service.store.discard(model_id)
        self.service.fit_counts.pop(model_id, None)
        self.service.fit_seconds.pop(model_id, None)

    def _evict_owned_model(self, state: StreamState) -> None:
        if state.model_owned and state.model_id is not None:
            self._discard_model(state.model_id)
            state.model_id = None
            state.model_owned = False
