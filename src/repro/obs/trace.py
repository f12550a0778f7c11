"""Request tracing: contexts, spans, and stage profiling hooks.

A :class:`TraceContext` is minted when a request enters the serving stack
(service/gateway ``submit``), stamped on the :class:`~repro.api.ImputeRequest`,
and propagated everywhere the request goes — through the gateway queue and
micro-batcher, across the cluster wire protocol (an optional ``"trace"`` key
in the length-prefixed JSON frames; old peers simply ignore it), and into
shard processes.  Every instrumented stage appends one :class:`Span` record
as a JSON line to a per-process ``traces.jsonl`` using the same ``O_APPEND``
single-write discipline as the result journal
(:mod:`repro.engine.cache`), so concurrent writers —
gateway workers, shard processes — interleave between records, never inside
one.  The ``repro-obs`` CLI (``python -m repro.obs``) re-joins the
per-process files into one span tree per trace id.

Overhead discipline
-------------------
Tracing is **off by default** (``REPRO_TRACE`` unset/``0``) and every hook
collapses to a nearly-free check in that state: requests carry
``trace=None``, :func:`stage` returns a shared no-op context manager, and no
file is ever touched.  When enabled, head-based sampling
(``trace_sample_rate`` / ``REPRO_TRACE_SAMPLE``) decides once at the root —
the decision is derived deterministically from the trace id, not from a
random number generator, so sampling never perturbs seeded experiment
randomness (repro-lint RL001) and all spans of one request share one fate.

All timestamps are ``time.perf_counter()`` (RL002): monotonic, and — as
CLOCK_MONOTONIC on Linux — comparable across the processes of one host,
which is what makes cross-process span trees orderable.
"""

from __future__ import annotations

import json
import json.encoder
import math
import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = [
    "TraceContext",
    "activate",
    "configure",
    "current",
    "enabled",
    "sample_rate",
    "span",
    "span_record",
    "stage",
    "start_trace",
    "trace_path",
    "write_records",
    "write_span",
]

#: environment switches (read once at import; :func:`configure` overrides)
ENV_TRACE = "REPRO_TRACE"
ENV_SAMPLE = "REPRO_TRACE_SAMPLE"
ENV_DIR = "REPRO_TRACE_DIR"

TRACE_FILENAME = "traces.jsonl"


@dataclass(frozen=True)
class TraceContext:
    """Identity of one span within one request's trace.

    ``trace_id`` names the request end to end; ``span_id`` names this
    context's own span; ``parent_id`` links it into the tree.  Contexts are
    immutable — propagation always mints children via :meth:`child` rather
    than mutating in place, so concurrent stages can never race on shared
    identity.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None

    def child(self) -> "TraceContext":
        """A fresh context one level below this one."""
        return TraceContext(trace_id=self.trace_id, span_id=_new_id(),
                            parent_id=self.span_id)

    def to_wire(self) -> Dict[str, object]:
        """JSON-safe encoding for the cluster wire protocol."""
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id}

    @classmethod
    def from_wire(cls, payload: Optional[Dict[str, object]]
                  ) -> Optional["TraceContext"]:
        """Inverse of :meth:`to_wire`; tolerates missing/malformed input."""
        if not isinstance(payload, dict) or "trace_id" not in payload:
            return None
        return cls(trace_id=str(payload["trace_id"]),
                   span_id=str(payload.get("span_id", "")) or _new_id(),
                   parent_id=payload.get("parent_id"))


# Ids come from thread-local PRNGs, each seeded once from ``os.urandom``
# — independent of the seeded numpy experiment streams (RL001), far
# cheaper than drawing entropy per id (``uuid4`` costs one ``urandom``
# syscall per call, which dominates span cost on syscall-slow hosts),
# and lock-free (a shared generator would serialise every producer
# thread on the submit path).  Forked shard processes drop the inherited
# state so parent and child never mint the same id sequence.
_id_rngs = threading.local()


def _drop_inherited_rng() -> None:
    _id_rngs.rng = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_inherited_rng)


def _thread_rng() -> random.Random:
    rng = getattr(_id_rngs, "rng", None)
    if rng is None:
        rng = _id_rngs.rng = random.Random(os.urandom(16))
    return rng


def _new_id() -> str:
    return "%016x" % _thread_rng().getrandbits(64)


def _new_trace_id() -> str:
    return "%032x" % _thread_rng().getrandbits(128)


# ---------------------------------------------------------------------- #
# module state
# ---------------------------------------------------------------------- #
def _env_enabled() -> bool:
    return os.environ.get(ENV_TRACE, "") not in ("", "0")


def _env_sample() -> float:
    raw = os.environ.get(ENV_SAMPLE, "")
    try:
        return min(1.0, max(0.0, float(raw))) if raw else 1.0
    except ValueError:
        return 1.0


_enabled: bool = _env_enabled()
_sample_rate: float = _env_sample()
_trace_dir: str = os.environ.get(ENV_DIR, "") or "."
_local = threading.local()


def configure(enabled: Optional[bool] = None,
              sample_rate: Optional[float] = None,
              trace_dir: Optional[os.PathLike] = None) -> None:
    """Override the environment-derived tracing state at runtime.

    Shard processes call this so their spans land in the shard's own
    directory; tests and benchmarks call it to flip tracing on/off without
    re-importing the world.  Passing ``None`` leaves a setting untouched.
    """
    global _enabled, _sample_rate, _trace_dir
    if enabled is not None:
        _enabled = bool(enabled)
    if sample_rate is not None:
        _sample_rate = min(1.0, max(0.0, float(sample_rate)))
    if trace_dir is not None:
        _trace_dir = os.fspath(trace_dir)
    _close_span_fd()


def enabled() -> bool:
    """True when tracing is armed for this process."""
    return _enabled


def sample_rate() -> float:
    """The process-default head-sampling rate in ``[0, 1]``."""
    return _sample_rate


def trace_path() -> str:
    """Path of this process's span file."""
    return os.path.join(_trace_dir, TRACE_FILENAME)


# ---------------------------------------------------------------------- #
# root sampling
# ---------------------------------------------------------------------- #
def _sampled(trace_id: str, rate: float) -> bool:
    """Deterministic head-sampling decision from the trace id itself.

    The first 8 hex digits of the id map uniformly onto ``[0, 1]``; a
    request is kept when that value falls at or below the rate.  No RNG is
    consumed (RL001) and every process agrees on the verdict.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    return int(trace_id[:8], 16) / 0xFFFFFFFF <= rate


def start_trace(rate: Optional[float] = None) -> Optional[TraceContext]:
    """Mint a root context for a new request, or ``None`` when untraced.

    ``None`` is the no-cost verdict: an unsampled or tracing-disabled
    request carries ``trace=None`` and every downstream hook short-circuits
    on that.  The returned context's own span is the trace root
    (``parent_id is None``); the caller is expected to :func:`write_span`
    it around admission.
    """
    if not _enabled:
        return None
    rate_value = _sample_rate if rate is None else rate
    if rate_value <= 0.0:
        return None
    trace_id = _new_trace_id()
    if not _sampled(trace_id, rate_value):
        return None
    return TraceContext(trace_id=trace_id, span_id=_new_id(), parent_id=None)


# ---------------------------------------------------------------------- #
# span records
# ---------------------------------------------------------------------- #
# One cached O_APPEND descriptor per (pid, trace dir): re-opening the span file
# for every record costs far more than the write itself on hot serving
# paths, so the first write opens and later ones reuse.  Keying on the pid
# keeps a fork-inherited cache entry from being reused by the child (shard
# processes re-point ``_trace_dir`` at their own directory), and
# :func:`configure` drops the entry so tests and benchmarks that redirect
# the trace dir never write to a stale descriptor.  Writes stay single
# ``os.write`` calls on ``O_APPEND`` — the journal discipline (RL004), the
# same guarantee as :func:`repro.engine.cache.append_record_line` — so
# concurrent writers still interleave between records, never inside one.
_span_fd: Optional[int] = None
_span_fd_key: Optional[tuple] = None
_span_fd_lock = threading.Lock()


def _close_span_fd() -> None:
    global _span_fd, _span_fd_key
    with _span_fd_lock:
        if _span_fd is not None:
            try:
                os.close(_span_fd)
            except OSError:
                pass
        _span_fd = None
        _span_fd_key = None


def _append_span_lines(lines: str) -> None:
    global _span_fd, _span_fd_key
    encoded = lines.encode("utf-8")
    key = (os.getpid(), _trace_dir)
    with _span_fd_lock:
        if _span_fd_key != key:
            if _span_fd is not None:
                try:
                    os.close(_span_fd)
                except OSError:
                    pass
            # A pointed-at-but-not-yet-created directory (fresh
            # REPRO_TRACE_DIR, shard-local dirs) is valid configuration.
            os.makedirs(_trace_dir or ".", exist_ok=True)
            _span_fd = os.open(trace_path(),
                               os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            _span_fd_key = key
        fd = _span_fd
    written = os.write(fd, encoded)
    if written < len(encoded):
        view = memoryview(encoded)[written:]
        while view:
            view = view[os.write(fd, view):]


def span_record(name: str, ctx: TraceContext, start: float, end: float,
                attrs: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """The JSON-able record for one finished span (not yet written)."""
    record: Dict[str, object] = {
        "name": name,
        "trace_id": ctx.trace_id,
        "span_id": ctx.span_id,
        "parent_id": ctx.parent_id,
        "start": start,
        "duration": max(0.0, end - start),
        "pid": os.getpid(),
    }
    if attrs:
        record["attrs"] = attrs
    return record


# Span lines are the one hot encode of a traced request, so they skip the
# general-purpose path: ``json.dumps`` builds a fresh encoder per call, and
# float ``repr`` looks for the shortest round-trip digits.  The fixed
# fields of a :func:`span_record` are formatted directly, with times at the
# clock's nanosecond resolution (``%.9f``); ``attrs`` go through one cached
# C encoder, which writes what ``json.dumps`` writes.  A record of any
# other shape falls back to ``json.dumps``.
_c_make_encoder = getattr(json.encoder, "c_make_encoder", None)
if _c_make_encoder is not None:
    _c_encoder = _c_make_encoder(
        None, json.JSONEncoder().default,
        json.encoder.encode_basestring_ascii, None, ": ", ", ",
        False, False, True)

    def _json_text(value: object) -> str:
        return "".join(_c_encoder(value, 0))
else:  # pragma: no cover - interpreters without the _json accelerator
    def _json_text(value: object) -> str:
        return json.dumps(value)

_json_str = json.encoder.encode_basestring_ascii
_SPAN_LINE = ('{"name": %s, "trace_id": %s, "span_id": %s, "parent_id": %s, '
              '"start": %.9f, "duration": %.9f, "pid": %d')


def _span_line(record: Dict[str, object]) -> str:
    """One span record as a JSON line."""
    parent, start, duration = \
        record.get("parent_id"), record.get("start"), record.get("duration")
    attrs = record.get("attrs")
    if len(record) == 7 + (attrs is not None) \
            and type(start) is float and type(duration) is float \
            and math.isfinite(start) and math.isfinite(duration):
        try:
            line = _SPAN_LINE % (
                _json_str(record["name"]), _json_str(record["trace_id"]),
                _json_str(record["span_id"]),
                "null" if parent is None else _json_str(parent),
                start, duration, record["pid"])
        except (KeyError, TypeError):
            pass
        else:
            if attrs is None:
                return line + "}\n"
            return line + ', "attrs": ' + _json_text(attrs) + "}\n"
    return json.dumps(record) + "\n"


def write_records(records) -> None:
    """Append prepared span records with a single ``O_APPEND`` write.

    Hot paths that close several spans at once (the micro-batcher closing
    a whole batch's queue/batch spans) buffer records and flush them here:
    records carry their own timestamps, so deferring the IO never changes
    the reconstructed tree, and one write amortises the per-record cost.
    """
    if not records:
        return
    _append_span_lines(
        "".join([_span_line(record) for record in records]))


def write_span(name: str, ctx: TraceContext, start: float, end: float,
               attrs: Optional[Dict[str, object]] = None) -> None:
    """Append one span record for exactly ``ctx`` to this process's file.

    One JSON line, one ``O_APPEND`` write, so shard processes and gateway
    worker threads can share a file without tearing records.
    """
    _append_span_lines(_span_line(span_record(name, ctx, start, end,
                                              attrs)))


# ---------------------------------------------------------------------- #
# active-context stack (thread-local) and stage hooks
# ---------------------------------------------------------------------- #
def current() -> Optional[TraceContext]:
    """The innermost active context on this thread, if any."""
    stack = getattr(_local, "stack", None)
    return stack[-1] if stack else None


class _Activation:
    """Pushes a context on the thread's activation stack for a block."""

    __slots__ = ("ctx",)

    def __init__(self, ctx: Optional[TraceContext]):
        self.ctx = ctx

    def __enter__(self) -> Optional[TraceContext]:
        if self.ctx is not None:
            stack = getattr(_local, "stack", None)
            if stack is None:
                stack = _local.stack = []
            stack.append(self.ctx)
        return self.ctx

    def __exit__(self, *exc_info):
        if self.ctx is not None:
            _local.stack.pop()
        return False


def activate(ctx: Optional[TraceContext]) -> _Activation:
    """Make ``ctx`` the thread's active context for the block.

    ``None`` is accepted and is a no-op, so call sites never need an
    ``if traced`` branch around the ``with``.  A plain context-manager
    object rather than a generator: it sits on every traced request's
    serving path.
    """
    return _Activation(ctx)


class _NullTimer:
    """Shared do-nothing stand-in returned by disabled stage hooks."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL_TIMER = _NullTimer()


class _StageTimer:
    """Times one stage and writes it as a child span of ``ctx`` on exit."""

    __slots__ = ("name", "ctx", "attrs", "start")

    def __init__(self, name: str, ctx: TraceContext,
                 attrs: Optional[Dict[str, object]]):
        self.name = name
        self.ctx = ctx
        self.attrs = attrs

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        write_span(self.name, self.ctx.child(), self.start,
                   time.perf_counter(), self.attrs)
        return False


def stage(name: str, **attrs: object):
    """Profile one hot stage as a child of the thread's active context.

    The no-op guarantee the hot paths rely on: when tracing is disabled or
    no traced request is active, the returned object is one shared inert
    instance — no allocation beyond the call itself, no clock read, no IO.
    """
    if not _enabled:
        return _NULL_TIMER
    ctx = current()
    if ctx is None:
        return _NULL_TIMER
    return _StageTimer(name, ctx, attrs or None)


def span(name: str, ctx: Optional[TraceContext], **attrs: object):
    """Like :func:`stage` but parented on an explicit context.

    Used where the traced request is in hand (a ``QueuedRequest``, a wire
    entry) rather than on the thread's activation stack.  ``ctx=None``
    yields the shared no-op, so untraced requests cost one ``is None``.
    """
    if ctx is None or not _enabled:
        return _NULL_TIMER
    return _StageTimer(name, ctx, attrs or None)
