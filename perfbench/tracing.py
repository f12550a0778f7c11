"""In-memory span recorder that times repro's layers from the outside.

Nothing under ``src/`` is instrumented for this benchmark.  Instead
:class:`Tracer` swaps a module's public function (or a class's public
method) for a wrapper that records one span per call: its name, start,
end and the span that was open on the same thread when it began.  The
originals are put back by :meth:`Tracer.restore`, so an untraced phase
runs exactly the code a user runs.

Spans stay in memory and are folded into per-(phase, name) aggregates as
they close:

* ``calls`` and ``total_s`` (inclusive duration);
* ``self_s`` -- the duration minus the part covered by child spans on the
  same thread, so the self times of one thread's spans sum to the length
  of its outermost spans;
* the outermost ("root") intervals of every thread, from which
  :func:`accounting` derives the wall time no span covers.

Probes -- small callbacks that read a call's arguments or result (batch
sizes, distinct rows, wire bytes) -- run after the wrapped call returns and
are timed as their own ``perfbench.probe`` span, so their cost is charged
to the tracer, not to the layer that was called.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

PROBE_SPAN = "perfbench.probe"


class Tracer:
    """Per-phase span aggregates plus the patches that produce them."""

    def __init__(self) -> None:
        #: label the spans closing now are filed under; set by the workload
        #: between phases, while no request is in flight
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (phase, name) -> [calls, self seconds, inclusive seconds]
        self.spans: Dict[Tuple[str, str], List[float]] = defaultdict(
            lambda: [0, 0.0, 0.0])
        #: phase -> outermost span intervals of every thread
        self.roots: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        #: (phase, key) -> numbers recorded by probes
        self.samples: Dict[Tuple[str, str], List[float]] = defaultdict(list)
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- recording ------------------------------------------------------- #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, stack: list, name: str, start: float, end: float,
               child_s: float) -> None:
        duration = end - start
        with self._lock:
            entry = self.spans[(self.phase, name)]
            entry[0] += 1
            entry[1] += duration - child_s
            entry[2] += duration
            if not stack:
                self.roots[self.phase].append((start, end))
        if stack:
            stack[-1][0] += duration

    def sample(self, key: str, value: float) -> None:
        """Record one number under the current phase."""
        with self._lock:
            self.samples[(self.phase, key)].append(value)

    def wrap(self, name, fn: Callable, probe: Optional[Callable] = None,
             before: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call.

        ``name`` is a span name or a callable mapping the call's
        ``(args, kwargs)`` to one.  ``probe(tracer, start, args, kwargs,
        result)`` runs after the call, inside its own probe span;
        ``before(args, kwargs)`` runs untimed just before it, for stamps
        that must exist before the call can hand its work to another
        thread.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack = self._stack()
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = name(args, kwargs) if callable(name) else name
                self._close(stack, span, start, end, frame[0])
            if probe is not None:
                probe_start = perf_counter()
                probe(self, start, args, kwargs, result)
                self._close(stack, PROBE_SPAN, probe_start, perf_counter(),
                            0.0)
            return result
        return traced

    # -- patching ---------------------------------------------------------- #
    def patch(self, owner, attribute: str, name,
              probe: Optional[Callable] = None,
              before: Optional[Callable] = None) -> None:
        """Replace ``owner.attribute`` (a module or class) with a traced copy."""
        own = attribute in vars(owner)
        original = vars(owner)[attribute] if own else getattr(owner, attribute)
        # Class attributes are read through the descriptor protocol so a
        # classmethod stays bound to its class inside the wrapper.
        target = getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(name, target, probe, before))
        self._patches.append((owner, attribute, original, own))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attribute, original, own = self._patches.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # -- reading ----------------------------------------------------------- #
    def calls(self, phases, name: str) -> int:
        return int(sum(self.spans[(phase, name)][0] for phase in phases
                       if (phase, name) in self.spans))

    def self_s(self, phases, name: str) -> float:
        return sum(self.spans[(phase, name)][1] for phase in phases
                   if (phase, name) in self.spans)

    def total_s(self, phases, name: str) -> float:
        return sum(self.spans[(phase, name)][2] for phase in phases
                   if (phase, name) in self.spans)

    def per_call(self, phases, name: str, scale: float,
                 inclusive: bool = True) -> float:
        """Mean duration of one call, times ``scale``; 0 when never called."""
        calls = self.calls(phases, name)
        if not calls:
            return 0.0
        seconds = (self.total_s(phases, name) if inclusive
                   else self.self_s(phases, name))
        return seconds / calls * scale

    def values(self, phases, key: str) -> List[float]:
        out: List[float] = []
        for phase in phases:
            out.extend(self.samples.get((phase, key), ()))
        return out

    def self_by_name(self, phases) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for (phase, name), entry in self.spans.items():
            if phase in phases:
                totals[name] += entry[1]
        return dict(totals)


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def accounting(tracer: Tracer, phase: str,
               windows: List[Tuple[float, float]]) -> Dict[str, object]:
    """Split the wall time of ``windows`` into layer self times.

    Returns the wall seconds, each span name's self seconds, the seconds
    during which spans of two threads ran at once (``overlap_s``) and the
    seconds no span covered (``unattributed_s``), so that::

        sum(self_s.values()) - overlap_s + unattributed_s == wall_s
    """
    wall = sum(end - start for start, end in windows)
    roots = []
    for start, end in tracer.roots.get(phase, ()):
        for w_start, w_end in windows:
            clipped = (max(start, w_start), min(end, w_end))
            if clipped[1] > clipped[0]:
                roots.append(clipped)
    covered = _union_length(roots)
    self_s = tracer.self_by_name([phase])
    # Self times are kept unclipped; the clipping above only trims spans
    # that straddle a window edge, which the overlap term absorbs.
    return {
        "wall_s": wall,
        "self_s": self_s,
        "overlap_s": sum(self_s.values()) - covered,
        "unattributed_s": wall - covered,
    }
