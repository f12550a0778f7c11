"""Unit tests for the tracer: contexts, sampling, spans, stage hooks."""

from __future__ import annotations

import json
import threading

from repro.obs import trace as obs_trace
from repro.obs.trace import TraceContext


def _read_spans(path):
    records = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            records.append(json.loads(line))
    return records


class TestTraceContext:
    def test_child_links_into_the_tree(self):
        root = TraceContext(trace_id="t" * 32, span_id="root")
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id
        grandchild = child.child()
        assert grandchild.parent_id == child.span_id

    def test_wire_round_trip(self):
        ctx = TraceContext(trace_id="abc", span_id="s1", parent_id="p1")
        assert TraceContext.from_wire(ctx.to_wire()) == ctx

    def test_from_wire_tolerates_garbage(self):
        assert TraceContext.from_wire(None) is None
        assert TraceContext.from_wire("not a dict") is None
        assert TraceContext.from_wire({}) is None
        # missing span_id is healed, not fatal
        healed = TraceContext.from_wire({"trace_id": "abc"})
        assert healed is not None and healed.span_id


class TestSampling:
    def test_disabled_means_none(self):
        obs_trace.configure(enabled=False)
        assert obs_trace.start_trace() is None

    def test_rate_bounds(self, traced):
        obs_trace.configure(sample_rate=1.0)
        assert obs_trace.start_trace() is not None
        obs_trace.configure(sample_rate=0.0)
        assert obs_trace.start_trace() is None

    def test_verdict_is_deterministic_in_the_id(self):
        # the decision is a pure function of the id prefix: every process
        # (gateway, shards) agrees without coordination or RNG draws
        low = "00000001" + "0" * 24
        high = "ffffffff" + "0" * 24
        assert obs_trace._sampled(low, 0.1)
        assert not obs_trace._sampled(high, 0.1)
        for _ in range(3):
            assert obs_trace._sampled(low, 0.1) == \
                obs_trace._sampled(low, 0.1)

    def test_rate_roughly_honoured(self, traced):
        obs_trace.configure(sample_rate=0.5)
        kept = sum(obs_trace.start_trace() is not None for _ in range(400))
        assert 120 < kept < 280


class TestWriteSpan:
    def test_record_shape(self, traced):
        ctx = TraceContext(trace_id="tid", span_id="sid", parent_id="pid")
        obs_trace.write_span("unit.stage", ctx, 1.0, 1.5,
                             attrs={"lane": "interactive"})
        (record,) = _read_spans(traced / obs_trace.TRACE_FILENAME)
        assert record["name"] == "unit.stage"
        assert record["trace_id"] == "tid"
        assert record["span_id"] == "sid"
        assert record["parent_id"] == "pid"
        assert record["duration"] == 0.5
        assert record["attrs"] == {"lane": "interactive"}
        assert isinstance(record["pid"], int)

    def test_negative_duration_clamped(self, traced):
        ctx = TraceContext(trace_id="tid", span_id="sid")
        obs_trace.write_span("unit.stage", ctx, 2.0, 1.0)
        (record,) = _read_spans(traced / obs_trace.TRACE_FILENAME)
        assert record["duration"] == 0.0


class TestSpanLine:
    """The direct span-line formatter reads back as ``json.dumps`` would."""

    RECORDS = [
        obs_trace.span_record("unit.stage", TraceContext("t" * 32, "s" * 16),
                              18844.990287523, 18844.990289625,
                              {"lane": "interactive", "batch_size": 8,
                               "fused": True, "ratio": 0.25, "none": None}),
        obs_trace.span_record('quote"é\n', TraceContext('t"', "s\\", "p\x00"),
                              1.0, 1.5),
        obs_trace.span_record("nested", TraceContext("t", "s", "p"), 0.0,
                              2.0, {"list": [1, 2.5], "dict": {"x": "y"},
                                    "nan": float("nan")}),
        # Shapes the formatter does not own fall back to json.dumps.
        obs_trace.span_record("inf", TraceContext("t", "s"), float("inf"),
                              float("inf")),
        obs_trace.span_record("wire parent", TraceContext("t", "s", 7), 1.0,
                              2.0),
        dict(obs_trace.span_record("extra", TraceContext("t", "s"), 1.0,
                                   2.0), extra=[1]),
        {"name": "bare"},
    ]

    def test_lines_read_back_like_json_dumps(self):
        for record in self.RECORDS:
            line = obs_trace._span_line(record)
            assert line.endswith("}\n") and line.count("\n") == 1
            back = json.loads(line)
            want = json.loads(json.dumps(record))
            assert list(back) == list(want)
            for key, value in want.items():
                if key in ("start", "duration"):
                    # Times are written at nanosecond resolution.
                    assert abs(back[key] - value) <= 1e-9 \
                        or back[key] == value, (key, back[key], value)
                elif key == "attrs" and "nan" in value:
                    assert back[key]["nan"] != back[key]["nan"]
                    assert {k: v for k, v in back[key].items()
                            if k != "nan"} == {
                        k: v for k, v in value.items() if k != "nan"}
                else:
                    assert back[key] == value, key


class TestActivation:
    def test_stack_nests_and_unwinds(self):
        outer = TraceContext(trace_id="t", span_id="outer")
        inner = outer.child()
        assert obs_trace.current() is None
        with obs_trace.activate(outer):
            assert obs_trace.current() is outer
            with obs_trace.activate(inner):
                assert obs_trace.current() is inner
            assert obs_trace.current() is outer
        assert obs_trace.current() is None

    def test_none_is_a_no_op(self):
        with obs_trace.activate(None) as ctx:
            assert ctx is None
            assert obs_trace.current() is None

    def test_stack_is_thread_local(self):
        ctx = TraceContext(trace_id="t", span_id="s")
        seen = {}

        def other():
            seen["ctx"] = obs_trace.current()

        with obs_trace.activate(ctx):
            thread = threading.Thread(target=other)
            thread.start()
            thread.join()
        assert seen["ctx"] is None


class TestStageHooks:
    def test_disabled_returns_the_shared_null_timer(self):
        obs_trace.configure(enabled=False)
        assert obs_trace.stage("x") is obs_trace.stage("y")
        assert obs_trace.span("x", None) is obs_trace.stage("y")

    def test_enabled_without_active_context_is_still_null(self, traced):
        assert obs_trace.stage("x") is obs_trace._NULL_TIMER

    def test_stage_writes_a_child_of_the_active_context(self, traced):
        ctx = TraceContext(trace_id="tid", span_id="root")
        with obs_trace.activate(ctx):
            with obs_trace.stage("serve.forward", chunks=2):
                pass
        (record,) = _read_spans(traced / obs_trace.TRACE_FILENAME)
        assert record["name"] == "serve.forward"
        assert record["parent_id"] == "root"
        assert record["attrs"] == {"chunks": 2}
        assert record["duration"] >= 0.0

    def test_span_uses_the_explicit_context(self, traced):
        ctx = TraceContext(trace_id="tid", span_id="elsewhere")
        with obs_trace.span("wire.encode", ctx):
            pass
        (record,) = _read_spans(traced / obs_trace.TRACE_FILENAME)
        assert record["parent_id"] == "elsewhere"
