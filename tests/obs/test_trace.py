"""W3C-traceparent propagation and the ambient trace context."""

from __future__ import annotations

import pytest

from repro.obs.trace import (
    TraceContext,
    current_trace,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    use_trace,
)


class TestTraceparent:
    def test_roundtrip(self):
        ctx = TraceContext(trace_id=new_trace_id(),
                           parent_span_id=new_span_id())
        parsed = parse_traceparent(format_traceparent(ctx))
        assert parsed is not None
        assert parsed.trace_id == ctx.trace_id
        assert parsed.parent_span_id == ctx.parent_span_id
        assert parsed.sampled is True

    def test_unsampled_flag_roundtrips(self):
        ctx = TraceContext(trace_id=new_trace_id(),
                           parent_span_id=new_span_id(), sampled=False)
        header = format_traceparent(ctx)
        assert header.endswith("-00")
        parsed = parse_traceparent(header)
        assert parsed.sampled is False

    def test_header_shape(self):
        ctx = TraceContext(trace_id="ab" * 16, parent_span_id="cd" * 8)
        header = format_traceparent(ctx)
        version, trace_id, span_id, flags = header.split("-")
        assert (version, flags) == ("00", "01")
        assert len(trace_id) == 32 and len(span_id) == 16

    @pytest.mark.parametrize("bad", [
        None,
        "",
        "garbage",
        "00-short-abcdefabcdefabcd-01",
        "00-" + "g" * 32 + "-" + "ab" * 8 + "-01",   # non-hex trace id
        "00-" + "ab" * 16 + "-" + "gh" * 8 + "-01",  # non-hex span id
        "00-" + "0" * 32 + "-" + "ab" * 8 + "-01",   # all-zero trace id
        "00-" + "ab" * 16 + "-" + "0" * 16 + "-01",  # all-zero span id
        "00-" + "ab" * 16 + "-" + "ab" * 8,          # missing flags
        "0-" + "ab" * 16 + "-" + "ab" * 8 + "-01",   # short version
    ])
    def test_malformed_headers_are_dropped_not_raised(self, bad):
        assert parse_traceparent(bad) is None

    def test_ids_are_unique_and_well_sized(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 32 for i in ids)
        assert all(len(new_span_id()) == 16 for _ in range(8))


class TestContext:
    def test_child_keeps_trace_id_and_sampling(self):
        ctx = TraceContext(trace_id="ab" * 16, parent_span_id=None,
                           sampled=False)
        child = ctx.child("cd" * 8)
        assert child.trace_id == ctx.trace_id
        assert child.parent_span_id == "cd" * 8
        assert child.sampled is False

    def test_use_trace_sets_and_restores_ambient_context(self):
        assert current_trace() is None
        ctx = TraceContext(trace_id="ab" * 16, parent_span_id=None)
        with use_trace(ctx):
            assert current_trace() is ctx
            inner = TraceContext(trace_id="cd" * 16, parent_span_id=None)
            with use_trace(inner):
                assert current_trace() is inner
            assert current_trace() is ctx
        assert current_trace() is None

    def test_use_trace_none_is_a_noop_scope(self):
        with use_trace(None):
            assert current_trace() is None
