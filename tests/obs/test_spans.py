"""Span store bounds, sampling decisions, and team-trace span synthesis."""

from __future__ import annotations

import time

import pytest

from repro.obs.spans import NOOP_SPAN, Span, SpanStore, TraceSampler
from repro.obs.trace import UNSAMPLED, TraceContext, new_span_id, new_trace_id


def _span(trace_id: str, name: str = "s") -> Span:
    return Span(name=name, trace_id=trace_id, span_id=new_span_id(),
                parent_span_id=None, started_at=time.time())


class TestSpan:
    def test_end_is_idempotent_and_keeps_first_status(self):
        span = _span(new_trace_id())
        span.end("error")
        first_end = span.ended_at
        span.end("ok")
        assert span.status == "error"
        assert span.ended_at == first_end

    def test_roundtrip_through_dict(self):
        span = _span(new_trace_id())
        span.attrs["k"] = 1
        span.add_event("evt", detail="x")
        span.end()
        again = Span.from_dict(span.to_dict())
        assert again.to_dict() == span.to_dict()

    def test_duration_zero_while_open(self):
        span = _span(new_trace_id())
        assert span.duration_seconds == 0.0


class TestSpanStore:
    def test_capacity_bound_evicts_oldest_and_drops_empty_traces(self):
        store = SpanStore(capacity=4)
        old_trace = new_trace_id()
        store.add(_span(old_trace))
        for _ in range(4):
            store.add(_span(new_trace_id()))
        assert len(store) == 4
        assert store.dropped == 1
        assert store.trace(old_trace) == []
        assert old_trace not in store.trace_ids()

    def test_trace_index_returns_spans_in_insertion_order(self):
        store = SpanStore(capacity=16)
        trace_id = new_trace_id()
        names = ["a", "b", "c"]
        for name in names:
            store.add(_span(trace_id, name))
        assert [s.name for s in store.trace(trace_id)] == names

    def test_start_span_skips_store_for_unsampled_context(self):
        store = SpanStore(capacity=16)
        ctx = TraceContext(trace_id=new_trace_id(), parent_span_id=None,
                           sampled=False)
        span, child = store.start_span("x", ctx=ctx)
        assert len(store) == 0
        assert child.sampled is False
        assert child.parent_span_id == span.span_id

    def test_unsampled_start_span_is_the_shared_noop(self):
        """The rule the service's straight-line tracing rests on: an
        unsampled context costs no allocation, no store slot and no
        eviction, and hands the same context on."""
        store = SpanStore(capacity=4)
        sampled = TraceContext(trace_id=new_trace_id())
        kept, _ = store.start_span("kept", ctx=sampled)
        for ctx in (UNSAMPLED, TraceContext(new_trace_id(), sampled=False)):
            for _ in range(5000):
                span, child = store.start_span(
                    "x", ctx=ctx, attrs={"k": 1}, started_at=1.0)
                assert span is NOOP_SPAN and child is ctx
                span.set(hit=True)
                span.add_event("evt", detail="d")
                span.end("error")
        assert len(store) == 1 and store.dropped == 0
        assert store.trace(sampled.trace_id) == [kept]
        assert not hasattr(NOOP_SPAN, "__dict__")  # nowhere to write to

    def test_start_span_mints_a_root_without_context(self):
        store = SpanStore(capacity=16)
        span, child = store.start_span("root")
        assert span.parent_span_id is None
        assert child.trace_id == span.trace_id
        assert len(store) == 1

    def test_rejects_degenerate_capacity(self):
        with pytest.raises(ValueError):
            SpanStore(capacity=0)


class TestSampler:
    def test_incoming_context_wins_over_rate(self):
        sampler = TraceSampler(0.0)
        incoming = TraceContext(trace_id=new_trace_id(),
                                parent_span_id=new_span_id())
        assert sampler.decide(incoming) is incoming

    def test_forced_upgrades_an_unsampled_incoming_context(self):
        sampler = TraceSampler(0.0)
        incoming = TraceContext(trace_id=new_trace_id(),
                                parent_span_id=new_span_id(), sampled=False)
        ctx = sampler.decide(incoming, forced=True)
        assert ctx.trace_id == incoming.trace_id
        assert ctx.sampled is True

    def test_rate_zero_never_samples_rate_one_always(self):
        off = TraceSampler(0.0)
        on = TraceSampler(1.0)
        assert not any(off.decide().sampled for _ in range(50))
        assert all(on.decide().sampled for _ in range(50))

    def test_forced_samples_at_rate_zero(self):
        assert TraceSampler(0.0).decide(forced=True).sampled is True

    def test_seeded_sampler_is_deterministic(self):
        first = TraceSampler(0.5, seed=7)
        second = TraceSampler(0.5, seed=7)
        a = [first.decide().sampled for _ in range(20)]
        b = [second.decide().sampled for _ in range(20)]
        assert a == b
        assert any(a) and not all(a)

    def test_rejects_out_of_range_rate(self):
        with pytest.raises(ValueError):
            TraceSampler(1.5)
