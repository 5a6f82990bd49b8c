"""Structured spans and the per-process bounded span store.

A :class:`Span` is a named, timed interval with attributes, events,
and a status -- the unit ``npb trace`` renders and ``TRACE_<seq>.json``
exports.  Spans live in a :class:`SpanStore`: a bounded ring buffer
(default 4096 spans) indexed by trace id, so a long-lived daemon's
memory stays flat no matter how much traffic it traces.

Sampling (:class:`TraceSampler`) is decided once at the edge:

* an incoming ``traceparent`` with the sampled flag -> always on
  (the edge that started the trace already decided);
* an explicit traced submit (``npb submit --trace``) -> always on;
* otherwise Bernoulli(rate) from ``--trace-sample RATE`` (default 0,
  i.e. tracing off unless asked for).

Cross-process collection: forked ProcessTeam workers stamp replies
with their own ``perf_counter`` times (CLOCK_MONOTONIC, shared epoch
across fork on Linux), so the master synthesizes per-worker spans from
those stamps -- worker timing surfaces in the parent store without any
pipe-protocol change.
"""

from __future__ import annotations

import random
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.obs.trace import (
    TraceContext,
    current_trace,
    new_span_id,
    new_trace_id,
    perf_to_epoch_offset,
)

DEFAULT_STORE_CAPACITY = 4096


@dataclass
class Span:
    """One named, timed interval inside a trace.

    ``started_at``/``ended_at`` are wall-clock epoch seconds so spans
    from different processes line up after export; producers that time
    with ``perf_counter`` convert via
    :func:`repro.obs.trace.perf_to_epoch_offset`.
    """

    name: str
    trace_id: str
    span_id: str
    parent_span_id: str | None
    started_at: float
    ended_at: float | None = None
    #: "ok" | "error" | "unset"
    status: str = "unset"
    attrs: dict = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)

    @property
    def duration_seconds(self) -> float:
        if self.ended_at is None:
            return 0.0
        return max(0.0, self.ended_at - self.started_at)

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    def add_event(self, name: str, **attrs) -> None:
        self.events.append({"name": name, "at": time.time(), **attrs})

    def end(self, status: str = "ok") -> None:
        if self.ended_at is None:
            self.ended_at = time.time()
        if self.status == "unset":
            self.status = status

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "started_at": self.started_at,
            "ended_at": self.ended_at,
            "duration_seconds": self.duration_seconds,
            "status": self.status,
            "attrs": dict(self.attrs),
            "events": [dict(event) for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            name=data["name"],
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_span_id=data.get("parent_span_id"),
            started_at=data["started_at"],
            ended_at=data.get("ended_at"),
            status=data.get("status", "unset"),
            attrs=dict(data.get("attrs") or {}),
            events=list(data.get("events") or []),
        )


class _NoopSpan:
    """The span of an unsampled context: one shared instance, nothing
    allocated or stored, every write discarded -- so the service opens
    spans unconditionally and both kinds of request run the same code."""

    __slots__ = ()
    span_id = started_at = None

    def _discard(self, *args, **kwargs) -> None:
        pass

    set = add_event = end = _discard


NOOP_SPAN = _NoopSpan()


class SpanStore:
    """Bounded per-process span buffer, indexed by trace id.

    Eviction is per-span FIFO: when the buffer is full the oldest span
    goes, and a trace whose last span was evicted disappears from the
    index.  That keeps the store O(capacity) regardless of uptime --
    the export path is expected to read a trace shortly after its job
    finishes, which the default capacity comfortably covers.
    """

    def __init__(self, capacity: int = DEFAULT_STORE_CAPACITY):
        if capacity < 1:
            raise ValueError("span store capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        #: insertion-ordered span_id -> Span (the ring)
        self._spans: "OrderedDict[str, Span]" = OrderedDict()
        #: trace_id -> list of span ids (index into the ring)
        self._by_trace: dict[str, list[str]] = {}
        self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def add(self, span: Span) -> None:
        with self._lock:
            while len(self._spans) >= self.capacity:
                old_id, old = self._spans.popitem(last=False)
                self.dropped += 1
                ids = self._by_trace.get(old.trace_id)
                if ids is not None:
                    try:
                        ids.remove(old_id)
                    except ValueError:
                        pass
                    if not ids:
                        del self._by_trace[old.trace_id]
            self._spans[span.span_id] = span
            self._by_trace.setdefault(span.trace_id, []).append(span.span_id)

    def add_many(self, spans: list[Span]) -> None:
        for span in spans:
            self.add(span)

    def trace(self, trace_id: str) -> list[Span]:
        """All stored spans of one trace, in insertion order."""
        with self._lock:
            ids = list(self._by_trace.get(trace_id, ()))
            return [self._spans[i] for i in ids if i in self._spans]

    def trace_ids(self) -> list[str]:
        with self._lock:
            return list(self._by_trace)

    def stats(self) -> dict:
        with self._lock:
            return {
                "spans": len(self._spans),
                "traces": len(self._by_trace),
                "capacity": self.capacity,
                "dropped": self.dropped,
            }

    # ----------------------------------------------------------------- #
    # span construction
    # ----------------------------------------------------------------- #

    def start_span(
        self,
        name: str,
        ctx: TraceContext | None = None,
        attrs: dict | None = None,
        started_at: float | None = None,
    ) -> tuple["Span | _NoopSpan", TraceContext]:
        """Open a span under ``ctx`` (or the ambient context, or a new
        root trace) and return it with the child context for callees.

        The span is added to the store immediately so an in-flight
        trace is visible; ``Span.end`` just stamps the end time.  An
        unsampled context gets :data:`NOOP_SPAN` and itself back (no
        span exists, so there is no child context to hand on).
        """
        if ctx is None:
            ctx = current_trace()
        if ctx is None:
            ctx = TraceContext(trace_id=new_trace_id(), parent_span_id=None)
        if not ctx.sampled:
            return NOOP_SPAN, ctx
        span = Span(
            name=name,
            trace_id=ctx.trace_id,
            span_id=new_span_id(),
            parent_span_id=ctx.parent_span_id,
            started_at=time.time() if started_at is None else started_at,
            attrs=dict(attrs or {}),
        )
        self.add(span)
        return span, ctx.child(span.span_id)


class TraceSampler:
    """Edge sampling decision: continue, force, or Bernoulli(rate)."""

    def __init__(self, rate: float = 0.0, seed: int | None = None):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("trace sample rate must be in [0, 1]")
        self.rate = rate
        self._rng = random.Random(seed)

    def decide(
        self,
        incoming: TraceContext | None = None,
        forced: bool = False,
    ) -> TraceContext:
        """The context a new request should run under.

        A continued trace keeps its flag; a forced submit is always
        sampled; otherwise flip the coin once, here, for everything
        downstream.
        """
        if incoming is not None:
            if forced and not incoming.sampled:
                return TraceContext(
                    trace_id=incoming.trace_id,
                    parent_span_id=incoming.parent_span_id,
                    sampled=True,
                )
            return incoming
        sampled = forced or (
            self.rate > 0.0 and self._rng.random() < self.rate
        )
        return TraceContext(
            trace_id=new_trace_id(), parent_span_id=None, sampled=sampled
        )


# --------------------------------------------------------------------- #
# process-global store (one per daemon / coordinator / client process)
# --------------------------------------------------------------------- #

_store: SpanStore | None = None
_store_lock = threading.Lock()


def get_span_store() -> SpanStore:
    global _store
    if _store is None:
        with _store_lock:
            if _store is None:
                _store = SpanStore()
    return _store


def set_span_store(store: SpanStore | None) -> SpanStore | None:
    """Swap the process-global store (tests); returns the old one."""
    global _store
    with _store_lock:
        old, _store = _store, store
    return old


def spans_from_team_trace(
    trace_data: dict,
    region_report: dict,
    ctx: TraceContext,
) -> list[Span]:
    """Region + per-worker spans from a team's trace accumulation.

    ``trace_data`` is :meth:`repro.team.base.Team.take_trace` output
    (perf_counter extents per region and per worker rank);
    ``region_report`` is the matching ``RegionRecorder.report()`` whose
    dispatch/execute/barrier/wall totals are attached as span attrs --
    *reused*, never re-measured, so the span tree's numbers agree with
    the run record's region table by construction.

    Worker extents were stamped inside the workers themselves (for
    ProcessTeam: in the forked child), comparable across fork because
    ``perf_counter`` is CLOCK_MONOTONIC with a shared epoch on Linux.
    ``ctx`` is the *run* span's child context, so regions hang off the
    run span and ``worker.N`` spans off their region span.
    """
    offset = perf_to_epoch_offset()
    spans: list[Span] = []
    for region, entry in trace_data.items():
        stats = region_report.get(region, {})
        region_span = Span(
            name=f"region:{region}",
            trace_id=ctx.trace_id,
            span_id=new_span_id(),
            parent_span_id=ctx.parent_span_id,
            started_at=entry["first"] + offset,
            ended_at=entry["last"] + offset,
            status="ok",
            attrs={
                "calls": entry["calls"],
                "inline_calls": stats.get("inline_calls", 0),
                "wall_seconds": stats.get("wall_seconds"),
                "dispatch_seconds": stats.get("dispatch_seconds"),
                "execute_seconds": stats.get("execute_seconds"),
                "barrier_seconds": stats.get("barrier_seconds"),
            },
        )
        spans.append(region_span)
        for rank in sorted(entry["workers"]):
            worker = entry["workers"][rank]
            spans.append(
                Span(
                    name=f"worker.{rank}",
                    trace_id=ctx.trace_id,
                    span_id=new_span_id(),
                    parent_span_id=region_span.span_id,
                    started_at=worker["first"] + offset,
                    ended_at=worker["last"] + offset,
                    status="error" if worker["errors"] else "ok",
                    attrs={
                        "rank": rank,
                        "busy_seconds": worker["busy"],
                        "calls": worker["calls"],
                    },
                )
            )
    return spans
