"""Trace context creation and HTTP propagation.

A trace is identified by a 128-bit id; every span within it by a
64-bit id.  Context travels two ways:

* **in-process** through a :mod:`contextvars` variable
  (:func:`use_trace`), so a caller can activate a context once and
  every span opened or request sent below it finds it without
  plumbing arguments through the layers in between;
* **across processes** through a W3C-``traceparent``-style header
  (``00-<32 hex trace id>-<16 hex parent span id>-<2 hex flags>``),
  injected by :class:`~repro.service.client.ServiceClient` and the
  shard coordinator's forwarding client, extracted by the daemon's and
  the coordinator's routes.

Flag ``01`` means *sampled*: a continued trace keeps its parent's
sampling decision, so one decision at the edge governs the whole
request no matter how many processes it crosses.

Nothing in the team runtime reads the context: a traced job's region
and worker spans are rendered after ``run()`` from the run's region
table (:func:`repro.obs.spans.spans_from_team_trace`), so tracing costs
the dispatch loop nothing, on or off.
"""

from __future__ import annotations

import contextvars
import secrets
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

TRACEPARENT_HEADER = "traceparent"
_VERSION = "00"
_FLAG_SAMPLED = 0x01


def new_trace_id() -> str:
    """A fresh 128-bit trace id as 32 lowercase hex chars."""
    return secrets.token_hex(16)


def new_span_id() -> str:
    """A fresh 64-bit span id as 16 lowercase hex chars."""
    return secrets.token_hex(8)


@dataclass(frozen=True)
class TraceContext:
    """The identity a span inherits: trace id, parent span, sampling.

    Immutable -- starting a child span creates a *new* context with
    ``parent_span_id`` advanced, never mutates this one, so contexts
    can be shared across threads (queue -> dispatcher) safely.
    """

    trace_id: str
    parent_span_id: str | None = None
    sampled: bool = True
    #: wall-clock epoch at which this process first saw the trace;
    #: informational only (spans carry their own times).
    seen_at: float = field(default_factory=time.time, compare=False)

    def child(self, span_id: str) -> "TraceContext":
        """The context a child of ``span_id`` should inherit."""
        return TraceContext(
            trace_id=self.trace_id,
            parent_span_id=span_id,
            sampled=self.sampled,
        )


#: The context of a request nobody traces (a ``Job`` whose ``trace`` is
#: None runs under it): ``start_span`` gives it the shared no-op span.
UNSAMPLED = TraceContext(trace_id="0" * 32, sampled=False)


def format_traceparent(ctx: TraceContext) -> str:
    """Render ``ctx`` as an outgoing ``traceparent`` header value."""
    flags = _FLAG_SAMPLED if ctx.sampled else 0
    parent = ctx.parent_span_id or new_span_id()
    return f"{_VERSION}-{ctx.trace_id}-{parent}-{flags:02x}"


def parse_traceparent(value: str | None) -> TraceContext | None:
    """Parse an incoming header; None when absent or malformed.

    Malformed headers are dropped rather than raised: a bad client
    must not be able to 500 the submit path just by sending garbage.
    """
    if not value:
        return None
    parts = value.strip().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, flags = parts
    if len(version) != 2 or len(trace_id) != 32 or len(span_id) != 16:
        return None
    try:
        int(trace_id, 16)
        int(span_id, 16)
        flag_bits = int(flags, 16)
    except ValueError:
        return None
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return TraceContext(
        trace_id=trace_id,
        parent_span_id=span_id,
        sampled=bool(flag_bits & _FLAG_SAMPLED),
    )


# --------------------------------------------------------------------- #
# in-process propagation
# --------------------------------------------------------------------- #

_current: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro_trace_context", default=None
)

def current_trace() -> TraceContext | None:
    """The context active on this thread, or None."""
    return _current.get()


@contextmanager
def use_trace(ctx: TraceContext | None):
    """Activate ``ctx`` for the duration of the ``with`` block."""
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)


# --------------------------------------------------------------------- #
# clock alignment
# --------------------------------------------------------------------- #

def perf_to_epoch_offset() -> float:
    """Offset such that ``perf_counter() + offset ~= time.time()``.

    ``time.perf_counter`` is CLOCK_MONOTONIC on Linux and shares its
    epoch across fork, which is why ProcessTeam worker reply stamps
    are directly comparable to master-side stamps; this offset turns
    any of those stamps into wall-clock for export.
    """
    return time.time() - time.perf_counter()
