"""Distributed tracing and metrics for the NPB serving stack.

The paper attributes wall-clock time to layers (JVM vs native code,
thread placement, per-kernel splits); this package does the same for
the reproduction's own stack.  One traced submit produces a span tree

    client -> coordinator -> front end -> scheduler -> run -> regions

where the leaf region spans reuse :class:`~repro.runtime.region.
RegionRecorder` timings instead of re-measuring them, so the tree's
leaves agree with the run record the job already emits.

Modules
-------
``trace``
    :class:`TraceContext` carried in a :mod:`contextvars` variable and
    propagated over HTTP via a W3C-``traceparent``-style header.
``spans``
    Structured :class:`Span` objects in a bounded per-process ring
    buffer (:class:`SpanStore`) with Bernoulli sampling.
``metrics``
    Stdlib-only counters / gauges / log-bucketed histograms with
    Prometheus text exposition.
``export``
    Schema-versioned ``TRACE_<seq>.json`` records and JSONL export.

Everything here is stdlib-only by design: the service must not grow a
dependency just to observe itself.
"""

from repro.obs.trace import (  # noqa: F401
    TRACEPARENT_HEADER,
    TraceContext,
    current_trace,
    format_traceparent,
    parse_traceparent,
    perf_to_epoch_offset,
    use_trace,
)
from repro.obs.spans import (  # noqa: F401
    Span,
    SpanStore,
    TraceSampler,
    get_span_store,
    set_span_store,
    spans_from_team_trace,
)
from repro.obs.metrics import (  # noqa: F401
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    process_rss_bytes,
)
from repro.obs.export import (  # noqa: F401
    TRACE_RECORD_SCHEMA_VERSION,
    build_trace_record,
    render_trace_tree,
    spans_to_jsonl,
    write_trace_record,
)
