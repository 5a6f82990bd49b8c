"""Span export: ``TRACE_<seq>.json`` records, JSONL, and the tree view.

A trace record is the durable form of one span tree -- what ``npb
trace <job_id>`` writes after fetching ``/jobs/<id>/trace``, and what
``npb trace --last`` re-renders from disk.  Records go through the
shared :mod:`repro.harness.records` allocator so concurrent traced
runs never clobber each other's sequence numbers, same as BENCH /
LOADGEN / CHAOS records.

Schema v1::

    {
      "schema_version": 1,
      "kind": "trace",
      "trace_id": "...",            # 32 hex
      "job_id": "...",              # the submit that produced it, if any
      "created_at": <epoch>,
      "root_span_id": "..." | null,
      "span_count": N,
      "duration_seconds": <root duration or max span extent>,
      "spans": [Span.to_dict(), ...],
      "sequence": N                  # stamped by append_record
    }
"""

from __future__ import annotations

import json
import time

from repro.harness import records
from repro.obs.spans import Span

TRACE_RECORD_SCHEMA_VERSION = 1
TRACE_RECORD_PREFIX = "TRACE"


def _find_roots(spans: list[Span]) -> list[Span]:
    """Spans whose parent is absent from the collection (tree roots).

    A trace collected from one process of a multi-process request
    legitimately has a dangling parent id -- the parent span lives in
    the upstream process -- so "root" means *local* root.
    """
    ids = {span.span_id for span in spans}
    return [
        span
        for span in spans
        if span.parent_span_id is None or span.parent_span_id not in ids
    ]


def trace_duration_seconds(spans: list[Span]) -> float:
    """Extent of the whole tree: last end minus first start."""
    starts = [s.started_at for s in spans]
    ends = [s.ended_at for s in spans if s.ended_at is not None]
    if not starts or not ends:
        return 0.0
    return max(0.0, max(ends) - min(starts))


def build_trace_record(
    spans: list[Span],
    trace_id: str,
    job_id: str | None = None,
) -> dict:
    roots = _find_roots(spans)
    return {
        "schema_version": TRACE_RECORD_SCHEMA_VERSION,
        "kind": "trace",
        "trace_id": trace_id,
        "job_id": job_id,
        "created_at": time.time(),
        "root_span_id": roots[0].span_id if roots else None,
        "span_count": len(spans),
        "duration_seconds": trace_duration_seconds(spans),
        "spans": [span.to_dict() for span in spans],
    }


def write_trace_record(
    spans: list[Span],
    trace_id: str,
    directory: str,
    job_id: str | None = None,
) -> str:
    """Append a TRACE record to the trajectory; returns its path."""
    record = build_trace_record(spans, trace_id, job_id=job_id)
    return records.append_record(record, directory, TRACE_RECORD_PREFIX)


def load_trace_record(path: str) -> dict:
    return records.load_record(path, "trace", TRACE_RECORD_SCHEMA_VERSION, "npb trace")


def latest_trace_record_path(directory: str) -> str | None:
    return records.latest_record_path(directory, TRACE_RECORD_PREFIX)


def spans_to_jsonl(spans: list[Span]) -> str:
    """One compact JSON object per line -- pipeable span export."""
    return "\n".join(
        json.dumps(span.to_dict(), separators=(",", ":"), sort_keys=True)
        for span in spans
    ) + ("\n" if spans else "")


# --------------------------------------------------------------------- #
# tree rendering (npb trace)
# --------------------------------------------------------------------- #

def render_trace_tree(spans: list[Span], trace_id: str | None = None) -> str:
    """The span tree as indented text with durations and % of total.

    Children sort by start time; each line shows the span's own
    duration and its share of the *root* extent, which is how a
    reader attributes one slow request to a layer at a glance::

        http.submit  412.1ms  100.0%  [ok]
          schedule  410.0ms  99.5%  [ok]
            queue.wait  1.2ms  0.3%  [ok]
            run  405.8ms  98.5%  [ok]  benchmark=cg
              region:conj_grad  398.0ms  96.6%  [ok]
    """
    if not spans:
        return "(no spans)"
    total = trace_duration_seconds(spans) or 1e-9
    children: dict[str | None, list[Span]] = {}
    ids = {span.span_id for span in spans}
    for span in spans:
        parent = span.parent_span_id
        if parent not in ids:
            parent = None
        children.setdefault(parent, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: s.started_at)

    lines: list[str] = []
    if trace_id:
        lines.append(f"trace {trace_id}")

    def emit(span: Span, depth: int) -> None:
        duration = span.duration_seconds
        pct = 100.0 * duration / total
        attrs = " ".join(
            f"{key}={value}"
            for key, value in sorted(span.attrs.items())
            if key not in ("rank",) and value is not None
        )
        events = (
            " !" + ",".join(event["name"] for event in span.events)
            if span.events
            else ""
        )
        line = (
            f"{'  ' * depth}{span.name}  "
            f"{duration * 1000:.1f}ms  {pct:.1f}%  [{span.status}]"
        )
        if attrs:
            line += f"  {attrs}"
        line += events
        lines.append(line)
        for child in children.get(span.span_id, ()):
            emit(child, depth + 1)

    for root in children.get(None, ()):
        emit(root, 0)
    return "\n".join(lines)


def layer_summary(spans: list[Span]) -> dict[str, float]:
    """Total seconds per span name -- the per-layer breakdown."""
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.duration_seconds
    return totals
