"""The benchmark's own span recorder.

Spans are recorded from the benchmark's side of each layer boundary
(around calls into the program, or from timestamps its responses already
carry); ``repro.obs`` tracing stays off.  A span is ``name, start, end,
parent, request id``; spans stay in memory until the run ends and are
written only with ``--out``.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span list.  Not thread-safe: each client thread owns one."""

    def __init__(self):
        self.spans: list[Span] = []

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, request: str | None = None) -> int:
        span_id = len(self.spans)
        self.spans.append(Span(span_id, name, start, end, parent, request))
        return span_id

    def extend(self, other: "Recorder") -> None:
        """Append another recorder's spans, renumbering ids and parents."""
        offset = len(self.spans)
        for span in other.spans:
            parent = None if span.parent is None else span.parent + offset
            self.spans.append(Span(span.span_id + offset, span.name,
                                   span.start, span.end, parent,
                                   span.request))

    def to_json(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus what its children cover of it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration - covered(
            span.start, span.end, children.get(span.span_id, ()))
        for span in spans
    }


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Span name -> summed self time: where the traced time went."""
    totals: dict[str, float] = {}
    own = self_times(spans)
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.span_id]
    return totals
