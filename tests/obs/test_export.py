"""TRACE_<seq>.json records, JSONL export, and the rendered span tree."""

from __future__ import annotations

import json
import time

import pytest

from repro.obs.export import (
    TRACE_RECORD_SCHEMA_VERSION,
    build_trace_record,
    latest_trace_record_path,
    layer_summary,
    load_trace_record,
    render_trace_tree,
    spans_to_jsonl,
    trace_duration_seconds,
    write_trace_record,
)
from repro.obs.spans import Span
from repro.obs.trace import new_span_id, new_trace_id


def _tree(trace_id: str) -> list[Span]:
    """root(0..10ms) -> child(2..8ms) -> leaf(3..4ms)."""
    base = time.time()
    root = Span(name="root", trace_id=trace_id, span_id=new_span_id(),
                parent_span_id=None, started_at=base, ended_at=base + 0.010,
                status="ok")
    child = Span(name="child", trace_id=trace_id, span_id=new_span_id(),
                 parent_span_id=root.span_id, started_at=base + 0.002,
                 ended_at=base + 0.008, status="ok", attrs={"hit": True})
    leaf = Span(name="leaf", trace_id=trace_id, span_id=new_span_id(),
                parent_span_id=child.span_id, started_at=base + 0.003,
                ended_at=base + 0.004, status="error")
    return [root, child, leaf]


class TestRecords:
    def test_write_load_roundtrip_continues_the_sequence(self, tmp_path):
        trace_id = new_trace_id()
        spans = _tree(trace_id)
        first = write_trace_record(spans, trace_id, str(tmp_path),
                                   job_id="job-1")
        second = write_trace_record(spans, trace_id, str(tmp_path))
        assert first.endswith("TRACE_0001.json")
        assert second.endswith("TRACE_0002.json")
        assert latest_trace_record_path(str(tmp_path)) == second
        record = load_trace_record(first)
        assert record["schema_version"] == TRACE_RECORD_SCHEMA_VERSION
        assert record["trace_id"] == trace_id
        assert record["job_id"] == "job-1"
        assert record["span_count"] == 3
        assert record["root_span_id"] == spans[0].span_id
        assert record["duration_seconds"] == pytest.approx(0.010, abs=1e-6)
        rebuilt = [Span.from_dict(s) for s in record["spans"]]
        assert [s.name for s in rebuilt] == ["root", "child", "leaf"]

    def test_unsupported_schema_version_is_refused(self, tmp_path):
        path = tmp_path / "TRACE_0001.json"
        path.write_text(json.dumps(
            {"kind": "trace", "schema_version": 999, "spans": []}))
        with pytest.raises(ValueError, match="schema"):
            load_trace_record(str(path))

    def test_latest_path_none_when_empty(self, tmp_path):
        assert latest_trace_record_path(str(tmp_path)) is None

    def test_build_record_with_dangling_parent_picks_local_root(self):
        trace_id = new_trace_id()
        spans = _tree(trace_id)[1:]  # drop the root: child's parent dangles
        record = build_trace_record(spans, trace_id)
        assert record["root_span_id"] == spans[0].span_id


class TestJsonl:
    def test_one_object_per_line(self):
        spans = _tree(new_trace_id())
        lines = spans_to_jsonl(spans).splitlines()
        assert len(lines) == 3
        assert [json.loads(line)["name"] for line in lines] == [
            "root", "child", "leaf"]

    def test_empty_export_is_empty_string(self):
        assert spans_to_jsonl([]) == ""


class TestRender:
    def test_tree_nests_by_parent_and_shows_percentages(self):
        trace_id = new_trace_id()
        text = render_trace_tree(_tree(trace_id), trace_id)
        lines = text.splitlines()
        assert lines[0] == f"trace {trace_id}"
        assert lines[1].startswith("root  10.0ms  100.0%  [ok]")
        assert lines[2].startswith("  child  6.0ms  60.0%  [ok]")
        assert "hit=True" in lines[2]
        assert lines[3].startswith("    leaf  1.0ms  10.0%  [error]")

    def test_events_rendered_inline(self):
        trace_id = new_trace_id()
        spans = _tree(trace_id)
        spans[0].add_event("failover", shard="s0")
        text = render_trace_tree(spans)
        assert "!failover" in text

    def test_no_spans_renders_placeholder(self):
        assert render_trace_tree([]) == "(no spans)"

    def test_dangling_parent_becomes_a_local_root(self):
        trace_id = new_trace_id()
        spans = _tree(trace_id)[1:]
        text = render_trace_tree(spans)
        assert text.splitlines()[0].startswith("child")


class TestSummaries:
    def test_layer_summary_sums_by_name(self):
        trace_id = new_trace_id()
        spans = _tree(trace_id) + _tree(trace_id)
        layers = layer_summary(spans)
        assert layers["root"] == pytest.approx(0.020, abs=1e-6)
        assert layers["leaf"] == pytest.approx(0.002, abs=1e-6)

    def test_trace_duration_is_the_tree_extent(self):
        spans = _tree(new_trace_id())
        assert trace_duration_seconds(spans) == pytest.approx(
            0.010, abs=1e-6)
        assert trace_duration_seconds([]) == 0.0
