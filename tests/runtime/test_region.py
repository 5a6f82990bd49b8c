"""Tests for the ParallelRegion instrumentation layer."""

import pytest

from repro.common.timers import Timer
from repro.runtime.dispatch import WorkerReply
from repro.runtime.region import (
    UNATTRIBUTED,
    ParallelRegion,
    RegionRecorder,
    RegionStats,
)


def replies(*spans):
    """WorkerReplies from (started_at, finished_at) pairs."""
    return [WorkerReply(rank, True, None, s, f)
            for rank, (s, f) in enumerate(spans)]


class TestRegionRecorder:
    def test_default_region_is_unattributed(self):
        rec = RegionRecorder(2)
        rec.record(0.0, 1.0, replies((0.1, 0.5), (0.2, 0.9)))
        assert rec.names() == [UNATTRIBUTED]

    def test_push_pop_attribution(self):
        rec = RegionRecorder(1)
        rec.push("rhs")
        rec.record(0.0, 1.0, replies((0.0, 1.0)))
        rec.pop()
        rec.record(0.0, 1.0, replies((0.0, 1.0)))
        assert rec.names() == ["rhs", UNATTRIBUTED]
        assert rec.stats("rhs").calls == 1

    def test_nested_regions_charge_innermost(self):
        rec = RegionRecorder(1)
        rec.push("outer")
        rec.push("inner")
        rec.record(0.0, 1.0, replies((0.0, 1.0)))
        rec.pop()
        rec.pop()
        assert rec.stats("inner").calls == 1
        assert rec.stats("outer").calls == 0

    def test_component_accounting(self):
        rec = RegionRecorder(2)
        rec.push("r")
        # publish at 0.0, all done at 1.0; worker 0 runs [0.1, 0.5],
        # worker 1 runs [0.2, 0.9].
        rec.record(0.0, 1.0, replies((0.1, 0.5), (0.2, 0.9)))
        s = rec.stats("r")
        assert s.calls == 1
        assert s.wall_seconds == pytest.approx(1.0)
        assert s.dispatch_seconds == pytest.approx(0.1 + 0.2)
        assert s.execute_seconds == pytest.approx(0.4 + 0.7)
        assert s.barrier_seconds == pytest.approx(0.5 + 0.1)

    def test_inline_dispatch_charges_no_fictitious_overhead(self):
        rec = RegionRecorder(2)
        rec.push("r")
        # Both slabs on the master, back to back: [0.1, 0.5] then
        # [0.5, 0.9].  Rank 1 did not wait 0.5 s for its task and rank 0
        # did not wait 0.5 s at a barrier; the master's own gaps are 0.2.
        rec.record(0.0, 1.0, replies((0.1, 0.5), (0.5, 0.9)), inline=True)
        s = rec.stats("r")
        assert (s.calls, s.inline_calls) == (1, 1)
        assert s.execute_seconds == pytest.approx(0.8)
        assert s.dispatch_seconds == pytest.approx(0.2)
        assert s.barrier_seconds == 0.0
        assert s.overhead_fraction == pytest.approx(0.2)
        rec.record(1.0, 2.0, replies((1.1, 1.5), (1.2, 1.9)))
        assert (s.calls, s.inline_calls) == (2, 1)

    def test_stats_accumulate_across_calls(self):
        rec = RegionRecorder(1)
        rec.push("r")
        rec.record(0.0, 1.0, replies((0.0, 1.0)))
        rec.record(2.0, 4.0, replies((2.0, 4.0)))
        s = rec.stats("r")
        assert s.calls == 2
        assert s.wall_seconds == pytest.approx(3.0)

    def test_clear_keeps_active_region(self):
        rec = RegionRecorder(1)
        rec.push("r")
        rec.record(0.0, 1.0, replies((0.0, 1.0)))
        rec.clear()
        assert rec.names() == []
        rec.record(0.0, 1.0, replies((0.0, 1.0)))
        assert rec.names() == ["r"]

    def test_report_round_trips(self):
        rec = RegionRecorder(1)
        rec.push("a")
        rec.record(0.0, 1.0, replies((0.2, 0.7)))
        rec.pop()
        report = rec.report()
        assert set(report["a"]) == {"calls", "inline_calls", "wall_seconds",
                                    "dispatch_seconds", "execute_seconds",
                                    "barrier_seconds",
                                    "alloc_bytes", "alloc_blocks"}
        assert report["a"]["calls"] == 1


class TestRegionStats:
    def test_sync_and_overhead(self):
        s = RegionStats(calls=1, wall_seconds=1.0, dispatch_seconds=0.25,
                        execute_seconds=1.0, barrier_seconds=0.75)
        assert s.sync_seconds == pytest.approx(1.0)
        assert s.overhead_fraction == pytest.approx(0.5)

    def test_overhead_of_empty_stats_is_zero(self):
        assert RegionStats().overhead_fraction == 0.0


class TestParallelRegion:
    def test_scopes_recorder_and_timer(self):
        rec = RegionRecorder(1)
        timer = Timer()
        with ParallelRegion("phase", rec, timer):
            assert rec.current_region == "phase"
            assert timer.running
        assert rec.current_region == UNATTRIBUTED
        assert not timer.running
        assert timer.count == 1

    def test_timer_optional(self):
        rec = RegionRecorder(1)
        with ParallelRegion("phase", rec):
            assert rec.current_region == "phase"

    def test_pops_on_exception(self):
        rec = RegionRecorder(1)
        with pytest.raises(ValueError):
            with ParallelRegion("phase", rec):
                raise ValueError("boom")
        assert rec.current_region == UNATTRIBUTED
