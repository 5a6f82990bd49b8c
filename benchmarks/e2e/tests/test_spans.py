import pytest

from e2e.metrics import SHARE_NAMES, add_region_spans, trace_shares
from e2e.spans import Recorder, covered, self_time_by_name, self_times


def test_self_time_is_duration_minus_what_children_cover():
    recorder = Recorder()
    root = recorder.add("request", 0.0, 10.0)
    recorder.add("http_in", 0.0, 2.0, root)
    run = recorder.add("run", 2.0, 9.0, root)
    recorder.add("execute", 3.0, 8.0, run)
    own = self_times(recorder.spans)
    assert own[root] == pytest.approx(1.0)   # 9..10 is uncovered
    assert own[run] == pytest.approx(2.0)    # 2..3 and 8..9
    assert self_time_by_name(recorder.spans) == pytest.approx(
        {"request": 1.0, "http_in": 2.0, "run": 2.0, "execute": 5.0})


def test_overlapping_children_are_counted_once_and_clipped():
    assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]) == pytest.approx(5.0)
    assert covered(0.0, 10.0, [(-5.0, 2.0), (8.0, 20.0)]) == pytest.approx(4.0)
    assert covered(0.0, 10.0, []) == 0.0


def test_self_times_sum_to_the_root_duration():
    recorder = Recorder()
    root = recorder.add("cell", 0.0, 4.0)
    recorder.add("setup", 0.0, 1.0, root)
    run = recorder.add("run", 1.0, 4.0, root)
    add_region_spans(recorder, run, 1.0, {
        "rhs": {"wall_seconds": 2.0, "dispatch_seconds": 1.0,
                "execute_seconds": 2.0, "barrier_seconds": 1.0},
        "idle": {"wall_seconds": 0.0, "dispatch_seconds": 0.0,
                 "execute_seconds": 0.0, "barrier_seconds": 0.0},
    }, "r1")
    by_name = self_time_by_name(recorder.spans)
    assert sum(by_name.values()) == pytest.approx(4.0)
    # the region's 2 s of wall split 1:2:1, the rest of run is its own
    assert by_name["dispatch"] == pytest.approx(0.5)
    assert by_name["execute"] == pytest.approx(1.0)
    assert by_name["barrier"] == pytest.approx(0.5)
    assert by_name["run"] == pytest.approx(1.0)
    assert by_name["region"] == pytest.approx(0.0)

    shares = trace_shares(recorder)
    assert set(shares) == {f"share.{n}" for n in SHARE_NAMES} | {"share.other"}
    assert sum(m["value"] for m in shares.values()) == pytest.approx(1.0)
    assert shares["share.setup"]["value"] == pytest.approx(0.25)
    assert shares["share.http_in"]["value"] == 0.0


def test_extend_renumbers_ids_and_parents():
    first, second = Recorder(), Recorder()
    first.add("request", 0.0, 1.0, None, "a")
    parent = second.add("request", 1.0, 2.0, None, "b")
    second.add("run", 1.2, 1.8, parent, "b")
    first.extend(second)
    assert [s.span_id for s in first.spans] == [0, 1, 2]
    assert first.spans[2].parent == 1
    assert first.spans[1].parent is None
    assert first.to_json()[2]["request"] == "b"
