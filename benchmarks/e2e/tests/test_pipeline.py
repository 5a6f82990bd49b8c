"""The whole pipeline on a tiny size table patched in as module constants."""

import json

import pytest

from e2e import probes, run, service, suite

WORKLOADS = ("suite_small", "suite_large", "suite_parallel",
             "service_executed", "service_cached")


@pytest.fixture
def tiny(monkeypatch):
    cell = suite.Cell
    monkeypatch.setattr(suite, "SUITES", {
        "suite_small": (cell("IS", "S", reps=2), cell("MG", "S")),
        "suite_large": (cell("CG", "S"), cell("IS", "S")),
        "suite_parallel": (cell("IS", "S", "threads"),
                           cell("MG", "S", "process")),
    })
    monkeypatch.setattr(suite, "SPAWN_REPEATS", 1)
    monkeypatch.setattr(suite, "ROUND_SECONDS", {
        "suite_small": 0.1, "suite_large": 0.3, "suite_parallel": 1.0})
    monkeypatch.setattr(service, "EXECUTED_BLOCK", ("IS", "MG", "MG"))
    monkeypatch.setattr(service, "CACHED_CELLS", ("IS",))
    monkeypatch.setattr(service, "CACHED_VARIANTS", 2)
    monkeypatch.setattr(service, "SETUP_REPEATS", 1)
    monkeypatch.setattr(probes, "EXTENTS", {
        "small": {"mg": 10, "cfd": 8, "cg": (100, 4)},
        "large": {"mg": 18, "cfd": 10, "cg": (400, 8)},
    })
    monkeypatch.setattr(probes, "THIN_CELL", ("IS", "S"))
    monkeypatch.setattr(probes, "FAT_CELL", ("MG", "S"))
    monkeypatch.setattr(probes, "llc_bytes", lambda: 1 << 18)
    return run.load_spec()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_exactly_the_end_to_end_metrics(tiny, workload):
    record = run.run_workload(workload, 1, 0.3, False)
    assert run.check_names(record, tiny) == []
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] >= 2
    assert all(m["value"] > 0 for m in record["metrics"].values())
    line = json.loads(run.final_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {e["name"] for e in tiny["end_to_end"]}
    assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())
    assert record["stamp"]["seed"] == 1 and record["stamp"]["nproc"] >= 1
    if workload == "suite_small":
        # ceil(0.3 / 0.1) rounds of IS x2 + MG: the work follows --seconds
        assert record["attempted"] == 9


@pytest.mark.parametrize("workload", ["suite_parallel", "service_executed",
                                      "service_cached"])
def test_traced_run_prints_exactly_the_per_layer_metrics(tiny, workload):
    record = run.run_workload(workload, 2, 0.4, True)
    assert run.check_names(record, tiny) == []
    assert record["correct"], record["errors"]
    assert record["detail"]["spans_negative_by_1ms"] == 0
    metrics = record["metrics"]
    shares = [m["value"] for n, m in metrics.items() if n.startswith("share.")]
    assert sum(shares) == pytest.approx(1.0)
    assert metrics["trace.ops"]["value"] >= 1

    by_parent = {}
    for span in record["spans"]:
        by_parent.setdefault(span["parent"], []).append(span)
    roots = by_parent[None]
    if workload.startswith("suite"):
        assert {s["name"] for s in roots} == {"cell"}
        assert metrics["share.http_in"]["value"] == 0.0
        assert metrics["share.execute"]["value"] > 0.0
        assert metrics["count.executed"]["value"] == 0
    else:
        assert {s["name"] for s in roots} == {"request"}
        for root in roots:
            children = by_parent.get(root["span_id"])
            if children is None:  # coalesced onto an in-flight twin
                continue
            assert [c["name"] for c in children] == [
                "http_in", "admit", "queue_wait", "run", "http_out"]
            # client and server clocks agree, and the five intervals
            # account for the whole client latency
            assert min(c["end"] - c["start"] for c in children) > -1.0e-3
            assert sum(c["end"] - c["start"] for c in children) == \
                pytest.approx(root["end"] - root["start"], abs=1.0e-6)
    if workload == "service_cached":
        # the kernels did nothing: only the set-up submissions executed
        assert metrics["count.executed"]["value"] == 2
        assert metrics["count.cached"]["value"] >= metrics["trace.ops"]["value"]
        assert metrics["share.execute"]["value"] == 0.0
    if workload == "service_executed":
        assert metrics["count.cached"]["value"] == 0
        assert metrics["share.execute"]["value"] > 0.0


def test_leaves_nothing_behind(tiny):
    run.run_workload("service_cached", 1, 0.2, False)
    assert not run.os.path.exists(run.WORK)
    assert not run.os.path.exists(".npb-service-cache")


def _failing_record(*_args):
    return {"workload": "suite_small", "seed": 1, "seconds": 1.0, "trace": 0,
            "attempted": 4, "failed": 1, "errors": ["unverified"],
            "correct": False, "metrics": {}}


def test_exit_code_is_nonzero_on_an_unverified_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "run_workload", _failing_record)
    monkeypatch.setattr(run, "SRC", run.os.path.join(run.ROOT, "src"))
    code = run.main(["--workload", "suite_small", "--seconds", "1"])
    assert code == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1


def test_exit_code_is_nonzero_when_a_declared_metric_is_missing(tiny):
    record = run.run_workload("suite_small", 1, 0.2, False)
    del record["metrics"]["jobs_per_s"]
    record["metrics"]["extra"] = {"value": 1.0, "unit": "s", "samples": 1}
    problems = run.check_names(record, tiny)
    assert any("jobs_per_s" in p and "not measured" in p for p in problems)
    assert any("extra" in p and "not declared" in p for p in problems)


def test_refuses_to_run_without_the_program(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", "/nonexistent/src")
    assert run.main(["--workload", "suite_small"]) == 2
    assert capsys.readouterr().out == ""
