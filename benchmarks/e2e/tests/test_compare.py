import json

import pytest

from e2e import compare

SPEC = {
    "workloads": [{"name": "w", "why": ""}],
    "end_to_end": [
        {"name": "t_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}


def result(times, rates):
    return {"workloads": {"w": {"runs": [
        {"correct": True, "metrics": {"t_s": {"value": t, "unit": "s"},
                                      "rate": {"value": r, "unit": "1/s"}}}
        for t, r in zip(times, rates)]}}}


def verdicts(a, b):
    return {row["metric"]: row["verdict"] for row in compare.compare(a, b, SPEC)}


def test_identical_inputs_pass():
    a = result([1.0, 1.01, 0.99, 1.0, 1.02], [10.0, 10.1, 9.9, 10.0, 10.0])
    assert verdicts(a, a) == {"t_s": "unchanged", "rate": "unchanged"}


def test_a_twofold_slowdown_is_flagged():
    a = result([1.0, 1.01, 0.99, 1.0, 1.02], [10.0, 10.1, 9.9, 10.0, 10.0])
    b = result([2.0, 2.02, 1.98, 2.0, 2.04], [5.0, 5.05, 4.95, 5.0, 5.0])
    assert verdicts(a, b) == {"t_s": "worse", "rate": "worse"}
    assert verdicts(b, a) == {"t_s": "better", "rate": "better"}


def test_a_spread_wider_than_the_bound_is_unresolved():
    a = result([1.0, 1.3, 0.8, 1.2, 0.9], [10.0] * 5)
    b = result([1.05, 1.3, 0.8, 1.2, 0.9], [10.0] * 5)
    assert verdicts(a, b)["t_s"] == "unresolved"
    # ... unless every run of B beats every run of A
    c = result([0.5, 0.6, 0.4, 0.55, 0.45], [10.0] * 5)
    assert verdicts(a, c)["t_s"] == "better"


def test_a_missing_metric_or_failed_run_is_unresolved():
    a = result([1.0, 1.0], [10.0, 10.0])
    b = result([1.0, 1.0], [10.0, 10.0])
    for run in b["workloads"]["w"]["runs"]:
        run["correct"] = False
    assert set(verdicts(a, b).values()) == {"unresolved"}


def test_command_line_exit_codes(tmp_path, capsys):
    spec = compare.os.path.join(
        compare.os.path.dirname(compare.os.path.dirname(compare.HERE)),
        "BENCHMARK.json")
    with open(spec) as fh:
        declared = json.load(fh)

    def full(scale):
        return {"workloads": {w["name"]: {"runs": [
            {"correct": True, "metrics": {
                e["name"]: {"value": (scale if e["better"] == "lower"
                                      else 1.0 / scale) * (1 + 0.001 * i),
                            "unit": e["unit"]}
                for e in declared["end_to_end"]}} for i in range(5)]}
            for w in declared["workloads"]}}

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(full(1.0)))
    b.write_text(json.dumps(full(2.0)))
    assert compare.main([str(a), str(a)]) == 0
    assert "0 worse or unresolved" in capsys.readouterr().out
    assert compare.main([str(a), str(b)]) == 1
    rows = len(declared["workloads"]) * len(declared["end_to_end"])
    assert f"{rows} rows: {rows} worse" in capsys.readouterr().out
    assert compare.main([]) == 2
