"""The benchmark command.

One workload, as the driver runs it::

    python3 benchmarks/e2e/run.py --workload suite_small --seed 1 \\
        --seconds 10 --trace 0

prints every metric by name with its unit and sample count, then one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced for
``--seconds``; with ``--trace 1`` the per-layer ones: the workload runs
half the time untraced and half with the benchmark's span recorder on,
and every micro-probe is taken.

Without ``--workload`` the command runs every workload ``--runs`` times
untraced (seeds ``--seed``, ``--seed`` + 1, ...) and once traced, each
in a fresh interpreter, and writes the whole result set to ``--out``
(the input of ``compare.py``).

Exit code 0 only when every operation verified and the metric names
printed are exactly those ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: Everything the benchmark writes (server cache directories, probe
#: caches, per-run records) lives here, inside the checkout, and is
#: removed before the command returns.
WORK = os.path.join(HERE, ".work")

RESULT_SCHEMA = 1


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def server_counts(status: dict) -> dict:
    """``count.*`` and ``cache.hit_ratio`` from ``/status`` when the
    workload ends; all zero for a suite workload, which has no server."""
    from e2e.metrics import metric

    scheduler = status.get("scheduler", {})
    dedup = status.get("dedup", {})
    counts = {
        "executed": scheduler.get("executed", 0),
        "cached": scheduler.get("cached", 0),
        "coalesced": dedup.get("coalesced", 0),
        "duplicate_executions": dedup.get("duplicate_executions", 0),
        "cold_spawns": status.get("pool", {}).get("cold_spawns", 0),
        "rejected_429": status.get("rejected_429", 0),
    }
    return {
        **{f"count.{name}": metric(value, "count")
           for name, value in counts.items()},
        "cache.hit_ratio": metric(
            status.get("cache", {}).get("hit_rate", 0.0), "ratio"),
    }


def remove_work_dir() -> None:
    """Servers and probes empty ``WORK`` themselves; drop the shell."""
    try:
        os.rmdir(WORK)
    except OSError:
        pass


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; the record ``main`` prints and writes."""
    try:
        return _run_workload(name, seed, seconds, trace)
    finally:
        remove_work_dir()


def _run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from e2e import metrics as m
    from e2e.probes import run_probes
    from e2e.service import ServiceRun
    from e2e.stats import host_stamp, percentile, reportable
    from e2e.suite import SUITES, SuiteRun

    if name in SUITES:
        run = SuiteRun(name)
    else:
        run = ServiceRun(name, seed, SRC, WORK)
    recorder = None
    try:
        run.open()
        if trace:
            base_ops, base_wall, _ = run.measure(seconds / 2.0)
            ops, wall, recorder = run.measure(seconds / 2.0, traced=True)
        else:
            ops, wall, _ = run.measure(seconds)
            base_ops, base_wall = ops, wall
        status = run.server_status()
    finally:
        run.close()

    attempted = ops if not trace else base_ops + ops
    errors = [op.error for op in attempted if not op.ok]
    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "stamp": host_stamp(ROOT, seed),
        "attempted": len(attempted), "failed": len(errors),
        "errors": errors[:10],
    }
    if len(errors) == len(attempted):
        record.update(correct=False, metrics={})
        return record

    end_to_end = m.end_to_end(
        base_ops, run.op_counts, base_wall, run.setup_s,
        m.peak_rss_mb(status.get("rss_bytes", 0)))
    good = [op.latency_s for op in base_ops if op.ok]
    record["detail"] = {
        "cell_median_s": m.cell_medians(base_ops),
        "measured_wall_s": base_wall,
        "server_rss_bytes": status.get("rss_bytes"),
    }
    if reportable(len(good), 99.0):
        record["detail"]["job_latency_p99_ms"] = 1e3 * percentile(good, 99.0)

    if not trace:
        record["metrics"] = end_to_end
    else:
        traced = m.end_to_end(ops, run.op_counts, wall, run.setup_s, 0.0)
        # Spans are cut from wall-clock stamps of two processes; a clock
        # step during the run shows here.  Reported, not failed: the
        # operations themselves verified.
        record["detail"]["spans_negative_by_1ms"] = sum(
            1 for span in recorder.spans if span.duration < -1.0e-3)
        probes, info = run_probes(seed, SRC, WORK)
        record["detail"]["probes"] = info
        record["metrics"] = {
            **probes,
            **m.trace_shares(recorder),
            **server_counts(status),
            "trace.ops": m.metric(len(ops), "count", len(ops)),
            "trace.op_ms": m.metric(
                traced["job_latency_p50_ms"]["value"], "ms", len(ops)),
            "trace.overhead_frac": m.metric(
                traced["solve_time_s"]["value"]
                / end_to_end["solve_time_s"]["value"] - 1.0,
                "ratio", len(ops)),
        }
        record["spans"] = recorder.to_json()
    record["correct"] = not record["errors"]
    return record


def check_names(record: dict, spec: dict) -> list[str]:
    """Differences between the metrics printed and those declared."""
    declared = {entry["name"]: entry["unit"] for entry in
                spec["per_layer" if record["trace"] else "end_to_end"]}
    printed = {name: metric["unit"]
               for name, metric in record["metrics"].items()}
    problems = [f"metric {name!r} is declared but was not measured"
                for name in sorted(declared.keys() - printed.keys())]
    problems += [f"metric {name!r} was measured but is not declared"
                 for name in sorted(printed.keys() - declared.keys())]
    problems += [f"metric {name!r} has unit {printed[name]!r}, declared "
                 f"{declared[name]!r}"
                 for name in sorted(declared.keys() & printed.keys())
                 if declared[name] != printed[name]]
    return problems


def metric_line(name: str, metric: dict) -> str:
    return (f"{name:<44} {metric['value']:>16.6g} {metric['unit']:<6} "
            f"n={metric['samples']}")


def print_metrics(record: dict) -> None:
    print(f"# {record['workload']}  seed {record['seed']}  "
          f"{record['seconds']:g} s  trace {record['trace']}  "
          f"attempted {record['attempted']}  failed {record['failed']}")
    for name, metric in record["metrics"].items():
        print(metric_line(name, metric))
    detail = record.get("detail", {})
    for cell, seconds in sorted(detail.get("cell_median_s", {}).items()):
        print(f"  cell {cell:<20} median {seconds:.6f} s")
    if detail.get("spans_negative_by_1ms"):
        print(f"  WARNING {detail['spans_negative_by_1ms']} span(s) negative "
              f"by more than 1 ms: a wall clock stepped during the run")
    if "job_latency_p99_ms" in detail:
        print(f"  job_latency_p99_ms {detail['job_latency_p99_ms']:.4f} "
              f"(>= 10 samples beyond it)")
    for error in record["errors"]:
        print(f"  ERROR {error}")


def final_line(record: dict) -> str:
    return json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in record["metrics"].items()},
    })


def run_one(args, spec: dict) -> int:
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    problems = check_names(record, spec)
    record["errors"].extend(problems)
    record["correct"] = record["correct"] and not problems
    print_metrics(record)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    print(final_line(record))
    return 0 if record["correct"] else 1


def _child_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in a fresh interpreter; its record without the spans."""
    fd, path = tempfile.mkstemp(suffix=".json", dir=WORK)
    os.close(fd)
    try:
        code = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--out", path],
            stdout=subprocess.DEVNULL).returncode
        if not os.path.getsize(path):
            raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                               f"with code {code} and left no record")
        with open(path) as fh:
            record = json.load(fh)
    finally:
        os.unlink(path)
    record.pop("spans", None)
    return record


def run_all(args, spec: dict) -> int:
    """Every workload, ``--runs`` untraced runs and one traced, each in
    its own interpreter so peak memory and warm state do not leak."""
    from e2e.stats import host_stamp, median, spread

    os.makedirs(WORK, exist_ok=True)
    result = {"schema": RESULT_SCHEMA, "stamp": host_stamp(ROOT, args.seed),
              "seconds": args.seconds, "workloads": {}}
    failed = False
    for workload in (entry["name"] for entry in spec["workloads"]):
        seeds = [args.seed + index for index in range(args.runs)]
        records = [_child_run(workload, seed, args.seconds, 0)
                   for seed in seeds]
        traced = _child_run(workload, args.seed, args.seconds, 1)
        result["workloads"][workload] = {"runs": records, "traced": traced}
        failed = failed or not all(
            record["correct"] for record in records + [traced])
        print(f"# {workload}: {len(records)} untraced run(s), seeds {seeds}")
        for entry in spec["end_to_end"]:
            values = [record["metrics"][entry["name"]]["value"]
                      for record in records
                      if entry["name"] in record["metrics"]]
            if values:
                print(f"{entry['name']:<24} median {median(values):>14.6g} "
                      f"{entry['unit']:<6} spread {spread(values):.4f} "
                      f"(bound {entry['bound']}) n={len(values)}")
        for name, metric in traced["metrics"].items():
            print(metric_line(name, metric))
    remove_work_dir()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    return 1 if failed else 0


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"benchmarks/e2e: no program to measure: {SRC}/repro is "
              f"missing", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, os.path.dirname(HERE)]
    spec = load_spec()
    workloads = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record here")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload when --workload "
                             "is not given")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


def command(argv=None) -> int:
    """``main`` as a process of its own: when it returns, whatever way,
    every process it started has ended and has been waited for."""
    sys.path.insert(0, os.path.dirname(HERE))
    from e2e import reap

    reap.adopt_orphans()
    reap.exit_on_sigterm()
    try:
        return main(argv)
    finally:
        left = reap.reap_all()
        if left:
            print(f"benchmarks/e2e: {left} process(es) had to be signalled "
                  f"to end", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(command())
