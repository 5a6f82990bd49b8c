"""From measured operations to the named metrics of ``BENCHMARK.json``.

An *operation* is one verified result as its caller sees it: one
``benchmark.run()`` of a cell in a suite workload, one
``ServiceClient.submit`` in a service workload.  Every workload reports
every end-to-end metric, computed the same way from its operations.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass

from e2e.spans import Recorder, self_time_by_name
from e2e.stats import geomean, median, percentile

#: Span names whose self time the traced run reports as a share of the
#: whole (``share.<name>``); ``cell``/``request`` self time is ``other``.
SHARE_NAMES = ("setup", "http_in", "admit", "queue_wait", "run",
               "dispatch", "execute", "barrier", "http_out")


@dataclass
class Op:
    """One attempted operation."""

    cell: str                 # "CG.S.serial"
    latency_s: float          # caller's wall time to the verified result
    ok: bool                  # verified, and identical to the direct run
    error: str | None = None


def metric(value, unit: str, samples: int = 1) -> dict:
    """One measured value as every record carries it."""
    return {"value": float(value), "unit": unit, "samples": samples}


def peak_rss_mb(extra_bytes: int = 0) -> float:
    """Peak resident set of this interpreter, its waited-for children
    (process-team workers) and ``extra_bytes`` (the server's own peak)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0 + extra_bytes / (1024.0 * 1024.0)


def cell_medians(ops: list[Op]) -> dict[str, float]:
    """Cell -> median latency of its successful operations."""
    by_cell: dict[str, list[float]] = {}
    for op in ops:
        if op.ok:
            by_cell.setdefault(op.cell, []).append(op.latency_s)
    return {cell: median(values) for cell, values in by_cell.items()}


def end_to_end(ops: list[Op], op_counts: dict[str, float], wall_s: float,
               setup_s: float, rss_mb: float) -> dict[str, dict]:
    """The end-to-end metrics of one measured phase.

    ``op_counts`` maps cell -> NPB operation count of one run;
    ``wall_s`` is the wall time of the measured phase.  Failed
    operations are left out of every latency figure and counted by the
    caller in ``failed``.
    """
    good = [op for op in ops if op.ok]
    latencies = [op.latency_s for op in good]
    medians = cell_medians(good)
    n = len(good)
    return {
        "solve_time_s": metric(sum(medians.values()), "s", n),
        "mops_geomean": metric(
            geomean(op_counts[cell] / t / 1.0e6
                    for cell, t in medians.items()), "Mop/s", n),
        "job_latency_p50_ms": metric(
            1.0e3 * percentile(latencies, 50.0), "ms", n),
        "job_latency_p95_ms": metric(
            1.0e3 * percentile(latencies, 95.0), "ms", n),
        "jobs_per_s": metric(n / wall_s, "1/s", n),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def add_region_spans(recorder: Recorder, run_span: int, run_start: float,
                     regions: dict, request: str | None) -> None:
    """Children of a ``run`` span, copied from ``BenchmarkResult.regions``.

    Regions are aggregates, not intervals: each is laid after the
    previous one from the start of the run with its master-side wall
    time, and split into dispatch / execute / barrier in the proportion
    of the per-worker sums the run record carries.
    """
    cursor = run_start
    for stats in regions.values():
        wall = float(stats["wall_seconds"])
        parts = [float(stats[f"{part}_seconds"])
                 for part in ("dispatch", "execute", "barrier")]
        total = sum(parts)
        if wall <= 0.0 or total <= 0.0:
            continue
        region = recorder.add("region", cursor, cursor + wall, run_span,
                              request)
        start = cursor
        for name, part in zip(("dispatch", "execute", "barrier"), parts):
            end = start + wall * part / total
            recorder.add(name, start, end, region, request)
            start = end
        cursor += wall


def trace_shares(recorder: Recorder) -> dict[str, dict]:
    """``share.<layer>``: each layer's self time over all traced time."""
    by_name = self_time_by_name(recorder.spans)
    total = sum(by_name.values())
    shares = {name: by_name.get(name, 0.0) / total for name in SHARE_NAMES}
    shares["other"] = 1.0 - sum(shares.values())
    return {f"share.{name}": metric(value, "ratio", len(recorder.spans))
            for name, value in shares.items()}
