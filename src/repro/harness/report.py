"""Plain-text table rendering for the harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.benchmark import BenchmarkResult


@dataclass
class Table:
    """A rendered experiment table."""

    title: str
    headers: list[str]
    rows: list[list[str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *cells) -> None:
        self.rows.append([_fmt(c) for c in cells])


def _fmt(cell) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, float):
        if cell != cell:  # NaN -> not measured / not applicable
            return "-"
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        if abs(cell) >= 0.1:
            return f"{cell:.2f}"
        return f"{cell:.2e}"
    return str(cell)


def region_profile_table(result: "BenchmarkResult",
                         plan_info: dict[str, int] | None = None) -> Table:
    """The ``npb profile`` breakdown: one row per instrumented region.

    Columns follow the runtime's dispatch accounting
    (:mod:`repro.runtime.region`): ``inline`` counts the region's calls
    whose slabs ran on the master (sites below the team's measured
    crossover, or a degraded team); ``wall`` is master-side elapsed time in
    the region's dispatches; ``dispatch``/``execute``/``barrier`` are sums
    over workers; ``sync%`` is the region's synchronization overhead,
    ``(dispatch + barrier) / (dispatch + execute + barrier)`` -- the
    paper's per-phase overhead diagnosis (LU inner-loop synchronization,
    Table 1 start/notify cost) as first-class data.

    When the run traced allocations (``npb profile --alloc``), two more
    columns appear: ``alloc MB`` (gross bytes of temporary churn above
    each dispatch's entry footprint, summed over the region) and
    ``blocks`` (net allocator-block delta -- a leak signal when it keeps
    growing).
    """
    has_alloc = any(stats.get("alloc_bytes", 0) or stats.get("alloc_blocks", 0)
                    for stats in result.regions.values())
    columns = ["region", "calls", "inline", "wall s", "dispatch s",
               "execute s", "barrier s", "sync %"]
    if has_alloc:
        columns += ["alloc MB", "blocks"]
    table = Table(
        f"Region profile: {result.name}.{result.problem_class} "
        f"({result.backend} x{result.nworkers}, {result.niter} iterations)",
        columns,
    )
    totals = {"calls": 0, "inline": 0, "wall": 0.0, "dispatch": 0.0, "execute": 0.0,
              "barrier": 0.0, "alloc_bytes": 0, "alloc_blocks": 0}
    for name, stats in result.regions.items():
        sync = stats["dispatch_seconds"] + stats["barrier_seconds"]
        busy = sync + stats["execute_seconds"]
        row = [name, stats["calls"], stats.get("inline_calls", 0),
               stats["wall_seconds"],
               stats["dispatch_seconds"], stats["execute_seconds"],
               stats["barrier_seconds"],
               100.0 * sync / busy if busy > 0 else 0.0]
        if has_alloc:
            row += [stats.get("alloc_bytes", 0) / 1e6,
                    stats.get("alloc_blocks", 0)]
        table.add_row(*row)
        totals["calls"] += int(stats["calls"])
        totals["inline"] += int(stats.get("inline_calls", 0))
        totals["wall"] += stats["wall_seconds"]
        totals["dispatch"] += stats["dispatch_seconds"]
        totals["execute"] += stats["execute_seconds"]
        totals["barrier"] += stats["barrier_seconds"]
        totals["alloc_bytes"] += int(stats.get("alloc_bytes", 0))
        totals["alloc_blocks"] += int(stats.get("alloc_blocks", 0))
    sync = totals["dispatch"] + totals["barrier"]
    busy = sync + totals["execute"]
    total_row = ["TOTAL", totals["calls"], totals["inline"], totals["wall"],
                 totals["dispatch"], totals["execute"], totals["barrier"],
                 100.0 * sync / busy if busy > 0 else 0.0]
    if has_alloc:
        total_row += [totals["alloc_bytes"] / 1e6, totals["alloc_blocks"]]
    table.add_row(*total_row)
    table.notes.append(
        f"timed region {result.time_seconds:.4f}s; dispatch/execute/barrier "
        f"are summed over {result.nworkers} worker(s)")
    if has_alloc:
        table.notes.append(
            "alloc MB is gross temporary churn (tracemalloc peak rise per "
            "dispatch, summed); blocks is the net allocator-block delta")
    if plan_info is not None:
        table.notes.append(
            f"plan cache: {plan_info['entries']} partitions memoized, "
            f"{plan_info['hits']} hits / {plan_info['misses']} misses")
    return table


def bench_record_table(record: dict) -> Table:
    """One row per trajectory cell of a ``BENCH_*.json`` record."""
    env = record.get("environment", {})
    sequence = record.get("sequence", "-")
    table = Table(
        f"Bench trajectory record #{sequence} "
        f"(python {env.get('python', '?')}, numpy {env.get('numpy', '?')}, "
        f"git {str(env.get('git_sha', '?'))[:10]})",
        ["cell", "best s", "median s", "MAD s", "Mop/s", "verified",
         "faults"],
    )
    for cell in record.get("cells", []):
        table.add_row(
            cell["id"], cell["best_seconds"], cell["median_seconds"],
            cell["mad_seconds"], cell.get("mops", float("nan")),
            "yes" if cell.get("verified") else "NO",
            cell.get("faults", 0),
        )
    table.notes.append(
        f"min-of-{record.get('config', {}).get('repeat', '?')} timing; "
        f"MAD is the run-to-run noise bar")
    fault_cells = [cell["id"] for cell in record.get("cells", [])
                   if cell.get("faults")]
    if fault_cells:
        table.notes.append(
            "cells with fault-tolerance events (timings include "
            "respawn/degrade overhead): " + ", ".join(fault_cells))
    return table


def compare_table(comparison: dict) -> Table:
    """The verdict table of :func:`repro.harness.stats.compare`
    (``npb bench --compare``, ``npb loadgen --compare``)."""
    table = Table("Candidate vs baseline", ["row", "base", "cand", "change %",
                                            "spread %", "runs", "verdict"])
    for row in comparison["rows"]:
        table.add_row(
            row["id"], row["base"], row["cand"],
            None if row["change"] is None else 100.0 * row["change"],
            f"{100 * row['spread_base']:.0f}/{100 * row['spread_cand']:.0f}",
            "/".join(map(str, row["runs"])), row["verdict"])
    for key, label in (("missing", "only in baseline (not compared)"),
                       ("added", "only in candidate (no baseline yet)"),
                       ("slo_failed", "candidate SLO failed")):
        if comparison.get(key):
            table.notes.append(f"{label}: " + ", ".join(comparison[key]))
    counts = ", ".join(f"{n} {v}" for v, n in comparison["counts"].items())
    table.notes.append(
        f"{counts}; change is the median's, positive = worse; worse beyond "
        f"{100 * comparison['bound']:.0f}%, unresolved when a spread "
        f"exceeds that")
    return table


def format_table(table: Table) -> str:
    widths = [len(h) for h in table.headers]
    for row in table.rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells, pad=" "):
        return "  ".join(c.rjust(w) if i else c.ljust(w)
                         for i, (c, w) in enumerate(zip(cells, widths)))

    out = [table.title, "=" * len(table.title),
           line(table.headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in table.rows)
    for note in table.notes:
        out.append(f"  note: {note}")
    return "\n".join(out)
