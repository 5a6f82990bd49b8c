"""Benchmark-trajectory subsystem: ``npb bench`` records and comparator.

The source paper's contribution is a set of measured tables; this module
gives the reproduction the same discipline over time.  ``npb bench`` runs
a configurable set of *cells* -- ``(benchmark, class, backend, workers)``
whole-benchmark runs plus the Table-1 basic-operation kernels -- with
``--repeat N`` min-of-k timing (:mod:`repro.harness.stats`), stamps an
environment fingerprint, and appends a schema-versioned ``BENCH_<seq>.json``
record to the repository's perf trajectory.  Each benchmark cell carries
its per-region dispatch/execute/barrier split
(:mod:`repro.runtime.region`), so a regression can be localized to a phase
without rerunning anything.

``npb bench --compare BASELINE.json [CANDIDATE.json]`` matches cells
between two records and judges each cell's repeat times by the
repository's one comparison rule (:func:`repro.harness.stats.verdict`):
a cell is *worse* when its median time grew by more than the tolerance,
*unresolved* when either record's repeats spread wider than it.  The
command exits nonzero on any worse cell, which is what lets CI gate on
it (see docs/benchmarking.md).
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from repro import run_benchmark
from repro.core import basic_ops
from repro.harness import records
from repro.harness.stats import compare, summarize, time_callable

#: Version of the BENCH_*.json record layout.
#: v2: benchmark cells carry ``faults`` (total fault events over the
#: cell's repeats) and ``fault_counts`` (events by kind); v1 records are
#: migrated on load with zero faults.
#: v3: benchmark-cell region dicts carry ``alloc_bytes``/``alloc_blocks``
#: (per-region allocation accounting; zeros unless the suite ran with
#: allocation tracing).  v1/v2 records are migrated on load with zeros.
#: v4: benchmark cells carry the job-service fields ``job_id``,
#: ``cache_hit`` and ``queue_wait_seconds`` (see :mod:`repro.service`);
#: direct ``npb bench`` runs record null/false/zero, and v1-v3 records
#: are migrated on load the same way (a recorded cell back then could
#: only have been a direct run).
#: v5: benchmark cells named a kernel tier (removed again in v7).
#: v6: benchmark cells carry ``tenant`` and ``coalesced_with`` (the
#: async-front-end provenance; see :mod:`repro.service.async_api`).
#: Direct ``npb bench`` runs record null for both, and v1-v5 records are
#: migrated on load the same way (no recorded cell predating the async
#: front end could have been tenant-tagged or coalesced).
#: v7: v6 minus the kernel-tier column of benchmark cells and the
#: JIT-compiler version of the environment stamp -- every slab kernel
#: has one form.  v5/v6 cells lose the column on load.
SCHEMA_VERSION = 7

#: The ``kind`` tag every record carries (guards against loading foreign JSON).
RECORD_KIND = "npb-bench-record"

#: Trajectory file naming: BENCH_0001.json, BENCH_0002.json, ...
RECORD_PREFIX = "BENCH"

#: The comparator's ``bound``: the share a cell's median time may grow by.
DEFAULT_TOLERANCE = 0.10


# ===================================================================== #
# cells
# ===================================================================== #


@dataclass(frozen=True)
class BenchCell:
    """One whole-benchmark trajectory cell."""

    benchmark: str
    problem_class: str
    backend: str
    workers: int

    @property
    def cell_id(self) -> str:
        return (
            f"{self.benchmark}.{self.problem_class}."
            f"{self.backend}.x{self.workers}"
        )

    @classmethod
    def parse(cls, spec: str) -> "BenchCell":
        """Parse a ``BENCH:CLASS:BACKEND:WORKERS`` spec (``CG:S:threads:2``)."""
        parts = spec.split(":")
        if len(parts) != 4:
            raise ValueError(
                f"cell spec {spec!r} is not BENCHMARK:CLASS:BACKEND:WORKERS"
            )
        name, problem_class, backend, workers = parts
        return cls(name.upper(), problem_class.upper(), backend, int(workers))


@dataclass(frozen=True)
class KernelCell:
    """One Table-1 basic-operation trajectory cell."""

    op: str
    style: str
    grid: tuple[int, int, int]

    @property
    def cell_id(self) -> str:
        nx, ny, nz = self.grid
        return f"basic_op.{self.op}.{self.style}.{nx}x{ny}x{nz}"


#: Class-S cell set small enough for shared CI runners (``--quick``).
QUICK_CELLS: tuple[BenchCell, ...] = (
    BenchCell("CG", "S", "serial", 1),
    BenchCell("MG", "S", "serial", 1),
    BenchCell("IS", "S", "serial", 1),
    BenchCell("FT", "S", "serial", 1),
    BenchCell("CG", "S", "threads", 2),
    BenchCell("MG", "S", "threads", 2),
)

#: Default cell set: the full suite serially plus the paper's interesting
#: parallel cases (LU sync overhead under threads, EP under processes).
#: QUICK_CELLS is a subset, so a full baseline can gate quick CI runs.
FULL_CELLS: tuple[BenchCell, ...] = (
    BenchCell("BT", "S", "serial", 1),
    BenchCell("SP", "S", "serial", 1),
    BenchCell("LU", "S", "serial", 1),
    BenchCell("FT", "S", "serial", 1),
    BenchCell("MG", "S", "serial", 1),
    BenchCell("CG", "S", "serial", 1),
    BenchCell("IS", "S", "serial", 1),
    BenchCell("EP", "S", "serial", 1),
    BenchCell("CG", "S", "threads", 2),
    BenchCell("MG", "S", "threads", 2),
    BenchCell("FT", "S", "threads", 2),
    BenchCell("LU", "S", "threads", 2),
    BenchCell("EP", "S", "process", 2),
)

_QUICK_GRID = basic_ops.SMALL_GRID
_FULL_GRID = (24, 24, 30)


def _kernel_cells(style: str, grid: tuple[int, int, int]) -> tuple[KernelCell, ...]:
    return tuple(KernelCell(op, style, grid) for op in basic_ops.OPERATIONS)


#: Table-1 kernels for --quick: the NumPy (f77 role) style on the small grid.
QUICK_KERNELS: tuple[KernelCell, ...] = _kernel_cells("numpy", _QUICK_GRID)

#: Default kernels: both paper roles; the quick set is again a subset.
FULL_KERNELS: tuple[KernelCell, ...] = (
    QUICK_KERNELS
    + _kernel_cells("numpy", _FULL_GRID)
    + _kernel_cells("python", _QUICK_GRID)
)


# ===================================================================== #
# environment fingerprint
# ===================================================================== #


def git_sha() -> str:
    """HEAD of the working tree (``"unknown"`` outside a checkout)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment_fingerprint() -> dict:
    """Stamp that makes two records comparable (or explains why not)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "hostname": platform.node(),
        "git_sha": git_sha(),
    }


# ===================================================================== #
# suite runner
# ===================================================================== #


def run_bench_cell(cell: BenchCell, repeat: int) -> dict:
    """Run one benchmark cell ``repeat`` times; keep the best run's detail."""
    results = []
    for _ in range(repeat):
        results.append(
            run_benchmark(
                cell.benchmark, cell.problem_class, cell.backend, cell.workers
            )
        )
    times = [r.time_seconds for r in results]
    summary = summarize(times)
    best = results[times.index(summary.best)]
    fault_counts: dict[str, int] = {}
    for result in results:
        for kind, count in result.fault_counts.items():
            fault_counts[kind] = fault_counts.get(kind, 0) + count
    record = {
        "id": cell.cell_id,
        "kind": "benchmark",
        "benchmark": cell.benchmark,
        "problem_class": cell.problem_class,
        "backend": cell.backend,
        "workers": cell.workers,
        "verified": all(r.verified for r in results),
        "mops": best.mops,
        "regions": {name: dict(stats) for name, stats in best.regions.items()},
        # fault-tolerance events summed over all repeats: a trajectory
        # cell that only stays fast because workers keep dying and
        # degrading to serial must not look healthy
        "faults": sum(fault_counts.values()),
        "fault_counts": fault_counts,
        # job-service fields (schema v4): bench cells are direct runs,
        # so they carry the same nulls a non-service `npb run` would
        "job_id": best.job_id,
        "cache_hit": best.cache_hit,
        "queue_wait_seconds": best.queue_wait_seconds,
        # async-front-end provenance (schema v6): bench cells are direct
        # runs, never tenant-tagged and never coalesced
        "tenant": best.tenant,
        "coalesced_with": best.coalesced_with,
    }
    record.update(summary.as_dict())
    return record


def run_kernel_cell(cell: KernelCell, repeat: int) -> dict:
    """Time one Table-1 basic operation ``repeat`` times."""
    workload = basic_ops.make_workload(cell.grid)
    summary = time_callable(
        lambda: basic_ops.run_operation(cell.op, cell.style, workload),
        repeat=repeat,
    )
    record = {
        "id": cell.cell_id,
        "kind": "basic_op",
        "op": cell.op,
        "style": cell.style,
        "grid": list(cell.grid),
        "verified": True,
    }
    record.update(summary.as_dict())
    return record


def run_suite(
    cells=FULL_CELLS,
    kernels=FULL_KERNELS,
    repeat: int = 3,
    quick: bool = False,
    progress=None,
    trace_alloc: bool = False,
) -> dict:
    """Run the suite and return a schema-versioned trajectory record.

    With ``trace_alloc`` the suite runs under ``tracemalloc``, populating
    the per-region ``alloc_bytes``/``alloc_blocks`` fields.  Tracing slows
    every cell, so traced records must only be compared against other
    traced records (the flag is stamped into ``config``); CI's wall-time
    gate keeps tracing off.
    """
    import tracemalloc

    was_tracing = tracemalloc.is_tracing()
    if trace_alloc and not was_tracing:
        tracemalloc.start()
    try:
        measured = []
        for cell in tuple(cells) + tuple(kernels):
            if progress is not None:
                progress(f"  bench {cell.cell_id} (repeat {repeat})")
            if isinstance(cell, BenchCell):
                measured.append(run_bench_cell(cell, repeat))
            else:
                measured.append(run_kernel_cell(cell, repeat))
    finally:
        if trace_alloc and not was_tracing:
            tracemalloc.stop()
    return {
        "kind": RECORD_KIND,
        "schema_version": SCHEMA_VERSION,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": environment_fingerprint(),
        "config": {
            "repeat": repeat,
            "quick": quick,
            "trace_alloc": trace_alloc,
            "cells": [c.cell_id for c in cells],
            "kernels": [k.cell_id for k in kernels],
        },
        "cells": measured,
    }


# ===================================================================== #
# record IO (the BENCH_<seq>.json trajectory)
# ===================================================================== #


def write_record(record: dict, directory: str = ".", path: str | None = None) -> str:
    """Write ``record``; default name continues the trajectory sequence.

    Sequence numbers are claimed atomically (``O_EXCL`` create-and-retry
    in :mod:`repro.harness.records`), so two runs appending to the same
    directory concurrently never overwrite each other's record.
    """
    if path is None:
        return records.append_record(record, directory, RECORD_PREFIX)
    return records.write_json_record(record, path)


def _migrate_record(record: dict, version: int) -> dict:
    """Upgrade an older-schema record in memory (never rewritten on disk)."""
    if version < 2:
        # v1 predates fault tracking; a recorded run back then could not
        # have completed with faults, so zero is the faithful migration.
        for cell in record.get("cells", []):
            if cell.get("kind") == "benchmark":
                cell.setdefault("faults", 0)
                cell.setdefault("fault_counts", {})
    if version < 3:
        # v2 predates allocation accounting, which is opt-in anyway
        # (untraced runs record zeros), so zero is the faithful migration.
        for cell in record.get("cells", []):
            for stats in cell.get("regions", {}).values():
                stats.setdefault("alloc_bytes", 0)
                stats.setdefault("alloc_blocks", 0)
    if version < 4:
        # v3 predates the job service; every recorded cell was a direct
        # run, so null/false/zero is the faithful migration.
        for cell in record.get("cells", []):
            if cell.get("kind") == "benchmark":
                cell.setdefault("job_id", None)
                cell.setdefault("cache_hit", False)
                cell.setdefault("queue_wait_seconds", 0.0)
    if version < 6:
        # v5 predates the async front end; no recorded cell could have
        # been tenant-tagged or coalesced, so null is the faithful
        # migration for both.
        for cell in record.get("cells", []):
            if cell.get("kind") == "benchmark":
                cell.setdefault("tenant", None)
                cell.setdefault("coalesced_with", None)
    if version < 7:
        # v5 and v6 cells named the kernel tier they ran at.  Only
        # "fused" was ever the production form, so a fused cell just
        # loses the column (older cells never had it); a cell measured
        # at another tier has no counterpart any more and is dropped.
        kept = []
        for cell in record.get("cells", []):
            tier = cell.pop("kernel_backend", "fused")
            if tier == "fused":
                kept.append(cell)
            else:
                print(f"npb bench: dropping cell {cell.get('id')!r} "
                      f"measured at removed kernel tier {tier!r}",
                      file=sys.stderr)
        record["cells"] = kept
    if version < SCHEMA_VERSION:
        record["schema_version"] = SCHEMA_VERSION
    return record


def load_record(path: str) -> dict:
    """Load and sanity-check one trajectory record.

    Records written by older schema versions are migrated in memory;
    records from a *newer* schema are rejected.
    """
    return records.load_record(
        path, RECORD_KIND, SCHEMA_VERSION, "npb bench", _migrate_record
    )


# ===================================================================== #
# comparator
# ===================================================================== #


def compare_records(
    baseline: dict, candidate: dict, tolerance: float = DEFAULT_TOLERANCE
) -> dict:
    """Judge each shared cell's repeat times by :func:`stats.compare`."""
    return compare(
        {cell["id"]: cell["times_seconds"] for cell in baseline["cells"]},
        {cell["id"]: cell["times_seconds"] for cell in candidate["cells"]},
        "lower",
        tolerance,
    )


def latest_record_path(directory: str = ".") -> str | None:
    """Path of the highest-sequence BENCH_<seq>.json, if any."""
    return records.latest_record_path(directory, RECORD_PREFIX)
