"""Regeneration of the paper's Tables 1-7.

Every table exists in two modes:

``simulated`` (default)
    The calibrated machine models predict each cell for the paper's
    hardware (IBM p690, SGI Origin2000, SUN E10000, PIII PC, G4 Xserve).
    This reproduces the *shape* of the published tables: Java/Fortran
    ratios, speedups, scheduler pathologies, crossovers.

``measured``
    The real NumPy ("Fortran" role) and interpreted-Python ("Java" role)
    implementations run on the local host, including the team backends.
    Absolute numbers are host-dependent; ratios mirror the paper's
    methodology.  Tables 2-6 are one table per machine in the paper and
    this host is one machine, so any of them measured is the same host
    table; every cell is taken by ``npb bench``'s own cell runners.
"""

from __future__ import annotations

import os

from repro.core.basic_ops import OPERATIONS, SMALL_GRID
from repro.harness import bench
from repro.harness.report import Table
from repro.harness.stats import time_callable
from repro.lufact import (
    LU_CLASSES_TABLE7,
    dgetrf_blocked,
    lufact_loops,
    lufact_numpy,
    lufact_ops,
    make_system,
)
from repro.machines import machine, predict_basic_op, predict_benchmark
from repro.machines.spec import OpCategory
from repro.team.base import team_worker_counts

#: Benchmarks in the paper's table order.
TABLE_BENCHMARKS = ["BT", "SP", "LU", "FT", "IS", "CG", "MG"]

TABLES = (1, 2, 3, 4, 5, 6, 7)

#: The distinct measured tables (2 stands for the host table, 2-6).
MEASURED_TABLES = (1, 2, 7)


def generate_table(number: int, mode: str = "simulated",
                   problem_class: str = "A", **kwargs) -> Table:
    """Build the reproduction of paper Table ``number``."""
    if mode not in ("simulated", "measured"):
        raise ValueError(f"unknown mode {mode!r}")
    builders = {
        1: _table1, 2: _table2, 3: _table3, 4: _table4,
        5: _table5, 6: _table6, 7: _table7,
    }
    try:
        builder = builders[number]
    except KeyError:
        raise ValueError(f"the paper has tables 1-7, not {number}") from None
    return builder(mode, problem_class, **kwargs)


# --------------------------------------------------------------------- #
# Table 1: basic CFD operations

_OP_LABELS = {
    "assignment": "Assignment (10 iterations)",
    "stencil1": "First Order Stencil",
    "stencil2": "Second Order Stencil",
    "matvec5": "Matrix vector multiplication",
    "reduction": "Reduction Sum",
}


def _table1(mode: str, problem_class: str, grid=None) -> Table:
    if mode == "simulated":
        spec = machine("origin2000")
        threads = [1, 2, 4, 8, 16]
        table = Table(
            "Table 1: basic CFD operations on the SGI Origin2000 "
            "(simulated; seconds, grid 81x81x100)",
            ["Operation", "f77", "Java serial"]
            + [f"Java {t}thr" for t in threads],
        )
        for op in OPERATIONS:
            f77 = predict_basic_op(spec, op, "f77")
            serial = predict_basic_op(spec, op, "java")
            cells = [f77, serial]
            cells += [predict_basic_op(spec, op, "java", t) for t in threads]
            table.add_row(_OP_LABELS[op], *cells)
        table.notes.append(
            "anchors: Java/f77 3.3 (assignment) ... 12.4 (2nd-order "
            "stencil); 16-thread speedup ~7 compute ops, 5-6 memory ops")
        return table

    grid = grid or SMALL_GRID
    table = Table(
        f"Table 1 (measured on this host; seconds, grid {grid})",
        ["Operation", "numpy (f77 role)", "python (Java role)",
         "ratio", "python multidim", "multidim/linear"],
    )
    for op in OPERATIONS:
        # min-of-3, the `npb bench` kernel cell: a single cold call would
        # charge the numpy styles their one-time warm-up (ufunc loop
        # selection, arena pool allocation) and swamp the tiny-grid ratios.
        times = {
            style: bench.run_kernel_cell(
                bench.KernelCell(op, style, grid), repeat=3
            )["best_seconds"]
            for style in ("numpy", "python", "python_multidim")
        }
        table.add_row(
            _OP_LABELS[op], times["numpy"], times["python"],
            times["python"] / times["numpy"], times["python_multidim"],
            times["python_multidim"] / times["python"],
        )
    return table


# --------------------------------------------------------------------- #
# Tables 2-6: benchmark times

def _benchmark_table(mode: str, machine_key: str, title: str,
                     problem_class: str, thread_counts: list[int],
                     with_openmp: bool) -> Table:
    if mode == "simulated":
        spec = machine(machine_key)
        table = Table(
            f"{title} (simulated; class {problem_class}, seconds)",
            ["Benchmark", "Serial"] + [str(t) for t in thread_counts],
        )
        for name in TABLE_BENCHMARKS:
            warm = name in ("CG", "IS") and machine_key == "origin2000"
            java = [predict_benchmark(spec, name, problem_class,
                                      "java", 0).seconds]
            java += [predict_benchmark(spec, name, problem_class, "java",
                                       t, warmup_load=warm).seconds
                     for t in thread_counts]
            table.add_row(f"{name}.{problem_class} Java", *java)
            if with_openmp:
                lang = "C-OpenMP" if name == "IS" else "f77-OpenMP"
                f77 = [predict_benchmark(spec, name, problem_class,
                                         "f77", 0).seconds]
                f77 += [predict_benchmark(spec, name, problem_class,
                                          "f77", t).seconds
                        for t in thread_counts]
                table.add_row(f"{name}.{problem_class} {lang}", *f77)
        if machine_key == "origin2000":
            table.notes.append(
                "CG/IS rows include the per-thread warm-up load fix "
                "(without it the JVM coalesces their threads onto "
                "1-2 CPUs)")
        if machine_key == "e10000":
            table.notes.append(
                "FT capped at 4 CPUs by the JVM's big-heap limit "
                "(FT.A ~ 350 MB)")
        return table
    return _host_table(problem_class)


def _host_table(problem_class: str) -> Table:
    """Tables 2-6, measured: the paper has one table per machine, and
    this host is one machine -- serial plus the process backend at the
    paper's worker counts up to the host's CPUs, each cell run once."""
    cpus = os.cpu_count() or 1
    counts = team_worker_counts(cpus)
    table = Table(
        f"Tables 2-6 (measured on this {cpus}-CPU host; "
        f"class {problem_class}, seconds)",
        ["Benchmark", "Serial"]
        + [f"proc x{t}" for t in counts] + ["verified"],
    )
    for name in TABLE_BENCHMARKS:
        cells = [bench.BenchCell(name, problem_class, "serial", 1)]
        cells += [bench.BenchCell(name, problem_class, "process", t)
                  for t in counts]
        runs = [bench.run_bench_cell(cell, repeat=1) for cell in cells]
        table.add_row(f"{name}.{problem_class} Python",
                      *[run["best_seconds"] for run in runs],
                      "yes" if all(run["verified"] for run in runs)
                      else "NO")
    table.notes.append(
        f"measured with the multiprocessing backend, one run per cell; "
        f"worker counts stop at os.cpu_count() = {cpus}"
        + (", so no speedup is expected" if cpus == 1 else ""))
    return table


def _table2(mode: str, problem_class: str) -> Table:
    return _benchmark_table(
        mode, "p690",
        "Table 2: benchmark times on IBM p690 (1.3 GHz, 32 CPUs)",
        problem_class, [1, 2, 4, 8, 16, 32], with_openmp=True)


def _table3(mode: str, problem_class: str) -> Table:
    return _benchmark_table(
        mode, "origin2000",
        "Table 3: benchmark times on SGI Origin2000 (250 MHz, 32 CPUs)",
        problem_class, [1, 2, 4, 8, 16, 32], with_openmp=True)


def _table4(mode: str, problem_class: str) -> Table:
    return _benchmark_table(
        mode, "e10000",
        "Table 4: benchmark times on SUN Enterprise10000 "
        "(333 MHz, 16 CPUs)",
        problem_class, [1, 2, 4, 8, 16], with_openmp=False)


def _table5(mode: str, problem_class: str) -> Table:
    return _benchmark_table(
        mode, "linux-pc",
        "Table 5: benchmark times on Linux PC (933 MHz, 2 PIII CPUs)",
        problem_class, [1, 2], with_openmp=False)


def _table6(mode: str, problem_class: str) -> Table:
    return _benchmark_table(
        mode, "xserve",
        "Table 6: benchmark times on Apple Xserve (1 GHz, 2 G4 CPUs)",
        problem_class, [1, 2], with_openmp=False)


# --------------------------------------------------------------------- #
# Table 7: Java Grande lufact vs LINPACK

#: BLAS1 efficiency of lufact relative to the machine's sustained CFD
#: Mop/s (cache-miss bound), and BLAS3 efficiency of DGETRF.
_LUFACT_F77_EFFICIENCY = 0.35
_DGETRF_EFFICIENCY = 1.4


def _table7(mode: str, problem_class: str, max_n: int = 1000) -> Table:
    if mode == "simulated":
        machines = ["e10000", "origin2000", "p690"]
        table = Table(
            "Table 7: Java Grande lufact vs LINPACK DGETRF "
            "(simulated; seconds)",
            ["Machine", "Impl"]
            + [f"class {c} (n={n})" for c, n in LU_CLASSES_TABLE7.items()],
        )
        for key in machines:
            spec = machine(key)
            copy_ratio = spec.jvm.op_ratio[OpCategory.COPY]
            f77 = {c: lufact_ops(n) / (spec.fortran_mops * 1e6
                                       * _LUFACT_F77_EFFICIENCY)
                   for c, n in LU_CLASSES_TABLE7.items()}
            table.add_row(spec.name, "Java lufact",
                          *[f77[c] * copy_ratio for c in LU_CLASSES_TABLE7])
            table.add_row("", "f77 lufact", *[f77[c]
                                              for c in LU_CLASSES_TABLE7])
            table.add_row("", "LINPACK DGETRF",
                          *[lufact_ops(n) / (spec.fortran_mops * 1e6
                                             * _DGETRF_EFFICIENCY)
                            for n in LU_CLASSES_TABLE7.values()])
        table.notes.append(
            "shape targets: lufact (BLAS1) slower than DGETRF (BLAS3) in "
            "both languages; Java/f77 lufact ratio ~ the Assignment "
            "basic-op ratio (memory bound)")
        return table

    table = Table(
        "Table 7 (measured on this host; seconds)",
        ["n", "python loops (Java role)", "numpy BLAS1 (f77 role)",
         "blocked BLAS3 (DGETRF role)", "BLAS1/BLAS3"],
    )
    for c, n in LU_CLASSES_TABLE7.items():
        if n > max_n:
            continue
        a, _ = make_system(n)
        loops_t = (time_callable(lambda: lufact_loops(a), repeat=3).best
                   if n <= 500 else float("nan"))
        blas1_t = time_callable(lambda: lufact_numpy(a), repeat=3).best
        blas3_t = time_callable(lambda: dgetrf_blocked(a), repeat=3).best
        table.add_row(str(n), loops_t, blas1_t, blas3_t, blas1_t / blas3_t)
    return table
