"""Suite workloads: NPB cells run directly, in process, on reused teams.

A *round* runs every cell of the workload ``reps`` times, in table order
(fresh benchmark object, untimed ``setup()``, timed ``run()``,
``team.reset()``).  The number of measured rounds is ``--seconds`` over
the round's cost on the reference host, rounded up: a function of
``--seconds`` alone, because a loop that stops on the clock ran one round
on a slow minute and two on a fast one, and ``peak_rss_mb`` and every
median followed the round count.
The order is fixed, not drawn from the seed: NPB inputs are fixed by the
specification, and a seeded order moved ``peak_rss_mb`` of
``suite_parallel`` by 10 % between seeds (0.2 % with a fixed order).
The size tables below are module constants, not options: a later change
is judged on these cells, and the tests patch in a tiny table.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro import get_benchmark, make_team

from e2e.metrics import Op, add_region_spans
from e2e.spans import Recorder
from e2e.stats import median

#: Workers of the threaded and process teams (= ``nproc`` of the
#: reference host).
WORKERS = 2

#: Teams are spawned this many times at set-up; the median is reported
#: and the last set is kept.
SPAWN_REPEATS = 3


@dataclass(frozen=True)
class Cell:
    benchmark: str
    problem_class: str
    backend: str = "serial"
    #: back-to-back runs per round: a short cell repeats until it
    #: accounts for some 50 ms of the round, so that its median (which
    #: weighs as much in ``mops_geomean`` as a one-second cell's) does
    #: not rest on three samples of a millisecond each
    reps: int = 1

    @property
    def key(self) -> str:
        return f"{self.benchmark}.{self.problem_class}.{self.backend}"


#: workload -> its cells.  ``reps`` also decide which cell the job-latency
#: percentiles of a suite workload describe (nearest rank over all its
#: operations): on ``suite_small`` the median operation is an IS.S run and
#: the 95th percentile an SP.S run; on ``suite_large`` MG.W and CG.A; on
#: ``suite_parallel`` a CG.S threads run and the LU.S threads run.
SUITES: dict[str, tuple[Cell, ...]] = {
    "suite_small": (
        Cell("BT", "S"), Cell("SP", "S"), Cell("LU", "S"), Cell("FT", "S"),
        Cell("MG", "S", reps=4), Cell("CG", "S", reps=2),
        Cell("IS", "S", reps=48), Cell("EP", "S"),
    ),
    "suite_large": (
        Cell("MG", "W"), Cell("CG", "A"), Cell("FT", "W"), Cell("EP", "W"),
        Cell("IS", "W", reps=3),
    ),
    "suite_parallel": (
        Cell("LU", "S", "threads"),
        Cell("CG", "S", "threads", reps=2), Cell("CG", "S", "process", reps=2),
        Cell("MG", "W", "threads"), Cell("MG", "W", "process"),
        Cell("FT", "W", "threads"), Cell("FT", "W", "process"),
    ),
}

#: Wall time of one warm round on the reference host (2-core Xeon
#: 2.1 GHz), ``setup()`` calls included.
ROUND_SECONDS = {"suite_small": 4.0, "suite_large": 6.5, "suite_parallel": 8.2}

#: Unmeasured rounds before the measured ones, so arenas are grown and
#: pages touched; they belong to set-up.
WARMUP_ROUNDS = 1


class SuiteRun:
    """One suite workload: spawn teams, warm up, measure, close."""

    def __init__(self, name: str):
        self.name = name
        self.cells = SUITES[name]
        self._teams: dict = {}
        self.spawn_s = 0.0
        #: cell -> NPB operation count of one run (for Mop/s)
        self.op_counts: dict[str, float] = {}
        #: every ``setup()`` time seen, warm-up included, by cell
        self.setup_samples: dict[str, list[float]] = {}

    def _spawn(self) -> float:
        start = time.perf_counter()
        for backend in sorted({cell.backend for cell in self.cells}):
            self._teams[backend] = make_team(backend, WORKERS)
        return time.perf_counter() - start

    def close(self) -> None:
        for team in self._teams.values():
            team.close()
        self._teams.clear()

    def open(self) -> None:
        samples = []
        for _ in range(SPAWN_REPEATS):
            self.close()
            samples.append(self._spawn())
        self.spawn_s = median(samples)
        for _ in range(WARMUP_ROUNDS):
            self._round(None)

    @property
    def setup_s(self) -> float:
        """Team spawn plus the sum over cells of the median ``setup()``."""
        return self.spawn_s + sum(
            median(samples) for samples in self.setup_samples.values())

    def _run_cell(self, cell: Cell, recorder: Recorder | None) -> Op:
        team = self._teams[cell.backend]
        start = time.perf_counter()
        try:
            benchmark = get_benchmark(cell.benchmark)(cell.problem_class, team)
            benchmark.setup()
            ready = time.perf_counter()
            result = benchmark.run()
            done = time.perf_counter()
            team.reset()
        except Exception as exc:  # the gate reports it; keep measuring
            return Op(cell.key, 0.0, False,
                      error=f"{type(exc).__name__}: {exc}")
        self.op_counts[cell.key] = benchmark.op_count()
        self.setup_samples.setdefault(cell.key, []).append(ready - start)
        op = Op(cell.key, done - ready, bool(result.verified),
                error=None if result.verified else "unverified")
        if recorder is not None:
            request = f"{cell.key}#{len(recorder.spans)}"
            parent = recorder.add("cell", start, done, None, request)
            recorder.add("setup", start, ready, parent, request)
            run = recorder.add("run", ready, done, parent, request)
            add_region_spans(recorder, run, ready, result.regions, request)
        return op

    def _round(self, recorder: Recorder | None) -> list[Op]:
        return [self._run_cell(cell, recorder)
                for cell in self.cells for _ in range(cell.reps)]

    def measure(self, seconds: float, traced: bool = False):
        """``ceil(seconds / ROUND_SECONDS)`` whole rounds:
        (operations, wall, recorder or None)."""
        recorder = Recorder() if traced else None
        rounds = max(1, math.ceil(seconds / ROUND_SECONDS[self.name]))
        ops: list[Op] = []
        start = time.perf_counter()
        for _ in range(rounds):
            ops.extend(self._round(recorder))
        return ops, time.perf_counter() - start, recorder

    def server_status(self) -> dict:
        """No server in a suite workload."""
        return {}
