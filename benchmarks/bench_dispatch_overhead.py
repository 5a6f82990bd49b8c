"""Ablation: per-call ``parallel_for`` dispatch overhead (plan memoization).

The plan-based runtime memoizes slab partitions per ``(n, nworkers)``
(:class:`repro.runtime.plan.ExecutionPlan`), so iteration loops that
dispatch the same shape thousands of times (25 CG steps per outer
iteration, one dispatch per LU wavefront) stop recomputing bounds on the
hot path.  These cases track that win in the perf trajectory:

* ``plan_cold`` clears the memo before every dispatch -- the
  pre-refactor behaviour of recomputing the partition each call;
* ``plan_warm`` dispatches through the primed cache;
* the ``*_team_dispatch`` cases measure the end-to-end per-call cost of
  an (almost) empty task under each backend, the floor every crossing
  to the workers pays per barrier (the paper's Table 1 start/notify
  overhead).  The parallel backends are timed through ``run_on_all``,
  which always crosses: a ``parallel_for`` this thin runs inline on the
  master from its third call (granularity-aware dispatch), which is the
  point of that rule and not what these cases track.
"""

import pytest

from repro.runtime.plan import ExecutionPlan
from repro.team import ProcessTeam, SerialTeam, ThreadTeam
from nas_bench_util import attach_timing_summary

#: A loop extent typical of the suite's hot dispatches (CG.S rows).
EXTENT = 1400
WORKERS = 4


def noop_task(lo, hi):
    return None


class TestPlanMemoization:
    def test_plan_cold(self, benchmark):
        """Partition recomputed every call (pre-memoization behaviour)."""
        plan = ExecutionPlan(WORKERS)

        def cold():
            plan._bounds.clear()
            return plan.bounds(EXTENT)

        benchmark(cold)
        benchmark.extra_info["variant"] = "cold (recompute per call)"
        attach_timing_summary(benchmark)

    def test_plan_warm(self, benchmark):
        """Memoized lookup, the dispatch hot path after the refactor."""
        plan = ExecutionPlan(WORKERS)
        plan.bounds(EXTENT)  # prime
        benchmark(lambda: plan.bounds(EXTENT))
        benchmark.extra_info["variant"] = "warm (memoized)"
        attach_timing_summary(benchmark)
        assert plan.misses == 1


class TestDispatchFloor:
    """Per-call cost of dispatching a no-op: pure runtime overhead."""

    def test_serial_team_dispatch(self, benchmark):
        with SerialTeam() as team:
            team.parallel_for(EXTENT, noop_task)  # prime plan
            benchmark(lambda: team.parallel_for(EXTENT, noop_task))
            benchmark.extra_info["backend"] = "serial"
            attach_timing_summary(benchmark)

    def test_thread_team_dispatch(self, benchmark):
        with ThreadTeam(WORKERS) as team:
            team.run_on_all(noop_task)
            benchmark(lambda: team.run_on_all(noop_task))
            benchmark.extra_info["backend"] = f"threads x{WORKERS}"
            attach_timing_summary(benchmark)

    def test_process_team_dispatch(self, benchmark):
        with ProcessTeam(2) as team:
            team.run_on_all(noop_task)
            benchmark(lambda: team.run_on_all(noop_task))
            benchmark.extra_info["backend"] = "process x2"
            attach_timing_summary(benchmark)


@pytest.mark.parametrize("nworkers", [1, 2, 4])
def test_plan_scales_with_workers(benchmark, nworkers):
    """Warm lookups are O(1) in worker count; cold recompute is O(p)."""
    plan = ExecutionPlan(nworkers)
    plan.bounds(EXTENT)
    benchmark(lambda: plan.bounds(EXTENT))
    benchmark.extra_info["nworkers"] = nworkers
    attach_timing_summary(benchmark)
