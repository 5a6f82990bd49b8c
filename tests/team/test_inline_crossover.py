"""Granularity-aware dispatch: thin call sites stop crossing to the workers.

The dispatch core decides per call site ``(fn, n)`` from measured times
only (see :meth:`repro.runtime.plan.ExecutionPlan.observe`): two
transported dispatches in a row whose workers' summed execute time was
below the dispatch's own wall time send the site inline; an inline wall
above the transported wall that sent it there brings it back.  These
tests pin the rule's observable behaviour on the two parallel backends
and what is exempt from it; that results cannot tell the two paths apart
is ``test_equivalence.py``'s job (every case there takes both).

Where a slab ran is observed, not inferred: ``whereami`` slabs return
``(pid, thread ident)``, which equals the master's only on the inline
path.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.runtime.dispatch import FaultPolicy
from repro.runtime.plan import ExecutionPlan
from repro.team import ProcessTeam, SerialTeam, ThreadTeam, make_team

PARALLEL_BACKENDS = ["threads", "process"]
N = 64


# Module-level tasks (picklable for the process backend).

def noop(lo, hi):
    return None


def whereami(lo, hi, seconds):
    """Sleep (GIL released), then say which process and thread ran it."""
    if seconds:
        time.sleep(seconds)
    return (os.getpid(), threading.get_ident())


def whoami(rank, nworkers):
    return (os.getpid(), threading.get_ident())


def scaled_fill(lo, hi, out, scale):
    i = np.arange(lo, hi, dtype=np.float64)
    out[lo:hi] = np.sqrt(i + 1.0) * scale + np.sin(i)


def master():
    return (os.getpid(), threading.get_ident())


def stats(team):
    return team.recorder.stats(team.recorder.current_region)


def send_inline(team, fn, *args):
    """Dispatch a thin site until the plan holds it inline: two
    transported losses do it, and the retries are for a host noisy
    enough to stall the master inside the first inline call."""
    for _ in range(20):
        team.parallel_for(N, fn, *args)
        if team.plan.inline_limit((fn, N)) is not None:
            return
    raise AssertionError(f"{fn.__name__} never went inline")


@pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
class TestRule:
    def test_noop_site_is_inline_from_its_third_call(self, backend):
        with make_team(backend, 2) as team:
            team.parallel_for(N, noop)
            team.parallel_for(N, noop)
            assert stats(team).inline_calls == 0
            assert team.plan.inline_limit((noop, N)) is not None
            team.parallel_for(N, noop)
            assert (stats(team).calls, stats(team).inline_calls) == (3, 1)
            # ...and what runs inline runs on the master, every slab
            send_inline(team, whereami, 0)
            assert team.parallel_for(N, whereami, 0) == [master()] * 2

    def test_fat_site_never_goes_inline(self, backend):
        # 2 x 10 ms of GIL-free work against a 10 ms transported wall:
        # every transported dispatch is a clear win.
        with make_team(backend, 2) as team:
            for _ in range(20):
                ran_on = team.parallel_for(N, whereami, 0.01)
                assert master() not in ran_on
            assert (stats(team).calls, stats(team).inline_calls) == (20, 0)
            assert team.plan.inline_limit((whereami, N)) is None

    def test_inline_site_returns_when_its_slabs_get_slow(self, backend):
        with make_team(backend, 2) as team:
            send_inline(team, whereami, 0)
            # Same site, slow argument: this call still runs inline, its
            # 40 ms wall exceeds the ~0.1 ms transported wall that sent
            # the site there, and the site is back on the transport.
            assert team.parallel_for(N, whereami, 0.02) == [master()] * 2
            assert team.plan.inline_limit((whereami, N)) is None
            inline_before = stats(team).inline_calls
            for _ in range(3):
                ran_on = team.parallel_for(N, whereami, 0.02)
                assert master() not in ran_on
                assert len(set(ran_on)) == 2
            assert stats(team).inline_calls == inline_before

    def test_reset_keeps_decisions_and_zeroes_inline_calls(self, backend):
        with make_team(backend, 2) as team:
            send_inline(team, noop)
            team.parallel_for(N, noop)
            assert stats(team).inline_calls >= 1
            team.reset()
            assert team.recorder.report() == {}
            assert team.plan.inline_limit((noop, N)) is not None
            team.parallel_for(N, noop)
            assert (stats(team).calls, stats(team).inline_calls) == (1, 1)


@pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
class TestExempt:
    def test_run_on_all_always_reaches_every_worker(self, backend):
        with make_team(backend, 3) as team:
            first = team.run_on_all(whoami)
            assert len(set(first)) == 3 and master() not in first
            for _ in range(10):
                assert team.run_on_all(whoami) == first
            assert stats(team).inline_calls == 0

    def test_degraded_team_is_inline_and_outside_the_rule(self, backend,
                                                          monkeypatch):
        with make_team(backend, 2) as team:
            team._degraded = True
            monkeypatch.setattr(ExecutionPlan, "observe", _must_not_run)
            for _ in range(4):
                assert (team.parallel_for(N, whereami, 0.005)
                        == [master()] * 2)
            region = stats(team)
            assert (region.calls, region.inline_calls) == (4, 4)
            # accounting truth: 2 x 5 ms of slabs back to back is 10 ms
            # of execute and no barrier -- not 50 % "overhead"
            assert region.barrier_seconds == 0.0
            assert region.execute_seconds >= 4 * 2 * 0.005
            assert (region.dispatch_seconds + region.execute_seconds
                    == pytest.approx(region.wall_seconds))
            assert region.overhead_fraction < 0.2


def _must_not_run(*args, **kwargs):
    raise AssertionError("crossover bookkeeping on an exempt team")


@pytest.mark.parametrize("make", [SerialTeam, lambda: ThreadTeam(1)],
                         ids=["serial", "threads-x1"])
def test_one_worker_teams_do_no_crossover_bookkeeping(make, monkeypatch):
    monkeypatch.setattr(ExecutionPlan, "observe", _must_not_run)
    monkeypatch.setattr(ExecutionPlan, "inline_limit", _must_not_run)
    with make() as team:
        for _ in range(5):
            team.parallel_for(N, noop)
        assert (stats(team).calls, stats(team).inline_calls) == (5, 0)


class TestDeadWorkerBehindInlineSites:
    def test_alive_and_next_transported_dispatch_catch_it(self):
        policy = FaultPolicy(dispatch_timeout=5.0, max_retries=2,
                             backoff_seconds=0.01)
        with ProcessTeam(2, policy=policy) as team:
            send_inline(team, noop)
            out = team.shared(N)
            os.kill(team._procs[1].pid, signal.SIGKILL)
            team._procs[1].join(timeout=5.0)
            assert not team._procs[1].is_alive()
            # the inline site neither needs nor notices the worker...
            team.parallel_for(N, noop)
            assert team.recorder.fault_counts() == {}
            # ...the liveness probe does, and so does the first dispatch
            # that crosses (a site with no decision yet)
            assert not team.alive()
            team.parallel_for(N, scaled_fill, out, 1.5)
            counts = team.recorder.fault_counts()
            assert counts.get("worker_death") == 1
            assert counts.get("respawn") == 1
            assert team.alive() and not team.degraded
            expected = np.zeros(N)
            scaled_fill(0, N, expected, 1.5)
            assert out.tobytes() == expected.tobytes()
