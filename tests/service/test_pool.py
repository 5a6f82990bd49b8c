"""Warm team pool unit tests."""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro import run_benchmark
from repro.core.registry import get_benchmark
from repro.service.pool import PoolClosed, TeamPool


class TestTeamPool:
    def test_prespawns_the_pool(self):
        with TeamPool("serial", 1, size=3) as pool:
            occupancy = pool.occupancy()
            assert occupancy["size"] == 3
            assert occupancy["idle"] == 3
            assert occupancy["in_use"] == 0

    def test_warm_lease_reuses_the_same_team(self):
        with TeamPool("serial", 1, size=1) as pool:
            team1, pooled1 = pool.lease()
            pool.release(team1, pooled1)
            team2, pooled2 = pool.lease()
            pool.release(team2, pooled2)
        assert pooled1 and pooled2
        assert team1 is team2  # the warm state is literally the same team

    def test_release_resets_the_team(self):
        with TeamPool("serial", 1, size=1) as pool:
            team, pooled = pool.lease()
            team.parallel_for(8, _identity)
            assert team.recorder.report() != {}
            pool.release(team, pooled)
            again, _ = pool.lease()
            assert again is team
            assert again.recorder.report() == {}
            pool.release(again, True)

    def test_mismatched_spec_gets_cold_team(self):
        with TeamPool("serial", 1, size=1) as pool:
            team, pooled = pool.lease(backend="threads", workers=2)
            assert not pooled
            assert team.backend == "threads"
            assert team.nworkers == 2
            pool.release(team, pooled)
            assert team.closed  # cold teams are one-shot
            assert pool.occupancy()["cold_spawns"] == 1

    def test_serial_pool_ignores_worker_count(self):
        with TeamPool("serial", 1, size=1) as pool:
            # serial is always one master; any worker count is warm
            team, pooled = pool.lease(backend="serial", workers=4)
            assert pooled
            # release: close() would wait its whole timeout on the lease
            pool.release(team, pooled)

    def test_degraded_team_is_replaced_not_recycled(self):
        with TeamPool("serial", 1, size=1) as pool:
            team, pooled = pool.lease()
            team._degraded = True  # simulate exhausted fault retries
            pool.release(team, pooled)
            fresh, _ = pool.lease()
            assert fresh is not team
            assert not fresh.degraded
            assert team.closed
            assert pool.occupancy()["replacements"] == 1
            pool.release(fresh, True)

    def test_lease_timeout(self):
        with TeamPool("serial", 1, size=1) as pool:
            team, pooled = pool.lease()
            with pytest.raises(TimeoutError):
                pool.lease(timeout=0.05)
            pool.release(team, pooled)

    def test_close_rejects_further_leases(self):
        pool = TeamPool("serial", 1, size=1)
        pool.close()
        with pytest.raises(PoolClosed):
            pool.lease()

    def test_close_closes_all_teams(self):
        pool = TeamPool("serial", 1, size=2)
        team, pooled = pool.lease()
        pool.release(team, pooled)
        pool.close()
        assert team.closed

    def test_release_after_close_closes_the_team(self):
        pool = TeamPool("serial", 1, size=1)
        team, pooled = pool.lease()
        pool.close(timeout=0.05)
        pool.release(team, pooled)
        assert team.closed


class TestPoolKillRecovery:
    """A pooled team whose workers die *between* jobs must be replaced
    at the next lease -- never recycled -- and the job that lands on the
    replacement must be bit-identical to a direct run."""

    @pytest.mark.parametrize("backend", ["serial", "threads", "process"])
    def test_idle_death_is_replaced_and_second_job_bit_identical(
        self, backend
    ):
        workers = 1 if backend == "serial" else 2
        clean = run_benchmark("CG", "S", backend, workers).to_dict()
        with TeamPool(backend, workers, size=1) as pool:
            first, pooled = pool.lease()
            result = get_benchmark("CG")("S", first).run()
            assert result.to_dict()["verification"] == clean["verification"]
            pool.release(first, pooled)

            # Kill the idle team the way its backend can die: SIGKILL
            # real worker processes, force the degraded flag otherwise
            # (threads cannot be killed from outside the interpreter).
            procs = list(getattr(first, "_procs", []))
            if procs:
                for proc in procs:
                    os.kill(proc.pid, signal.SIGKILL)
                deadline = time.time() + 5.0
                while time.time() < deadline and first.alive():
                    time.sleep(0.05)
                assert not first.alive()
            else:
                first._degraded = True
                pool.release(*pool.lease())  # degraded: replaced here

            second, pooled = pool.lease()
            assert second is not first  # replaced, never recycled
            assert second.alive() and not second.degraded
            assert pool.occupancy()["replacements"] == 1
            result = get_benchmark("CG")("S", second).run()
            assert result.verified
            assert result.to_dict()["verification"] == clean["verification"]
            assert result.to_dict()["faults"] == []  # a fresh team: clean
            pool.release(second, pooled)

    def test_alive_probe_detects_idle_worker_death(self):
        from repro.team.procs import ProcessTeam

        team = ProcessTeam(2)
        try:
            assert team.alive()
            os.kill(team._procs[0].pid, signal.SIGKILL)
            deadline = time.time() + 5.0
            while time.time() < deadline and team.alive():
                time.sleep(0.05)
            assert not team.alive()  # one dead worker is enough
        finally:
            team.close()


def _identity(lo, hi):
    return hi - lo
