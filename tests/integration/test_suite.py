"""Integration tests: the full suite through the public API."""

import pytest

from repro import run_benchmark
from repro.core.registry import get_benchmark
from repro.team import ProcessTeam, SerialTeam

ALL_BENCHMARKS = ["BT", "SP", "LU", "FT", "MG", "CG", "IS", "EP"]


class TestFullSuiteClassS:
    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_serial_class_s_verifies(self, name):
        result = run_benchmark(name, "S")
        assert result.verified, result.verification.summary()
        assert result.time_seconds > 0
        assert result.mops > 0

    def test_result_record_fields(self):
        result = run_benchmark("CG", "S")
        assert result.name == "CG"
        assert result.problem_class == "S"
        assert result.backend == "serial"
        assert result.nworkers == 1
        assert result.niter == 15
        assert "total" in result.timers
        assert "SUCCESSFUL" in result.banner()

    def test_run_is_repeatable(self):
        first = run_benchmark("MG", "S")
        second = run_benchmark("MG", "S")
        assert first.verification.checks[0][1] == \
            second.verification.checks[0][1]

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_second_run_on_the_same_object_starts_afresh(self, name):
        """``run()`` twice (a caller timing it in a loop) must not iterate
        on from the evolved state: both runs verify, with equal values."""
        bench = get_benchmark(name)("S")
        first = bench.run()
        second = bench.run()
        assert first.verified and second.verified, \
            second.verification.summary()
        assert first.verification.checks == second.verification.checks


class TestBackendAgreement:
    """Serial and one-worker parallel backends must agree bitwise; the
    verification values prove multi-worker agreement within tolerance."""

    @pytest.mark.parametrize("name", ["CG", "MG", "FT"])
    def test_process_two_workers_verifies(self, name):
        result = run_benchmark(name, "S", "process", 2)
        assert result.verified

    @pytest.mark.parametrize("name", ["SP", "IS", "EP"])
    def test_threads_two_workers_verifies(self, name):
        result = run_benchmark(name, "S", "threads", 2)
        assert result.verified

    def test_benchmark_reuses_team(self):
        with ProcessTeam(2) as team:
            cg = get_benchmark("CG")("S", team)
            first = cg.run()
            mg = get_benchmark("MG")("S", team)
            second = mg.run()
        assert first.verified and second.verified

    def test_default_team_is_serial(self):
        bench = get_benchmark("EP")("S")
        assert isinstance(bench.team, SerialTeam)


@pytest.mark.slow
class TestClassW:
    @pytest.mark.parametrize("name", ["CG", "MG", "FT", "IS", "EP"])
    def test_kernels_class_w_verify(self, name):
        assert run_benchmark(name, "W").verified

    @pytest.mark.parametrize("name", ["BT", "SP", "LU"])
    def test_applications_class_w_verify(self, name):
        assert run_benchmark(name, "W").verified


@pytest.mark.slow
class TestClassA:
    @pytest.mark.parametrize("name", ["CG", "MG", "IS", "EP", "FT"])
    def test_kernels_class_a_verify(self, name):
        assert run_benchmark(name, "A").verified
