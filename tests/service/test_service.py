"""BenchService integration tests: concurrency, caching, backpressure,
drain, and the HTTP front end -- all in-process (the ``daemon_url``
loopback server for the HTTP cases, no daemon)."""

from __future__ import annotations

import pytest

from repro import run_benchmark
from repro.core.benchmark import RUN_RECORD_SCHEMA_VERSION
from repro.service import (AdmissionRejected, BenchService, ServiceClient,
                           ShardCoordinator)


def _service(tmp_path, **kwargs) -> BenchService:
    kwargs.setdefault("backend", "serial")
    kwargs.setdefault("pool_size", 2)
    kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
    return BenchService(**kwargs)


def _verification_values(record: dict):
    return [(c["quantity"], c["computed"]) for c in record["verification"]]


class TestConcurrentSubmissions:
    def test_eight_jobs_saturate_a_two_team_pool(self, tmp_path):
        """The E2E acceptance path: 8 concurrent CG/MG class-S jobs on a
        2-team pool all complete, bit-identical to direct runs."""
        with _service(tmp_path, pool_size=2) as service:
            jobs = [service.submit("CG" if i % 2 == 0 else "MG", "S",
                                   no_cache=True)  # force real execution
                    for i in range(8)]
            done = [service.wait(job.job_id, timeout=300) for job in jobs]
            occupancy = service.pool.occupancy()
            executed = service.scheduler.executed
        assert [job.state for job in done] == ["done"] * 8
        assert all(job.result["verified"] for job in done)
        assert all(job.pooled for job in done)
        assert executed == 8
        # every job ran on one of the two warm teams, none cold
        assert occupancy["size"] == 2
        assert occupancy["cold_spawns"] == 0
        assert occupancy["leases"] == 8
        # bit-identical to direct one-shot runs
        direct = {name: run_benchmark(name, "S").to_dict()
                  for name in ("CG", "MG")}
        for job in done:
            expected = direct[job.spec.benchmark]
            assert (_verification_values(job.result)
                    == _verification_values(expected))

    def test_records_carry_v4_service_fields(self, tmp_path):
        with _service(tmp_path) as service:
            job = service.submit("CG", "S")
            job = service.wait(job.job_id, timeout=300)
        record = job.result
        assert record["schema_version"] == RUN_RECORD_SCHEMA_VERSION
        assert record["job_id"] == job.job_id
        assert record["cache_hit"] is False
        assert record["queue_wait_seconds"] >= 0.0
        assert record["provenance"]["source_job_id"] == job.job_id


class TestResultCacheIntegration:
    def test_identical_resubmission_is_a_cached_hit(self, tmp_path):
        with _service(tmp_path) as service:
            first = service.wait(service.submit("CG", "S").job_id,
                                 timeout=300)
            second = service.wait(service.submit("CG", "S").job_id,
                                  timeout=300)
            executed = service.scheduler.executed
        assert first.state == "done"
        assert second.state == "cached"
        assert second.cache_hit
        assert executed == 1  # the second submission never ran
        # identical payload, provenance names the job that computed it
        assert (_verification_values(second.result)
                == _verification_values(first.result))
        assert second.result["cache_hit"] is True
        assert (second.result["provenance"]["source_job_id"]
                == first.job_id)

    def test_no_cache_bypasses_the_probe_but_still_stores(self, tmp_path):
        with _service(tmp_path) as service:
            service.wait(service.submit("CG", "S").job_id, timeout=300)
            forced = service.wait(
                service.submit("CG", "S", no_cache=True).job_id,
                timeout=300)
            executed = service.scheduler.executed
        assert forced.state == "done"  # ran despite the cached entry
        assert executed == 2


class TestFailedJobs:
    def test_a_bad_fault_policy_fails_the_job_not_the_pool(self, tmp_path):
        """Regression: ``spec.fault_policy()`` ran between the lease and
        the try that releases it, so a spec whose knobs ``FaultPolicy``
        refuses kept its team forever -- ``pool_size`` such submissions
        wedged the service."""
        with _service(tmp_path, pool_size=1) as service:
            bad = service.wait(
                service.submit("IS", "S", dispatch_timeout=-1.0).job_id,
                timeout=60)
            assert bad.state == "failed"
            assert "dispatch_timeout must be positive" in bad.error
            assert service.pool.occupancy()["in_use"] == 0
            good = service.wait(service.submit("IS", "S").job_id, timeout=60)
            assert good.state == "done"
            assert service.status()["jobs"] == {"done": 1, "failed": 1}


class TestBackpressure:
    def test_admission_rejection_when_queue_is_full(self, tmp_path):
        # autostart=False: nothing drains the queue, so admission
        # control is exercised deterministically
        service = _service(tmp_path, queue_depth=2, autostart=False)
        service.submit("CG", "S")
        service.submit("MG", "S")
        with pytest.raises(AdmissionRejected) as excinfo:
            service.submit("FT", "S")
        assert excinfo.value.depth == 2
        service.drain(timeout=5)

    def test_draining_service_rejects_submissions(self, tmp_path):
        service = _service(tmp_path)
        service.drain(timeout=30)
        with pytest.raises(AdmissionRejected, match="draining"):
            service.submit("CG", "S")


class TestGracefulDrain:
    def test_drain_finishes_admitted_jobs(self, tmp_path):
        service = _service(tmp_path, pool_size=1)
        jobs = [service.submit("CG", "S", no_cache=True) for _ in range(3)]
        # drain with work still queued: everything admitted must finish
        assert service.drain(timeout=300)
        for job in jobs:
            assert job.state == "done"
            assert job.result["verified"]
        assert service.pool.occupancy()["idle"] == 0  # teams closed
        assert service.status()["draining"] is True


class TestHTTPFrontEnd:
    @pytest.fixture
    def served(self, tmp_path, daemon_url):
        service = _service(tmp_path)
        return service, ServiceClient(daemon_url(service, drain_timeout=30))

    def test_submit_wait_and_cached_resubmit(self, served):
        _, client = served
        code, job = client.submit({"benchmark": "CG", "problem_class": "S",
                                   "wait": True})
        assert code == 200
        assert job["state"] == "done"
        assert job["result"]["verified"] is True
        code, again = client.submit({"benchmark": "CG",
                                     "problem_class": "S", "wait": True})
        assert code == 200
        assert again["state"] == "cached"
        assert again["cache_hit"] is True

    def test_async_submit_then_poll(self, served):
        service, client = served
        code, job = client.submit({"benchmark": "MG", "problem_class": "S"})
        assert code == 202
        service.wait(job["job_id"], timeout=300)
        code, polled = client.job(job["job_id"])
        assert code == 200
        assert polled["state"] in ("done", "cached")

    def test_status_endpoint(self, served):
        _, client = served
        code, status = client.status()
        assert code == 200
        assert status["queue"]["capacity"] == 64
        assert status["pool"]["size"] == 2
        assert "hit_rate" in status["cache"]
        assert "fault_counts" in status["scheduler"]

    def test_unknown_job_is_404(self, served):
        _, client = served
        code, body = client.job("job-999999")
        assert code == 404
        assert "error" in body

    def test_bad_spec_is_400(self, served, coordinator_url):
        """...on the daemon and through a coordinator in front of it;
        the removed kernel-tier input is refused, never ignored."""
        service, client = served
        coordinator = ShardCoordinator({"s0": client.url},
                                       health_interval=60.0)
        via_coordinator = ServiceClient(coordinator_url(coordinator))
        try:
            for payload, named in (
                ({"benchmark": "NOPE"}, "NOPE"),
                ({"benchmark": "CG", "kernel_backend": "fused"},
                 "kernel_backend"),
            ):
                for surface in (client, via_coordinator):
                    code, body = surface.submit(payload)
                    assert code == 400
                    assert "bad job spec" in body["error"]
                    assert named in body["error"]
        finally:
            coordinator.close()
        assert service.jobs() == []

    def test_stray_field_cannot_ride_a_twin_in_flight(self, tmp_path,
                                                      daemon_url):
        """The in-flight registry matches on the run-affecting fields
        only; an unknown field must be refused before it gets there."""
        service = _service(tmp_path, autostart=False)  # CG stays queued
        client = ServiceClient(daemon_url(service, drain_timeout=5))
        code, job = client.submit({"benchmark": "CG"})
        assert code == 202
        code, body = client.submit({"benchmark": "CG",
                                    "kernel_backend": "compiled"})
        assert code == 400
        assert "kernel_backend" in body["error"]
        assert service.coalesced == 0

    def test_full_queue_is_429(self, tmp_path, daemon_url):
        service = _service(tmp_path, queue_depth=1, autostart=False)
        client = ServiceClient(daemon_url(service, drain_timeout=5))
        code, _ = client.submit({"benchmark": "CG", "problem_class": "S"})
        assert code == 202
        code, body = client.submit({"benchmark": "MG",
                                    "problem_class": "S"})
        assert code == 429
        assert "queue full" in body["error"]
