"""Bounded job retention: the registry keeps every non-terminal job and
the last ``TERMINAL_RETENTION`` terminal ones; an older id answers a
structured "expired" body (410), never the 404 of an id never issued."""

from __future__ import annotations

import pytest

import repro.service.api as api
from repro.service import BenchService, ServiceClient, ShardCoordinator


@pytest.fixture
def retention(monkeypatch):
    monkeypatch.setattr(api, "TERMINAL_RETENTION", 2)
    return 2


def _service(tmp_path, **kwargs) -> BenchService:
    kwargs.setdefault("pool_size", 1)
    kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
    return BenchService(**kwargs)


def _run(service: BenchService, count: int, **kwargs) -> list[str]:
    """``count`` IS.S jobs, one after the other (1 executes, rest hit)."""
    ids = []
    for _ in range(count):
        job = service.submit("IS", "S", **kwargs)
        service.wait(job.job_id, timeout=120)
        ids.append(job.job_id)
    return ids


class TestRetention:
    def test_only_the_latest_terminal_jobs_are_held(self, tmp_path, retention):
        with _service(tmp_path) as service:
            ids = _run(service, 5)
            assert [job.job_id for job in service.jobs()] == ids[-retention:]
            assert service.job(ids[0]) is None
            assert service.job(ids[-1]).state == "cached"
            # the counters are cumulative, not a scan of what is held
            status = service.status()
            assert status["jobs"] == {"done": 1, "cached": 4}
            assert status["scheduler"]["executed"] == 1
            assert status["scheduler"]["cached"] == 4

    def test_non_terminal_jobs_are_never_dropped(self, tmp_path, monkeypatch):
        monkeypatch.setattr(api, "TERMINAL_RETENTION", 1)
        service = _service(tmp_path, autostart=False)  # nothing ever runs
        try:
            ids = [service.submit("IS", "S", no_cache=True).job_id
                   for _ in range(4)]
            assert [job.job_id for job in service.jobs()] == ids
            assert service.status()["jobs"] == {"queued": 4}
            assert not any(service.expired(job_id) for job_id in ids)
        finally:
            service.drain(timeout=5)

    def test_expired_is_not_unknown(self, tmp_path, retention):
        with _service(tmp_path) as service:
            ids = _run(service, 4)
            assert service.expired(ids[0]) is True
            assert service.expired(ids[-1]) is False      # still held
            assert service.expired("job-000099") is False  # never issued
            assert service.expired("nonsense") is False
            assert service.status()["expired_lookups"] == 1
            with pytest.raises(KeyError):
                service.wait(ids[0], timeout=1)

    def test_an_expired_job_dies_by_refcount(self, tmp_path, retention,
                                             daemon_url):
        """No cycle may tie a job to its own completion (its callbacks,
        its result, a parked connection's future): the registry's bound
        is a memory bound only if letting go frees, without waiting for
        -- or feeding -- the cyclic collector."""
        import gc
        import weakref

        with _service(tmp_path) as service:
            client = ServiceClient(daemon_url(service))
            gc.collect()
            gc.disable()
            try:
                code, body = client.submit({"benchmark": "IS", "wait": True})
                assert code == 200
                ref = weakref.ref(service.job(body["job_id"]))
                _run(service, retention)  # pushes it out
                assert service.job(body["job_id"]) is None
                assert ref() is None
            finally:
                gc.enable()

    def test_an_idempotency_key_expires_with_its_job(self, tmp_path, retention):
        with _service(tmp_path) as service:
            first = service.submit("IS", "S", job_key="order-1")
            service.wait(first.job_id, timeout=120)
            assert service.submit("IS", "S", job_key="order-1") is first
            _run(service, retention)  # pushes ``first`` out
            again = service.submit("IS", "S", job_key="order-1")
            assert again is not first
            assert service.replay("order-1") is again


class TestExpiredOverHTTP:
    def test_daemon_and_coordinator_answer_410(
            self, tmp_path, retention, daemon_url, coordinator_url):
        with _service(tmp_path) as service:
            url = daemon_url(service)
            ids = _run(service, 4)
            client = ServiceClient(url)
            coordinator = ShardCoordinator({"s0": url}, health_interval=60.0)
            via = ServiceClient(coordinator_url(coordinator))
            try:
                for surface, job_id in ((client, ids[0]),
                                        (via, f"s0:{ids[0]}")):
                    for lookup in (surface.job, surface.trace):
                        code, body = lookup(job_id)
                        assert code == 410, body
                        assert body["expired"] is True
                        assert body["job_id"] == ids[0]
                        assert "expired" in body["error"]
                assert client.job("job-000099")[0] == 404
                assert client.job(ids[-1])[0] == 200
                _, status = client.status()
                assert status["expired_lookups"] == 4
                assert len(client.jobs()[1]["jobs"]) == retention
            finally:
                coordinator.close()
                assert daemon_url.stop(url)
