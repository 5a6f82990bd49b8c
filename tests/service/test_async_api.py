"""Async front end tests: in-flight coalescing, idempotency replays,
deficit-round-robin fair admission, drain, and client keep-alive.

Everything runs in-process.  The HTTP cases use the ``daemon_url``
fixture (the real server on a loopback port); the coalescing-race and
fairness cases drive :class:`AsyncFrontEnd`/:class:`FairAdmission`
directly under ``asyncio.run`` so their interleavings are deterministic
-- a gated fake benchmark holds the primary job running until the test
has attached exactly the waiters it wants to measure.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.service import (
    AsyncFrontEnd,
    BenchService,
    FairAdmission,
    ServiceClient,
    ServiceUnavailable,
    TenantQuotaExceeded,
)
from repro.service.jobs import AdmissionRejected

PAYLOAD = {"benchmark": "EP", "problem_class": "S", "workers": 2}


def _service(tmp_path, **kwargs) -> BenchService:
    kwargs.setdefault("backend", "serial")
    kwargs.setdefault("pool_size", 2)
    kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
    return BenchService(**kwargs)


def _gate_benchmark(monkeypatch, gate: threading.Event, fail: bool = False):
    """Replace the benchmark registry with one that blocks on ``gate``.

    The scheduler resolves benchmarks lazily (``from repro.core.registry
    import get_benchmark`` inside ``_execute``), so patching the registry
    attribute reroutes every execution.  Holding the gate keeps the
    primary job running while the test attaches coalesced waiters --
    without it the tiny class-S kernels finish before a second request
    can even arrive, and the race being tested evaporates.
    """
    import repro.core.registry as registry

    real = registry.get_benchmark

    class Gated:
        def __init__(self, problem_class, team):
            self._inner = real("EP")(problem_class, team)

        def run(self):
            assert gate.wait(timeout=60), "test gate never opened"
            if fail:
                raise RuntimeError("injected benchmark failure")
            return self._inner.run()

    monkeypatch.setattr(registry, "get_benchmark", lambda name: Gated)


def _post(frontend: AsyncFrontEnd, payload: dict, headers: dict | None = None):
    return frontend.handle_post_jobs(headers or {}, json.dumps(payload).encode())


async def _until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        await asyncio.sleep(0.01)


class TestFairAdmission:
    """DRR unit tests: grant *order* is the observable."""

    def _run_contended(self, offered, weights=None, window=1):
        """Queue ``offered`` (tenant sequence) behind a held window, then
        let grants cascade; returns the grant order."""

        async def main():
            admission = FairAdmission(window=window, weights=weights)
            await admission.acquire("blocker")  # hold the only slot
            order: list[str] = []

            async def one(tenant):
                await admission.acquire(tenant)
                order.append(tenant)
                admission.release()

            tasks = [asyncio.create_task(one(t)) for t in offered]
            await _until(lambda: sum(
                len(q) for q in admission._queues.values()) == len(offered))
            admission.release()  # free the blocker: grants cascade in DRR order
            await asyncio.gather(*tasks)
            return order

        return asyncio.run(main())

    def test_equal_weights_alternate_under_contention(self):
        order = self._run_contended(["a"] * 4 + ["b"] * 4)
        assert order[:8] == ["a", "b", "a", "b", "a", "b", "a", "b"]

    def test_weights_skew_the_share(self):
        order = self._run_contended(["a"] * 6 + ["b"] * 3,
                                    weights={"a": 2.0, "b": 1.0})
        # each round serves 2 a's per b until a's queue drains
        assert order[:9] == ["a", "a", "b", "a", "a", "b", "a", "a", "b"]

    def test_four_to_one_offered_load_equal_weights_splits_evenly(self):
        """The acceptance bound: a tenant offering 4x the load gets no
        more than its fair share while the other still has work queued."""
        offered = []
        for _ in range(10):
            offered.extend(["a", "a", "a", "a", "b"])  # 40:10 offered
        order = self._run_contended(offered)
        contended = order[:20]  # b's queue is provably non-empty here
        share_b = contended.count("b") / len(contended)
        assert 0.4 <= share_b <= 0.6, order

    def test_tenant_quota_rejects_the_excess(self):
        async def main():
            admission = FairAdmission(window=1, quota=2)
            await admission.acquire("blocker")
            waiters = [asyncio.create_task(admission.acquire("a"))
                       for _ in range(2)]
            await _until(lambda: len(admission._queues.get("a", ())) == 2)
            with pytest.raises(TenantQuotaExceeded) as excinfo:
                await admission.acquire("a")
            assert excinfo.value.pending == 2
            assert excinfo.value.quota == 2
            admission.release()
            for waiter in waiters:
                await waiter
                admission.release()

        asyncio.run(main())

    def test_close_rejects_every_parked_request(self):
        async def main():
            admission = FairAdmission(window=1)
            await admission.acquire("blocker")
            parked = asyncio.create_task(admission.acquire("a"))
            await _until(lambda: len(admission._queues.get("a", ())) == 1)
            admission.close()
            with pytest.raises(AdmissionRejected):
                await parked
            with pytest.raises(AdmissionRejected):
                await admission.acquire("b")

        asyncio.run(main())

    def test_cancelled_parked_waiter_does_not_wedge_dispatch(self):
        async def main():
            admission = FairAdmission(window=1)
            await admission.acquire("blocker")
            doomed = asyncio.create_task(admission.acquire("a"))
            live = asyncio.create_task(admission.acquire("a"))
            await _until(lambda: len(admission._queues.get("a", ())) == 2)
            doomed.cancel()
            with pytest.raises(asyncio.CancelledError):
                await doomed
            admission.release()
            await live  # the dispatcher skipped the dead future
            assert admission.in_flight == 1

        asyncio.run(main())


class TestCoalescing:
    """N identical in-flight requests -> exactly one execution."""

    def test_concurrent_twins_execute_exactly_once(self, tmp_path, monkeypatch):
        gate = threading.Event()
        _gate_benchmark(monkeypatch, gate)
        service = _service(tmp_path)

        async def main():
            frontend = AsyncFrontEnd(service)
            waiters = [
                asyncio.create_task(
                    _post(frontend, dict(PAYLOAD, wait=True)))
                for _ in range(6)
            ]
            # 1 primary running + 5 attached, *then* let it finish
            await _until(lambda: service.coalesced == 5)
            gate.set()
            return await asyncio.gather(*waiters)

        responses = asyncio.run(main())
        service.drain()
        codes = [code for code, _, _ in responses]
        assert codes == [200] * 6
        bodies = [body for _, body, _ in responses]
        job_ids = {body["job_id"] for body in bodies}
        assert len(job_ids) == 1  # every waiter saw the primary's job
        primary_id = job_ids.pop()
        stamped = sorted(
            (body["result"]["coalesced_with"] or "primary" for body in bodies),
            key=lambda tag: tag == "primary",
        )
        assert stamped == [primary_id] * 5 + ["primary"]
        assert all(body["result"]["verified"] for body in bodies)
        # the proof of single execution, not just single job id:
        assert service.pool.leases == 1
        assert service.scheduler.executed == 1
        assert service.scheduler.duplicate_executions == 0
        assert service.coalesced == 5

    def test_failed_job_fans_failure_out_to_waiters(self, tmp_path, monkeypatch):
        gate = threading.Event()
        _gate_benchmark(monkeypatch, gate, fail=True)
        service = _service(tmp_path)

        async def main():
            frontend = AsyncFrontEnd(service)
            waiters = [
                asyncio.create_task(
                    _post(frontend, dict(PAYLOAD, wait=True)))
                for _ in range(3)
            ]
            await _until(lambda: service.coalesced == 2)
            gate.set()
            return await asyncio.gather(*waiters)

        responses = asyncio.run(main())
        service.drain()
        # a structured failure for everyone -- nobody hangs, nobody gets
        # a bare connection reset
        for code, body, _ in responses:
            assert code == 200
            assert body["state"] == "failed"
            assert "injected benchmark failure" in body["error"]
        assert service.scheduler.executed == 0
        assert service.pool.leases == 1

    def test_cancelling_one_waiter_keeps_the_shared_job(
        self, tmp_path, monkeypatch
    ):
        gate = threading.Event()
        _gate_benchmark(monkeypatch, gate)
        service = _service(tmp_path)

        async def main():
            frontend = AsyncFrontEnd(service)
            code, body, _ = await _post(frontend, dict(PAYLOAD))
            assert code == 202
            doomed = asyncio.create_task(
                _post(frontend, dict(PAYLOAD, wait=True)))
            await _until(lambda: service.coalesced == 1)
            doomed.cancel()  # waiter disconnects mid-wait
            with pytest.raises(asyncio.CancelledError):
                await doomed
            survivor = asyncio.create_task(
                _post(frontend, dict(PAYLOAD, wait=True)))
            await _until(lambda: service.coalesced == 2)
            gate.set()
            return body["job_id"], await survivor

        primary_id, (code, body, _) = asyncio.run(main())
        service.drain()
        # the cancelled waiter took neither the job nor the survivor down
        assert code == 200
        assert body["state"] == "done"
        assert body["result"]["coalesced_with"] == primary_id
        assert service.scheduler.executed == 1

    def test_a_coalesced_response_carries_its_own_timestamps(
        self, tmp_path, monkeypatch
    ):
        """Regression: a waiter's body was the twin's, timestamps and all
        -- a request sent long after the primary started reported a
        ``submitted_at`` from before it was sent, so its latency and
        spans were another request's."""
        gate = threading.Event()
        _gate_benchmark(monkeypatch, gate)
        service = _service(tmp_path)

        async def main():
            frontend = AsyncFrontEnd(service)
            primary = asyncio.create_task(
                _post(frontend, dict(PAYLOAD, wait=True)))
            await _until(lambda: service.pool.leases == 1)  # it is running
            await asyncio.sleep(0.06)
            sent = time.time()
            waiter = asyncio.create_task(
                _post(frontend, dict(PAYLOAD, wait=True),
                      {"x-npb-tenant": "late"}))
            await _until(lambda: service.coalesced == 1)
            await asyncio.sleep(0.02)
            gate.set()
            bodies = [body for _, body, _ in
                      await asyncio.gather(primary, waiter)]
            return sent, time.time(), bodies

        sent, received, (first, late) = asyncio.run(main())
        service.drain()
        assert late["coalesced_with"] == late["job_id"] == first["job_id"]
        assert first["started_at"] + 0.05 <= late["submitted_at"]
        stamps = [sent, late["submitted_at"], late["queued_at"],
                  late["started_at"], late["finished_at"], received]
        assert stamps == sorted(stamps), stamps
        # the execution is shared: same end, and the record says whose
        # request this was
        assert late["finished_at"] == first["finished_at"]
        assert late["queue_wait_seconds"] == late["result"]["queue_wait_seconds"]
        assert late["queue_wait_seconds"] == 0.0  # attached to a running job
        assert late["result"]["tenant"] == "late"
        assert first["result"]["tenant"] is None
        assert first["result"]["coalesced_with"] is None

    def test_no_cache_requests_never_coalesce(self, tmp_path, monkeypatch):
        gate = threading.Event()
        _gate_benchmark(monkeypatch, gate)
        service = _service(tmp_path)

        async def main():
            frontend = AsyncFrontEnd(service, window=2)
            waiters = [
                asyncio.create_task(
                    _post(frontend,
                          dict(PAYLOAD, wait=True, no_cache=True)))
                for _ in range(2)
            ]
            await _until(
                lambda: service.scheduler._executing == {}
                and service.pool.leases == 2)
            gate.set()
            return await asyncio.gather(*waiters)

        responses = asyncio.run(main())
        service.drain()
        job_ids = {body["job_id"] for _, body, _ in responses}
        assert len(job_ids) == 2  # two real executions, by request
        assert service.coalesced == 0
        # no_cache twins are exempt from duplicate accounting too
        assert service.scheduler.duplicate_executions == 0


class TestCoalescingKeyMatchesTheSpec:
    """Two payloads coalesce iff ``BenchService.submit`` would build
    equal specs: a payload naming no ``backend``/``workers`` runs on the
    pool's, so that is what the in-flight key must assume -- not the
    literal ``serial``/``1``.  (Regression: on a ``threads x2`` service
    the explicit-serial twin of a bare payload was answered with the
    threads job, and the explicit-threads twin executed a second time.)
    """

    BARE = {"benchmark": "FT", "problem_class": "S", "wait": True}

    def _race(self, tmp_path, monkeypatch, twin: dict, settled):
        """Hold a bare payload in flight, post ``twin`` beside it, open
        the gate once ``settled(service)``; returns both responses."""
        gate = threading.Event()
        _gate_benchmark(monkeypatch, gate)
        service = _service(tmp_path, backend="threads", workers=2)

        async def main():
            frontend = AsyncFrontEnd(service, window=2)
            first = asyncio.create_task(_post(frontend, dict(self.BARE)))
            await _until(lambda: service.pool.leases == 1)
            second = asyncio.create_task(
                _post(frontend, dict(self.BARE, **twin)))
            await _until(lambda: settled(service), timeout=10.0)
            gate.set()
            return await asyncio.gather(first, second)

        try:
            return service, asyncio.run(main())
        finally:
            gate.set()
            service.drain()

    def test_explicit_serial_twin_runs_under_its_own_spec(
        self, tmp_path, monkeypatch
    ):
        service, ((code1, bare, _), (code2, serial, _)) = self._race(
            tmp_path, monkeypatch, {"backend": "serial", "workers": 1},
            settled=lambda service: service.pool.leases == 2)
        assert (code1, code2) == (200, 200)
        assert (bare["job_id"], serial["job_id"]) == (
            "job-000001", "job-000002")
        assert bare["spec"]["backend"] == "threads"
        assert bare["spec"]["workers"] == 2
        assert serial["spec"]["backend"] == "serial"
        assert serial["spec"]["workers"] == 1
        assert serial["result"]["coalesced_with"] is None
        assert serial["result"]["backend"] == "serial"
        assert service.coalesced == 0
        assert service.pool.leases == 2  # one warm, one cold serial team
        assert service.pool.cold_spawns == 1

    def test_explicit_pool_shape_twin_coalesces(self, tmp_path, monkeypatch):
        service, ((code1, bare, _), (code2, twin, _)) = self._race(
            tmp_path, monkeypatch, {"backend": "threads", "workers": 2},
            settled=lambda service: service.coalesced == 1)
        assert (code1, code2) == (200, 200)
        assert bare["job_id"] == twin["job_id"] == "job-000001"
        assert bare["result"]["coalesced_with"] is None
        assert twin["result"]["coalesced_with"] == "job-000001"
        assert twin["spec"] == bare["spec"]
        assert twin["spec"]["backend"] == "threads"
        assert twin["spec"]["workers"] == 2
        assert service.pool.leases == 1  # one execution, one lease
        assert service.scheduler.executed == 1
        assert service.scheduler.duplicate_executions == 0


class TestIdempotency:
    def test_replay_returns_the_original_job(self, tmp_path, daemon_url):
        with _service(tmp_path) as service:
            url = daemon_url(service)
            try:
                client = ServiceClient(url)
                headers = {"Idempotency-Key": "order-66"}
                _, first = client.submit(
                    dict(PAYLOAD, wait=True), headers=headers)
                code, second = client.submit(
                    dict(PAYLOAD, wait=True), headers=headers)
                # same key, different spec: the key wins, no new job
                _, third = client.submit(
                    {"benchmark": "CG", "problem_class": "S",
                     "wait": True, "job_key": "order-66"})
                _, status = client._request("GET", "/status")
            finally:
                assert daemon_url.stop(url)
        assert code == 200
        assert second["job_id"] == first["job_id"]
        assert third["job_id"] == first["job_id"]
        assert third["spec"]["benchmark"] == "EP"
        assert status["dedup"]["idempotent_replays"] == 2
        assert service.scheduler.executed == 1


class TestDrain:
    def test_drain_resolves_inflight_waiters(
        self, tmp_path, monkeypatch, daemon_url
    ):
        gate = threading.Event()
        _gate_benchmark(monkeypatch, gate)
        service = _service(tmp_path)
        url = daemon_url(service)
        results: list[tuple[int, dict]] = []

        def waiter():
            results.append(ServiceClient(url).submit(dict(PAYLOAD, wait=True)))

        thread = threading.Thread(target=waiter)
        thread.start()
        deadline = time.monotonic() + 30
        while service.pool.leases < 1:  # the job is really running
            assert time.monotonic() < deadline
            time.sleep(0.01)
        # open the gate only after the drain has begun: the drain
        # contract is that admitted jobs finish and their waiters see it
        threading.Timer(0.5, gate.set).start()
        assert daemon_url.stop(url)
        thread.join(timeout=30)
        assert not thread.is_alive(), "drain left a waiter hanging"
        code, body = results[0]
        assert code == 200
        assert body["state"] == "done"
        assert body["result"]["verified"] is True

    def test_a_job_the_drain_lost_fails_its_waiters_loudly(
        self, tmp_path, monkeypatch
    ):
        """A drain that times out on a stuck job must answer whoever is
        parked on it -- submitter, coalesced twin, idempotent replay --
        with a structured refusal, never leave the connection hanging."""
        gate = threading.Event()  # never opened while the drain runs
        _gate_benchmark(monkeypatch, gate)
        service = _service(tmp_path)

        async def main():
            frontend = AsyncFrontEnd(service)
            key = {"idempotency-key": "stuck"}
            parked = [
                asyncio.create_task(_post(frontend, dict(PAYLOAD, wait=True), key)),
                asyncio.create_task(_post(frontend, dict(PAYLOAD, wait=True))),
            ]
            await _until(lambda: service.coalesced == 1
                         and service.pool.leases == 1)
            parked.append(asyncio.create_task(
                _post(frontend, dict(PAYLOAD, wait=True), key)))
            await _until(lambda: service.idempotent_replays == 1)
            clean = await frontend.drain(timeout=0.2)
            return clean, await asyncio.wait_for(asyncio.gather(*parked), 10)

        try:
            clean, responses = asyncio.run(main())
        finally:
            gate.set()  # let the stuck dispatcher go
        assert clean is False
        for code, body, headers in responses:
            assert code == 429, body
            assert body["error"] == "service drained before completion"
            assert "Retry-After" in headers
        # the job itself still reaches its one verdict, late
        job = service.wait("job-000001", timeout=30)
        assert job.state == "done"

    def test_draining_frontend_rejects_new_jobs(self, tmp_path):
        service = _service(tmp_path)

        async def main():
            frontend = AsyncFrontEnd(service)
            frontend.draining = True
            return await _post(frontend, dict(PAYLOAD))

        code, body, headers = asyncio.run(main())
        service.drain()
        assert code == 429
        assert "draining" in body["error"]
        assert "Retry-After" in headers


class TestTenantQuotaHTTP:
    def test_over_quota_tenant_gets_structured_429(
        self, tmp_path, monkeypatch
    ):
        gate = threading.Event()
        _gate_benchmark(monkeypatch, gate)
        service = _service(tmp_path, pool_size=1)

        async def main():
            frontend = AsyncFrontEnd(service, window=1, quota=1)
            # distinct no_cache specs so nothing coalesces: the
            # first occupies the window, the second parks (quota 1),
            # the third must bounce
            running = asyncio.create_task(_post(
                frontend, dict(PAYLOAD, no_cache=True, wait=True),
                {"x-npb-tenant": "acme"}))
            await _until(lambda: frontend.admission.in_flight == 1)
            parked = asyncio.create_task(_post(
                frontend, dict(PAYLOAD, workers=1, no_cache=True),
                {"x-npb-tenant": "acme"}))
            await _until(
                lambda: frontend.admission.stats()["queued"] == {"acme": 1})
            code, body, headers = await _post(
                frontend, dict(PAYLOAD, workers=4, no_cache=True),
                {"x-npb-tenant": "acme"})
            gate.set()
            await asyncio.gather(running, parked)
            return code, body, headers

        code, body, headers = asyncio.run(main())
        service.drain()
        assert code == 429
        assert body["tenant"] == "acme"
        assert body["pending"] == 1
        assert body["quota"] == 1
        assert "Retry-After" in headers


class TestServiceClientKeepAlive:
    def test_connection_is_reused_across_requests(self, tmp_path, daemon_url):
        with _service(tmp_path) as service:
            url = daemon_url(service)
            try:
                client = ServiceClient(url)
                client._request("GET", "/status")
                conn = client._local.conn
                assert conn is not None
                client._request("GET", "/status")
                client._request("GET", "/jobs")
                assert client._local.conn is conn  # same socket, 3 requests
            finally:
                client.close()
                assert daemon_url.stop(url)

    def test_stale_connection_is_retried_once_on_a_fresh_one(
        self, tmp_path, daemon_url
    ):
        with _service(tmp_path) as service:
            url = daemon_url(service)
            try:
                client = ServiceClient(url)
                client._request("GET", "/status")
                stale = client._local.conn
                stale.sock.close()  # server idle-closed, client can't know
                code, _ = client._request("GET", "/status")
                assert code == 200
                assert client._local.conn is not stale
            finally:
                client.close()
                assert daemon_url.stop(url)

    def test_fresh_connection_failure_is_service_unavailable(
        self, tmp_path, daemon_url
    ):
        with _service(tmp_path) as service:
            url = daemon_url(service)
            assert daemon_url.stop(url)
        client = ServiceClient(url)  # nothing listens here any more
        with pytest.raises(ServiceUnavailable):
            client._request("GET", "/status")

    def test_keep_alive_false_never_caches_a_connection(self, tmp_path, daemon_url):
        # The probe mode: liveness is connectability, so each request
        # must dial fresh rather than ride a surviving old socket.
        with _service(tmp_path) as service:
            url = daemon_url(service)
            try:
                client = ServiceClient(url, keep_alive=False)
                code, _ = client._request("GET", "/status")
                assert code == 200
                assert getattr(client._local, "conn", None) is None
            finally:
                assert daemon_url.stop(url)


class TestStatusSurface:
    def test_status_reports_frontend_and_dedup_counters(self, tmp_path, daemon_url):
        with _service(tmp_path) as service:
            url = daemon_url(service, weights={"gold": 2.0})
            try:
                client = ServiceClient(url)
                client.submit(dict(PAYLOAD, wait=True),
                              headers={"X-NPB-Tenant": "gold"})
                _, status = client._request("GET", "/status")
            finally:
                assert daemon_url.stop(url)
        frontend = status["frontend"]
        assert frontend["admission"]["weights"] == {"gold": 2.0}
        assert frontend["admission"]["granted"] == {"gold": 1}
        assert status["dedup"] == {
            "coalesced": 0,
            "idempotent_replays": 0,
            "duplicate_executions": 0,
        }
