"""Shard coordinator tests: ring properties, routing, failover, and the
coordinator's HTTP surface -- all in-process (``daemon_url`` /
``coordinator_url`` loopback servers, no daemons)."""

from __future__ import annotations

import asyncio
import contextlib
import os
import statistics
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro import run_benchmark
from repro.service import BenchService, ServiceClient, ServiceUnavailable
from repro.service.jobs import JobSpec, routing_key
from repro.service.shard import (BALANCE_BOUND, HashRing, ShardCoordinator,
                                 drain_children, spawn_shard)


class TestHashRing:
    def test_balance_within_declared_bound(self):
        """Every shard's share of random keys stays within BALANCE_BOUND
        of the even share -- the bound shard.py declares in its docs."""
        for names in (["shard0", "shard1"],
                      [f"shard{i}" for i in range(4)],
                      [f"shard{i}" for i in range(8)]):
            ring = HashRing(names)
            counts = Counter(ring.route(f"key-{i}") for i in range(20000))
            mean = 20000 / len(names)
            for name in names:
                deviation = abs(counts.get(name, 0) - mean) / mean
                assert deviation <= BALANCE_BOUND, (name, deviation)

    def test_resharding_moves_at_most_2_over_n_of_keys(self):
        """Adding a fifth shard to four remaps ~1/5 of the keyspace --
        and certainly no more than 2/N -- so per-shard caches stay warm
        across a scale-out."""
        ring4 = HashRing([f"shard{i}" for i in range(4)])
        ring5 = HashRing([f"shard{i}" for i in range(5)])
        keys = [f"key-{i}" for i in range(20000)]
        moved = sum(ring4.route(k) != ring5.route(k) for k in keys)
        fraction = moved / len(keys)
        assert 0.0 < fraction <= 2 / 4, fraction
        # every moved key lands on the new shard, never between old ones
        for key in keys:
            if ring4.route(key) != ring5.route(key):
                assert ring5.route(key) == "shard4"

    def test_preference_is_a_deterministic_permutation(self):
        ring = HashRing([f"shard{i}" for i in range(4)])
        for key in ("key-a", "key-b", "key-c"):
            order = ring.preference(key)
            assert sorted(order) == sorted(ring.nodes)
            assert order == ring.preference(key)  # stable
            assert order[0] == ring.route(key)
            # excluding the owner routes to the next in preference order
            assert ring.route(key, exclude={order[0]}) == order[1]

    def test_remove_only_remaps_the_removed_nodes_keys(self):
        ring = HashRing([f"shard{i}" for i in range(4)])
        before = {f"key-{i}": ring.route(f"key-{i}") for i in range(2000)}
        ring.remove("shard2")
        for key, owner in before.items():
            if owner != "shard2":
                assert ring.route(key) == owner


class TestRoutingKey:
    def test_matches_jobspec_method(self):
        spec = JobSpec.create("CG", "S", backend="serial", workers=1)
        payload = {"benchmark": "CG", "problem_class": "S",
                   "backend": "serial", "workers": 1}
        assert spec.routing_key() == routing_key(payload)

    def test_ignores_non_run_affecting_fields(self):
        base = {"benchmark": "MG", "problem_class": "S"}
        noisy = dict(base, priority="high", no_cache=True, wait=True,
                     job_key="abc")
        assert routing_key(base) == routing_key(noisy)

    def test_normalizes_case_and_defaults(self):
        assert routing_key({"benchmark": "cg"}) == routing_key(
            {"benchmark": "CG", "problem_class": "S",
             "backend": "serial", "workers": 1})

    def test_distinct_specs_get_distinct_keys(self):
        keys = {routing_key({"benchmark": b, "problem_class": c})
                for b in ("CG", "MG", "FT") for c in ("S", "W")}
        assert len(keys) == 6


@contextlib.contextmanager
def _shard_fleet(tmp_path, daemon_url, count=2, pool_size=1):
    """``count`` in-process shard daemons fronted by a coordinator.

    Yields ``(coordinator, services, urls)``; ``daemon_url.stop(url)``
    kills one shard's server, the fixture stops (and drains) the rest.
    """
    services = [
        BenchService(backend="serial", pool_size=pool_size,
                     cache_dir=str(tmp_path / f"cache{i}"))
        for i in range(count)
    ]
    urls = [daemon_url(service) for service in services]
    coordinator = ShardCoordinator(
        {f"s{i}": url for i, url in enumerate(urls)}, health_interval=60.0)
    coordinator.start()
    try:
        yield coordinator, services, urls
    finally:
        coordinator.close()


def _verification_values(record: dict):
    return [(c["quantity"], c["computed"]) for c in record["verification"]]


class TestShardCoordinator:
    def test_routing_is_deterministic_and_resubmission_hits_cache(
            self, tmp_path, daemon_url):
        """The acceptance path: an identical spec resubmitted through
        the coordinator lands on the same shard and is a cache hit."""
        with _shard_fleet(tmp_path, daemon_url) as (coordinator, services, _):
            payload = {"benchmark": "CG", "problem_class": "S",
                       "wait": True}
            code1, first = coordinator.submit(dict(payload))
            code2, second = coordinator.submit(dict(payload))
        assert code1 == 200 and code2 == 200
        assert first["routing"]["served_by"] == second["routing"]["served_by"]
        assert first["routing"]["degraded"] is False
        assert first["cache_hit"] is False
        assert second["cache_hit"] is True
        assert second["state"] == "cached"
        # exactly one shard executed exactly once
        executed = [s.scheduler.executed for s in services]
        assert sorted(executed) == [0, 1]

    def test_jobs_namespaced_and_looked_up_through_coordinator(
            self, tmp_path, daemon_url):
        with _shard_fleet(tmp_path, daemon_url) as (coordinator, _, __):
            _, body = coordinator.submit({"benchmark": "MG",
                                          "problem_class": "S",
                                          "wait": True})
            shard, _, raw_id = body["job_id"].partition(":")
            assert shard in ("s0", "s1")
            assert raw_id.startswith("job-")
            code, fetched = coordinator.job(body["job_id"])
            assert code == 200
            assert fetched["job_id"] == body["job_id"]
            assert coordinator.job("nope:job-000001")[0] == 404
            assert coordinator.job("malformed")[0] == 404
            _, listing = coordinator.jobs()
            assert body["job_id"] in {j["job_id"] for j in listing["jobs"]}

    def test_eight_concurrent_jobs_bit_identical_through_http(
            self, tmp_path, daemon_url, coordinator_url):
        """8 concurrent submissions through the coordinator's own HTTP
        surface complete and match direct one-shot runs bit for bit."""
        with _shard_fleet(tmp_path, daemon_url,
                          pool_size=2) as (coordinator, _, __):
            client = ServiceClient(coordinator_url(coordinator))
            results = [None] * 8

            def submit(i):
                results[i] = client.submit(
                    {"benchmark": "CG" if i % 2 == 0 else "MG",
                     "problem_class": "S", "no_cache": True,
                     "wait": True})
            workers = [threading.Thread(target=submit, args=(i,))
                       for i in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
        direct = {name: run_benchmark(name, "S").to_dict()
                  for name in ("CG", "MG")}
        for i, outcome in enumerate(results):
            code, body = outcome
            assert code == 200, body
            assert body["state"] == "done"
            name = "CG" if i % 2 == 0 else "MG"
            assert (_verification_values(body["result"])
                    == _verification_values(direct[name]))

    def test_npb_jobs_cli_renders_coordinator_status(
            self, tmp_path, capsys, daemon_url, coordinator_url):
        """``npb jobs`` pointed at a coordinator renders the fleet
        rollup (the aggregated /status has no top-level queue/pool)."""
        from repro.harness import cli

        with _shard_fleet(tmp_path, daemon_url) as (coordinator, _, __):
            url = coordinator_url(coordinator)
            coordinator.submit({"benchmark": "CG",
                                "problem_class": "S", "wait": True})
            rc = cli.main(["jobs", "--url", url])
        out = capsys.readouterr().out
        assert rc == 0
        assert "coordinator up" in out
        assert "2/2 shards" in out
        assert "1 submitted" in out
        # the namespaced job line rides along
        assert "job s" in out and "verified=True" in out

    def test_aggregated_status_fans_in_both_shards(self, tmp_path,
                                                   daemon_url):
        with _shard_fleet(tmp_path, daemon_url) as (coordinator, _, __):
            coordinator.submit({"benchmark": "CG", "problem_class": "S",
                                "wait": True})
            coordinator.submit({"benchmark": "CG", "problem_class": "S",
                                "wait": True})
            status = coordinator.status()
        assert status["shard_count"] == 2
        assert status["healthy_shards"] == 2
        assert status["degraded"] is False
        assert status["totals"]["pool_size"] == 2  # 1 per shard
        assert status["totals"]["cache_hits"] >= 1
        assert status["totals"]["executed"] == 1
        assert status["routing"]["submitted"] == 2
        assert status["routing"]["failovers"] == 0
        assert set(status["shards"]) == {"s0", "s1"}

    def test_routes_around_a_dead_shard_with_degraded_verdict(
            self, tmp_path, daemon_url):
        with _shard_fleet(tmp_path, daemon_url) as (coordinator, services,
                                                    urls):
            payload = {"benchmark": "FT", "problem_class": "S",
                       "wait": True}
            owner = coordinator.owner(payload)
            index = int(owner[1:])  # "s0" -> 0
            # kill the owning shard's server
            daemon_url.stop(urls[index])
            code, body = coordinator.submit(dict(payload))
            assert code == 200, body
            routing = body["routing"]
            assert routing["intended"] == owner
            assert routing["served_by"] != owner
            assert routing["degraded"] is True
            assert owner in routing["reason"]
            assert routing["attempts"][0]["shard"] == owner
            assert body["state"] == "done"
            status = coordinator.status()
            assert status["healthy_shards"] == 1
            assert status["degraded"] is True
            assert status["routing"]["failovers"] == 1
            # the survivor executed the job
            survivor = services[1 - index]
            assert survivor.scheduler.executed == 1
            # restart-free lookup of the failed-over job still works
            assert coordinator.job(body["job_id"])[0] == 200

    def test_all_shards_dead_is_a_structured_503(self, tmp_path,
                                                 daemon_url):
        with _shard_fleet(tmp_path, daemon_url) as (coordinator, _, urls):
            for url in urls:
                daemon_url.stop(url)
            code, body = coordinator.submit({"benchmark": "CG",
                                             "problem_class": "S"})
            assert code == 503
            assert body["routing"]["degraded"] is True
            assert body["routing"]["served_by"] is None
            assert len(body["routing"]["attempts"]) == 2
            assert coordinator.status()["healthy_shards"] == 0


class _ParkingShard:
    """Stub shard (an app for the one server): ``POST /jobs`` parks
    until released, ``GET /status`` answers at once."""

    def __init__(self):
        self.parked = 0
        self.release = threading.Event()

    def note_http_response(self, code):
        pass

    async def route(self, method, path, headers, body):
        if method != "POST":
            return 200, {"service": "stub"}, {}
        self.parked += 1
        while not self.release.is_set():
            await asyncio.sleep(0.01)
        return 200, {"job_id": "job-000001", "state": "done"}, {}


class TestCoordinatorHTTPSurface:
    def test_cached_hop_has_no_delayed_ack_stall(
            self, tmp_path, daemon_url, coordinator_url):
        """A cached ``wait`` submit through the coordinator's HTTP
        surface on one keep-alive connection: a flat 44 ms while the
        coordinator had its own handler without TCP_NODELAY."""
        payload = {"benchmark": "IS", "problem_class": "S", "wait": True}
        with _shard_fleet(tmp_path, daemon_url,
                          count=1) as (coordinator, _, __):
            client = ServiceClient(coordinator_url(coordinator))
            assert client.submit(payload)[0] == 200  # executes, warms
            latencies = []
            for _ in range(60):
                started = time.perf_counter()
                code, body = client.submit(payload)
                latencies.append(time.perf_counter() - started)
                assert code == 200 and body["state"] == "cached"
            client.close()
        assert statistics.median(latencies) < 0.010, sorted(latencies)

    def test_parked_waits_never_starve_status(self, coordinator_url):
        """More ``wait`` submissions parked in the coordinator than the
        loop's default executor has threads (``cpu_count + 4``): every
        one completes and ``GET /status`` answers meanwhile."""
        shard = _ParkingShard()
        shard_url = coordinator_url(shard)  # any app serves the same way
        parked = (os.cpu_count() or 1) + 4 + 2
        coordinator = ShardCoordinator({"s0": shard_url},
                                       health_interval=60.0)
        codes: list[int] = []
        workers: list[threading.Thread] = []
        try:
            url = coordinator_url(coordinator)

            def submit():
                codes.append(ServiceClient(url, timeout=60).submit(
                    {"benchmark": "CG", "problem_class": "S",
                     "wait": True})[0])
            workers += [threading.Thread(target=submit)
                        for _ in range(parked)]
            for w in workers:
                w.start()
            deadline = time.monotonic() + 30
            while shard.parked < parked:
                assert time.monotonic() < deadline, shard.parked
                time.sleep(0.01)
            code, status = ServiceClient(url, timeout=10).status()
            assert code == 200
            assert status["healthy_shards"] == 1
        finally:
            shard.release.set()
            for w in workers:
                w.join(30)
            coordinator.close()
        assert not any(w.is_alive() for w in workers)
        assert codes == [200] * parked


class TestJobKeyIdempotency:
    def test_repeated_job_key_attaches_to_the_admitted_job(self, tmp_path):
        service = BenchService(backend="serial", pool_size=1,
                               cache_dir=str(tmp_path / "cache"))
        with service:
            first = service.submit("CG", "S", job_key="k1", no_cache=True)
            again = service.submit("CG", "S", job_key="k1", no_cache=True)
            other = service.submit("CG", "S", job_key="k2", no_cache=True)
            assert again is first
            assert other is not first
            done = service.wait(first.job_id, timeout=300)
            assert done.state == "done"
            # a repeat after completion still returns the same job
            assert service.submit("CG", "S", job_key="k1") is first

    def test_coordinator_stamps_a_job_key(self, tmp_path, daemon_url):
        with _shard_fleet(tmp_path, daemon_url) as (coordinator, services, _):
            _, body = coordinator.submit({"benchmark": "CG",
                                          "problem_class": "S",
                                          "wait": True})
            _, _, raw_id = body["job_id"].partition(":")
            job = next(j for s in services for j in s.jobs()
                       if j.job_id == raw_id)
            assert job.job_key is not None
            key = routing_key({"benchmark": "CG", "problem_class": "S"})
            assert job.job_key.startswith(key[:16])


class _FlakyHandler(BaseHTTPRequestHandler):
    """Rejects the first N submissions with 429 + Retry-After, then 200."""

    rejections = 2
    seen = 0

    def log_message(self, format, *args):
        pass

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        self.rfile.read(length)
        cls = type(self)
        cls.seen += 1
        if cls.seen <= cls.rejections:
            body = b'{"error": "queue full"}'
            self.send_response(429)
            self.send_header("Retry-After", "0.01")
        else:
            body = b'{"state": "done", "ok": true}'
            self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class TestClientRetryAfter:
    @pytest.fixture
    def flaky_url(self):
        _FlakyHandler.seen = 0
        httpd = ThreadingHTTPServer(("127.0.0.1", 0), _FlakyHandler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        host, port = httpd.server_address[:2]
        yield f"http://{host}:{port}"
        httpd.shutdown()
        httpd.server_close()

    def test_submit_retries_through_429_honoring_retry_after(
            self, flaky_url):
        client = ServiceClient(flaky_url, timeout=10.0)
        started = time.perf_counter()
        code, body = client.submit({"benchmark": "CG"}, retries=3)
        elapsed = time.perf_counter() - started
        assert code == 200
        assert body["ok"] is True
        assert _FlakyHandler.seen == 3  # 2 rejections + 1 success
        assert elapsed < 5.0  # honored the 0.01s hint, not a default 1s

    def test_submit_without_retries_returns_the_429(self, flaky_url):
        client = ServiceClient(flaky_url, timeout=10.0)
        code, body = client.submit({"benchmark": "CG"})
        assert code == 429
        assert _FlakyHandler.seen == 1

    def test_retries_exhausted_returns_final_429(self, flaky_url):
        _FlakyHandler.rejections = 10
        try:
            client = ServiceClient(flaky_url, timeout=10.0)
            code, _ = client.submit({"benchmark": "CG"}, retries=2)
            assert code == 429
            assert _FlakyHandler.seen == 3  # initial try + 2 retries
        finally:
            _FlakyHandler.rejections = 2


class TestSpawnedShards:
    """``spawn_shard``/``drain_children``: what ``npb shard-serve --spawn``
    and ``npb chaos`` run, importable."""

    OPTIONS = dict(backend="serial", workers=1, pool=1, queue_depth=4,
                   drain_timeout=30.0)

    def test_spawn_announce_serve_drain(self, tmp_path):
        child, url = spawn_shard("shard0", cache_dir=str(tmp_path),
                                 **self.OPTIONS)
        try:
            code, status = ServiceClient(url, timeout=30).status()
            assert code == 200
            assert status["pool"]["size"] == 1
            assert status["queue"]["capacity"] == 4
            assert (tmp_path / "shard0").is_dir()  # <cache_dir>/<name>
        finally:
            assert drain_children([child], timeout=30.0) is True
        assert child.returncode == 0  # its own graceful drain, not a kill

    def test_a_child_that_never_announces_is_reaped_and_reported(
            self, tmp_path):
        with pytest.raises(ServiceUnavailable, match="shard7 exited before announcing"):
            spawn_shard("shard7", cache_dir=str(tmp_path),
                        **dict(self.OPTIONS, backend="no-such-backend"))
