"""End-to-end tracing through the serving stack, in-process.

Covers the acceptance path (one trace id from HTTP submit down to
kernel-region spans), the free-when-off guarantee, the client's
stale-socket GET retry, and the traced-failover scenario through a
two-shard coordinator.
"""

from __future__ import annotations

import pytest

from repro.obs.spans import get_span_store
from repro.obs.trace import TraceContext, new_trace_id
from repro.service import BenchService, ServiceClient
from repro.service.shard import ShardCoordinator


class TestTracedDaemon:
    def test_one_trace_id_from_http_submit_to_kernel_region(
            self, tmp_path, daemon_url):
        service = BenchService(backend="serial",
                               cache_dir=str(tmp_path / "cache"))
        client = ServiceClient(daemon_url(service))
        code, body = client.submit({
            "benchmark": "CG", "problem_class": "S",
            "trace": True, "wait": True, "no_cache": True})
        assert code == 200
        assert body["trace_id"] is not None
        assert body["result"]["trace_id"] == body["trace_id"]
        code, trace = client.trace(body["job_id"])
        assert code == 200
        assert trace["trace_id"] == body["trace_id"]
        spans = trace["spans"]
        assert {s["trace_id"] for s in spans} == {body["trace_id"]}
        names = [s["name"] for s in spans]
        for expected in ("http.submit", "schedule", "queue.wait",
                         "pool.lease", "run"):
            assert expected in names, names
        regions = [s for s in spans if s["name"].startswith("region:")]
        assert any(s["name"] == "region:conj_grad" for s in regions)
        # region attrs carry the recorder's numbers, not re-measurements
        conj = next(s for s in regions if s["name"] == "region:conj_grad")
        record_regions = body["result"]["regions"]
        assert conj["attrs"]["wall_seconds"] == pytest.approx(
            record_regions["conj_grad"]["wall_seconds"])
        assert (conj["attrs"]["inline_calls"]
                == record_regions["conj_grad"]["inline_calls"] == 0)
        workers = [s for s in spans if s["name"].startswith("worker.")]
        assert workers, names
        # spans nest: every non-root parent id is a span in the trace
        ids = {s["span_id"] for s in spans}
        roots = [s for s in spans if s["parent_span_id"] not in ids]
        assert len(roots) == 1 and roots[0]["name"] == "http.submit"

    def test_untraced_submit_stays_span_free(self, tmp_path, daemon_url):
        service = BenchService(backend="serial",
                               cache_dir=str(tmp_path / "cache"))
        url = daemon_url(service)
        client = ServiceClient(url)
        code, body = client.submit({
            "benchmark": "CG", "problem_class": "S",
            "wait": True, "no_cache": True})
        assert code == 200
        assert body["trace_id"] is None
        assert "trace_id" not in body["result"]
        code, _ = client.trace(body["job_id"])
        assert code == 404
        daemon_url.stop(url)
        assert len(get_span_store()) == 0

    def test_status_and_metrics_exposition(self, tmp_path, daemon_url):
        service = BenchService(backend="serial",
                               cache_dir=str(tmp_path / "cache"))
        client = ServiceClient(daemon_url(service))
        client.submit({"benchmark": "CG", "problem_class": "S",
                       "wait": True})
        code, status = client.status()
        assert code == 200
        assert status["rss_bytes"] > 0
        assert status["uptime_seconds"] >= 0
        assert status["trace_sample"] == 0.0
        code, text = client.metrics()
        assert code == 200
        assert '# TYPE npb_jobs_total counter' in text
        assert 'npb_jobs_total{benchmark="CG",state="done"} 1' in text
        assert "npb_process_rss_bytes" in text
        assert "npb_job_latency_seconds_bucket" in text

    def test_sampled_job_yields_the_pinned_tree(self, tmp_path):
        """Names, nesting and attrs of a traced job's spans, executed
        then cached -- the tree the unconditional (no-op when unsampled)
        span calls must keep producing."""
        def tree(ctx):
            spans = get_span_store().trace(ctx.trace_id)
            names = {span.span_id: span.name for span in spans}
            assert all(span.status == "ok" for span in spans)
            return spans, sorted(
                (names.get(span.parent_span_id, "-"), span.name)
                for span in spans if not span.name.startswith("worker."))

        with BenchService(backend="serial",
                          cache_dir=str(tmp_path / "cache")) as service:
            traces = [TraceContext(trace_id=new_trace_id()) for _ in range(2)]
            for ctx in traces:
                job = service.submit("CG", "S", trace=ctx)
                assert service.wait(job.job_id, timeout=300).terminal
        spans, executed = tree(traces[0])
        regions = sorted(("run", span.name) for span in spans
                         if span.name.startswith("region:"))
        assert regions
        assert executed == sorted([
            ("-", "schedule"), ("schedule", "cache.probe"),
            ("schedule", "pool.lease"), ("schedule", "queue.wait"),
            ("schedule", "run"), *regions])
        attrs = {span.name: span.attrs for span in spans}
        assert attrs["schedule"] == {
            "job_id": "job-000001", "benchmark": "CG", "problem_class": "S",
            "backend": "serial", "workers": 1}
        assert attrs["cache.probe"] == {"hit": False}
        assert attrs["pool.lease"] == {"pooled": True, "team": "SerialTeam"}
        assert attrs["run"] == {"benchmark": "CG", "backend": "serial",
                                "workers": 1, "verified": True}
        spans, cached = tree(traces[1])
        assert cached == [("-", "schedule"), ("schedule", "cache.probe"),
                          ("schedule", "queue.wait")]
        assert {s.name: s.attrs for s in spans}["cache.probe"] == {"hit": True}

    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1), ("threads", 2), ("process", 2)])
    def test_worker_spans_under_every_team_backend(self, tmp_path,
                                                   backend, workers):
        service = BenchService(backend=backend, workers=workers,
                               cache_dir=str(tmp_path / "cache"))
        ctx = TraceContext(trace_id=new_trace_id(), parent_span_id=None)
        with service:
            job = service.submit("CG", "S", no_cache=True, trace=ctx)
            done = service.wait(job.job_id, timeout=300)
            assert done.state == "done"
        spans = get_span_store().trace(ctx.trace_id)
        workers_seen = {
            span.attrs["rank"]
            for span in spans
            if span.name.startswith("worker.")
        }
        expected = 1 if backend == "serial" else workers
        assert workers_seen == set(range(expected)), (backend, workers_seen)

    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1), ("threads", 2), ("process", 2)])
    def test_region_spans_equal_the_run_record(self, tmp_path,
                                               backend, workers):
        """One set of numbers: a traced job's region and worker spans
        are its run record's region table, call for call."""
        benchmarks = ["CG"] + (["LU"] if backend == "serial" else [])
        with BenchService(backend=backend, workers=workers,
                          cache_dir=str(tmp_path / "cache")) as service:
            runs = []
            for name in benchmarks:
                ctx = TraceContext(trace_id=new_trace_id())
                job = service.submit(name, "S", no_cache=True, trace=ctx)
                done = service.wait(job.job_id, timeout=300)
                assert done.state == "done", done.error
                runs.append((ctx, done.result["regions"]))
        ranks = 1 if backend == "serial" else workers
        for ctx, record in runs:
            spans = get_span_store().trace(ctx.trace_id)
            run = next(s for s in spans if s.name == "run")
            regions = {s.name[len("region:"):]: s for s in spans
                       if s.name.startswith("region:")}
            assert set(regions) == set(record)
            for name, span in regions.items():
                table = record[name]
                for key in ("calls", "inline_calls", "wall_seconds",
                            "dispatch_seconds", "execute_seconds",
                            "barrier_seconds"):
                    assert span.attrs[key] == table[key], (name, key)
                assert (run.started_at <= span.started_at
                        <= span.ended_at <= run.ended_at), name
                ranks_seen = [s for s in spans
                              if s.parent_span_id == span.span_id]
                assert sorted(s.attrs["rank"] for s in ranks_seen) \
                    == list(range(ranks)), name
                assert all(s.attrs["calls"] == table["calls"]
                           for s in ranks_seen), name
                assert sum(s.attrs["busy_seconds"] for s in ranks_seen) \
                    == pytest.approx(table["execute_seconds"]), name


def _spawn_daemon(cache_dir, port=0, timeout=60.0):
    """A real ``npb serve`` child process; returns ``(child, url)``."""
    import re
    import subprocess
    import sys

    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--host", "127.0.0.1", "--port", str(port),
         "--backend", "serial", "--cache-dir", str(cache_dir)],
        stdout=subprocess.PIPE, text=True)
    url = None
    for line in child.stdout:
        match = re.search(r"listening on (http://\S+)", line)
        if match:
            url = match.group(1)
            break
    assert url is not None, "daemon died before announcing"
    return child, url


class TestClientStaleSocketRetry:
    """Satellite: the keep-alive client must survive a daemon being
    SIGKILLed and re-established between a submit and a status poll --
    the GET path retries on a fresh socket exactly like POST does."""

    def test_get_after_daemon_kill_and_restart(self, tmp_path):
        import signal

        child, url = _spawn_daemon(tmp_path / "cache1")
        replacement = None
        try:
            client = ServiceClient(url, timeout=60.0)
            code, body = client.submit({"benchmark": "CG",
                                        "problem_class": "S",
                                        "wait": True})
            assert code == 200
            # SIGKILL: no FIN handshake niceties, the client's kept-alive
            # socket is now truly stale
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
            port = int(url.rsplit(":", 1)[1])
            replacement, _ = _spawn_daemon(tmp_path / "cache2", port=port)
            # the status poll (GET) must retry on a fresh connection
            # instead of surfacing the dead socket as an error
            code, status = client.status()
            assert code == 200
            assert status["scheduler"]["executed"] == 0  # the NEW daemon
            # a GET with a path component reconnects the same way
            code, _ = client.job(body["job_id"])
            assert code == 404
        finally:
            for proc in (child, replacement):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=30)
                if proc is not None and proc.stdout is not None:
                    proc.stdout.close()


class TestTracedFailover:
    """Satellite: a traced submit through a two-shard coordinator whose
    preferred shard is dead keeps one trace id end-to-end and records
    the route-around as a ``failover`` span event."""

    def test_failover_continues_the_trace(self, tmp_path, daemon_url):
        shards = {
            f"s{i}": daemon_url(BenchService(
                backend="serial", pool_size=1,
                cache_dir=str(tmp_path / f"cache{i}")))
            for i in range(2)
        }
        coordinator = ShardCoordinator(shards, health_interval=60.0)
        try:
            payload = {"benchmark": "CG", "problem_class": "S",
                       "trace": True, "wait": True, "no_cache": True}
            owner = coordinator.owner(payload)
            daemon_url.stop(shards[owner])
            code, body = coordinator.submit(dict(payload))
            assert code == 200, body
            assert body["routing"]["degraded"] is True
            assert body["trace_id"] is not None
            code, trace = coordinator.trace(body["job_id"])
            assert code == 200
        finally:
            coordinator.close()

        spans = trace["spans"]
        # one trace id across coordinator, shard, scheduler, and regions
        assert {s["trace_id"] for s in spans} == {body["trace_id"]}
        names = [s["name"] for s in spans]
        assert names.count("coordinator.route") == 1
        for expected in ("http.submit", "schedule", "run"):
            assert expected in names, names
        route = next(s for s in spans if s["name"] == "coordinator.route")
        assert route["attrs"]["served_by"] != owner
        events = [e for e in route["events"] if e["name"] == "failover"]
        assert len(events) == 1
        assert events[0]["shard"] == owner
        # region span attrs agree with the run record's region table
        # (the unattributed bucket is trace-only; the record omits it)
        record_regions = body["result"]["regions"]
        compared = 0
        for span in spans:
            if not span["name"].startswith("region:"):
                continue
            region = span["name"][len("region:"):]
            if region not in record_regions:
                assert region == "(unattributed)", region
                continue
            assert span["attrs"]["wall_seconds"] == pytest.approx(
                record_regions[region]["wall_seconds"]), region
            compared += 1
        assert compared == len(record_regions)
