"""The one HTTP server (``repro.service.http``), under both of its apps.

Every case runs against the daemon's front end *and* the coordinator's
surface: the point of one server is that a bound, a log line or a fix
made once holds for both.  Raw sockets, because ``http.client`` cannot
send what these tests send.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.parse

import pytest

from repro.harness import cli
from repro.service import BenchService, ServiceClient, ShardCoordinator
from repro.service.http import (ANNOUNCE, MAX_BODY_BYTES, MAX_HEADERS, announce,
                                parse_route)


@pytest.fixture(params=["daemon", "coordinator"])
def surface(request, tmp_path, daemon_url, coordinator_url):
    """``surface(verbose=False) -> (url, response_count)``: serve a
    daemon or a coordinator (over one shard); ``response_count(code)``
    reads that surface's ``npb_http_responses_total``."""
    coordinators = []

    def start(verbose: bool = False):
        counted = BenchService(backend="serial", pool_size=1,
                               cache_dir=str(tmp_path / "cache"))
        url = daemon_url(counted, verbose=verbose)
        if request.param == "coordinator":
            counted = ShardCoordinator({"s0": url}, health_interval=60.0)
            coordinators.append(counted)
            url = coordinator_url(counted, verbose=verbose)

        def response_count(code: int) -> float:
            prefix = f'npb_http_responses_total{{code="{code}"}}'
            for line in counted.metrics.render().splitlines():
                if line.startswith(prefix):
                    return float(line.split()[-1])
            return 0.0

        return url, response_count

    try:
        yield start
    finally:
        for coordinator in coordinators:
            coordinator.close()


def _exchange(url: str, raw: bytes) -> tuple[int, dict, dict]:
    """Send ``raw``, read until the server closes: (code, headers, body)."""
    parsed = urllib.parse.urlsplit(url)
    with socket.create_connection((parsed.hostname, parsed.port),
                                  timeout=10) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    assert head, "the server closed the socket without answering"
    status, *lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines)
    return int(status.split()[1]), headers, json.loads(body)


class TestRejectedRequestsAreAnswered:
    """A request the parser refuses used to close the socket silently,
    uncounted; now it gets a structured error, ``Connection: close``."""

    @pytest.mark.parametrize("raw, code", [
        (b"GARBAGE\r\n\r\n", 400),
        (b"GET /status\r\n\r\n", 400),
        (b"POST /jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
        (b"POST /jobs HTTP/1.1\r\nContent-Length: lots\r\n\r\n", 400),
        (b"POST /jobs HTTP/1.1\r\nContent-Length: "
         + str(MAX_BODY_BYTES + 1).encode() + b"\r\n\r\n", 413),
        (b"GET /status HTTP/1.1\r\n"
         + b"".join(b"X-H%d: v\r\n" % i for i in range(MAX_HEADERS + 1))
         + b"\r\n", 400),
    ], ids=["request-line", "no-version", "negative-length",
            "non-numeric-length", "oversize-body", "too-many-headers"])
    def test_structured_error_then_close(self, surface, raw, code):
        url, response_count = surface()
        got, headers, body = _exchange(url, raw)
        assert got == code
        assert headers["Connection"] == "close"
        assert body["error"]
        assert response_count(code) == 1
        # and the server is still serving
        assert ServiceClient(url).status()[0] == 200

    def test_body_at_the_bound_is_read(self, surface):
        url, _ = surface()
        padding = b" " * (MAX_BODY_BYTES - 2)
        raw = (b"POST /jobs HTTP/1.1\r\nConnection: close\r\n"
               b"Content-Length: %d\r\n\r\n" % MAX_BODY_BYTES
               + b"[" + padding + b"]")
        code, _, body = _exchange(url, raw)
        assert code == 400  # parsed in full, refused as a spec
        assert "JSON object" in body["error"]


class TestAccessLog:
    def test_verbose_logs_one_line_per_response(self, surface, capfd):
        url, _ = surface(verbose=True)
        client = ServiceClient(url)
        client.status()
        client.job("nope")
        client.close()
        # the line goes out after the response, so give it a moment
        lines: list[str] = []
        deadline = time.monotonic() + 10
        while not any(line.startswith("GET /jobs/nope 404 ")
                      for line in lines):
            assert time.monotonic() < deadline, lines
            time.sleep(0.01)
            lines += capfd.readouterr().err.splitlines()
        # (a coordinator's /status also probes its verbose shard, which
        # logs its own line: so at least one, not exactly one)
        assert any(line.startswith("GET /status 200 ") for line in lines)
        for line in lines:
            if line.startswith("GET "):
                method, path, code, elapsed = line.split()
                assert elapsed.endswith("ms") and float(elapsed[:-2]) >= 0.0


class TestOneServingPath:
    def test_the_six_routes_are_parsed_once_for_both_apps(self):
        assert parse_route("POST", "/jobs") == ("submit", None)
        assert parse_route("GET", "/jobs") == ("jobs", None)
        assert parse_route("GET", "/status") == ("status", None)
        assert parse_route("GET", "/metrics") == ("metrics", None)
        assert parse_route("GET", "/jobs/job-000001") == ("job", "job-000001")
        assert parse_route("GET", "/jobs/s0:job-000001/trace") == (
            "trace", "s0:job-000001")
        for method, path in (("GET", "/"), ("GET", "/job"), ("POST", "/status"),
                             ("DELETE", "/jobs/job-000001"), ("PUT", "/jobs")):
            assert parse_route(method, path) == (None, None)

    def test_the_announce_line_is_the_one_its_regex_reads(self, capsys):
        announce("service", "http://127.0.0.1:8642", "pool 2x serial x1")
        line = capsys.readouterr().out
        assert line == ("npb service listening on http://127.0.0.1:8642 "
                        "(pool 2x serial x1)\n")
        assert ANNOUNCE.search(line).group(1) == "http://127.0.0.1:8642"

    @pytest.mark.parametrize("command", ["serve", "shard-serve"])
    def test_help_never_mentions_the_async_flag(self, command, capsys):
        # benchmarks/e2e appends the flag whenever `serve --help`
        # contains this literal string, and the flag no longer parses.
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--help"])
        assert exit_info.value.code == 0
        assert "--async" not in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["serve", "shard-serve"])
    def test_the_async_flag_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--async"])
        assert exit_info.value.code == cli.EXIT_USAGE
        assert "--async" in capsys.readouterr().err
