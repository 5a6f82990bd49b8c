"""Stdlib HTTP client for the job service (``npb submit`` / ``npb jobs`` /
``npb loadgen`` and the shard coordinator's forwarding hop).

:class:`ServiceClient` keeps one ``http.client.HTTPConnection`` alive
per thread (the server speaks HTTP/1.1 keep-alive), so a closed-loop
worker pays connection setup once, not per request -- reconnecting per
call was polluting the latency percentiles the loadgen SLO gate reads.
``submit(..., retries=N)`` honors the ``Retry-After`` header on 429 with
bounded retries, so a briefly-full queue reads as backpressure instead
of a hard failure.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse

from repro.obs.trace import TRACEPARENT_HEADER, current_trace, format_traceparent
from repro.service.jobs import RETRY_AFTER_SECONDS

#: Longest single backoff ``ServiceClient.submit`` will sleep, however
#: large a Retry-After the server (or a proxy) sends.
MAX_RETRY_AFTER_SECONDS = 10.0


class ServiceUnavailable(RuntimeError):
    """The daemon could not be reached at the given URL."""


def _retry_after_seconds(headers) -> float:
    """Parse a Retry-After header (seconds form) with a safe default."""
    value = headers.get("Retry-After") if headers is not None else None
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return RETRY_AFTER_SECONDS
    return min(max(seconds, 0.0), MAX_RETRY_AFTER_SECONDS)


class ServiceClient:
    """Stdlib HTTP client with one keep-alive connection per thread.

    The server speaks HTTP/1.1 with persistent connections, so the
    client holds one ``http.client.HTTPConnection`` per thread (clients
    are shared across loadgen workers) and reuses it across requests.
    A reused connection can go stale -- the server may have closed it
    between requests -- so exactly one transparent retry on a fresh
    connection covers that case; a failure on a *fresh* connection is a
    real :class:`ServiceUnavailable`.

    ``keep_alive=False`` opens a fresh connection per request instead.
    Health probes need this: a kept-alive connection outlives its
    server's *listener* (an open connection is still served), so a
    probe over one would report a shard healthy when no new client can
    connect.  Liveness means connectability, not an old socket's luck.
    """

    def __init__(
        self, url: str, timeout: float = 600.0, keep_alive: bool = True
    ):
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.keep_alive = keep_alive
        parsed = urllib.parse.urlsplit(self.url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"only http:// URLs are supported, got {url!r}")
        self._host = parsed.hostname or "127.0.0.1"
        self._port = parsed.port or 80
        self._local = threading.local()

    def _connection(self) -> tuple[http.client.HTTPConnection, bool]:
        """This thread's connection and whether it is being reused."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            return conn, True
        conn = http.client.HTTPConnection(
            self._host, self._port, timeout=self.timeout
        )
        if self.keep_alive:
            self._local.conn = conn
        return conn, False

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            try:
                conn.close()
            except OSError:
                pass

    def close(self) -> None:
        """Close this thread's kept-alive connection (if any)."""
        self._drop_connection()

    def _request_full(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict | None = None,
        parse_json: bool = True,
    ) -> tuple[int, dict | str, dict]:
        """One request: ``(status, body, headers)``.

        Every method (GET included) shares the same stale-keep-alive
        retry: a failure on a *reused* connection gets exactly one
        transparent retry on a fresh one.  With ``parse_json=False``
        the body is returned as decoded text (the /metrics exposition
        is not JSON).
        """
        data = None if payload is None else json.dumps(payload).encode()
        send_headers = {"Content-Type": "application/json"}
        send_headers.update(headers or {})
        if TRACEPARENT_HEADER not in send_headers:
            # propagate an ambient trace context (npb submit --trace,
            # traced loadgen) on every request automatically
            ctx = current_trace()
            if ctx is not None:
                send_headers[TRACEPARENT_HEADER] = format_traceparent(ctx)
        for _ in range(2):
            conn, reused = self._connection()
            try:
                conn.request(method, path, body=data, headers=send_headers)
                response = conn.getresponse()
                raw = response.read()
            except (
                http.client.HTTPException,
                ConnectionError,
                OSError,
                TimeoutError,
            ) as exc:
                self._drop_connection()
                conn.close()
                if reused:
                    # Stale keep-alive connection; retry once fresh.
                    continue
                raise ServiceUnavailable(
                    f"cannot reach {self.url}: {exc}"
                ) from exc
            if not self.keep_alive:
                conn.close()
            elif response.will_close:
                self._drop_connection()
            if not parse_json:
                return (
                    response.status,
                    raw.decode(errors="replace"),
                    dict(response.headers),
                )
            try:
                body = json.loads(raw or b"{}")
            except json.JSONDecodeError:
                body = {"error": raw.decode(errors="replace")}
            return response.status, body, dict(response.headers)
        raise ServiceUnavailable(f"cannot reach {self.url}")  # unreachable

    def _request(
        self, method: str, path: str, payload: dict | None = None
    ) -> tuple[int, dict]:
        code, body, _ = self._request_full(method, path, payload)
        return code, body

    def submit(
        self, payload: dict, retries: int = 0, headers: dict | None = None
    ) -> tuple[int, dict]:
        """POST the job, honoring Retry-After on 429 up to ``retries``
        resubmissions.

        A 429 is backpressure, not failure: the server names its own
        backoff in the Retry-After header, and a client that sleeps it
        off usually gets admitted on the next attempt.  With the default
        ``retries=0`` the first response is returned as-is.
        """
        attempts = max(0, int(retries)) + 1
        code, body, response_headers = 429, {}, {}
        for attempt in range(attempts):
            code, body, response_headers = self._request_full(
                "POST", "/jobs", payload, headers=headers
            )
            if code != 429 or attempt == attempts - 1:
                return code, body
            time.sleep(_retry_after_seconds(response_headers))
        return code, body

    def job(self, job_id: str) -> tuple[int, dict]:
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(self) -> tuple[int, dict]:
        return self._request("GET", "/jobs")

    def status(self) -> tuple[int, dict]:
        return self._request("GET", "/status")

    def trace(self, job_id: str) -> tuple[int, dict]:
        """``GET /jobs/<id>/trace``: the server-side span tree."""
        return self._request("GET", f"/jobs/{job_id}/trace")

    def metrics(self) -> tuple[int, str]:
        """``GET /metrics``: the raw Prometheus exposition text."""
        code, body, _ = self._request_full(
            "GET", "/metrics", parse_json=False
        )
        return code, body
