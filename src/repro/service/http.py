"""The one HTTP/1.1 server: asyncio plumbing shared by daemon and coordinator.

``npb serve`` and ``npb shard-serve`` expose the same JSON API over the
same server.  :func:`serve` binds a socket and serves any *app* -- an
object with

``async route(method, path, headers, body) -> (code, payload, headers)``
    ``path`` has the query string and trailing slash stripped,
    ``headers`` has lower-cased names, ``body`` is the raw bytes;
    ``payload`` is a JSON-able dict or a preformatted ``str`` (the
    ``/metrics`` exposition, with its ``Content-Type`` in ``headers``);
``note_http_response(code)``
    called once per response written, malformed requests included.

:class:`~repro.service.async_api.AsyncFrontEnd` (admission, coalescing,
the daemon's routes) and :class:`~repro.service.shard.ShardCoordinator`
(routing, failover) are the two apps.  Everything about the wire lives
here and only here: request parsing and its bounds, the API's six routes
(:func:`parse_route`), keep-alive, the response writer, access logging,
and the bind / announce / stop / drain loop -- so there is one place to
harden each of them.  (asyncio already sets ``TCP_NODELAY`` on accepted
sockets and each response goes out in one ``write``, so no keep-alive
client stalls in the delayed-ACK window.)
"""

from __future__ import annotations

import asyncio
import functools
import json
import re
import sys
import threading
import time
from http import HTTPStatus

#: Hard cap on one request body (1 MiB): a job submission is a small
#: JSON object; anything bigger is abuse and is answered 413.
MAX_BODY_BYTES = 1 << 20

#: Most header lines one request may carry before it is answered 400.
MAX_HEADERS = 256

#: Seconds :func:`serve` lets requests already being answered finish
#: writing after ``on_stop`` returns, before the loop is torn down.
FLUSH_SECONDS = 5.0


#: How whoever started a server (a coordinator its shard, benchmarks/e2e,
#: tests) finds its address: the line :func:`announce` prints, unchanged.
ANNOUNCE = re.compile(r"listening on (http://\S+)")


def announce(role: str, url: str, detail: str) -> None:
    """Print the line :data:`ANNOUNCE` matches (the socket is bound)."""
    print(f"npb {role} listening on {url} ({detail})", flush=True)


class RequestRejected(Exception):
    """A request the parser refuses: answered with ``code``, then closed."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # longer than the stream's line limit (64 KiB)
        raise RequestRejected(400, "request or header line too long") from None


async def read_request(reader: asyncio.StreamReader):
    """Parse one request: ``(method, target, version, headers, body)``.

    Returns None on a clean end of stream; raises
    :class:`RequestRejected` for anything malformed or over a bound.
    """
    line = await _read_line(reader)
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise RequestRejected(400, f"malformed request line: {line!r}")
    method, target, version = parts
    headers: dict[str, str] = {}
    lines = 0
    while True:
        raw = await _read_line(reader)
        if raw in (b"\r\n", b"\n", b""):
            break
        lines += 1
        if lines > MAX_HEADERS:
            raise RequestRejected(400, f"more than {MAX_HEADERS} headers")
        name, sep, value = raw.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length") or 0)
    except ValueError:
        length = -1
    if length < 0:
        raise RequestRejected(
            400, f"bad Content-Length {headers.get('content-length')!r}"
        )
    if length > MAX_BODY_BYTES:
        raise RequestRejected(
            413, f"body of {length} bytes exceeds the {MAX_BODY_BYTES} bound"
        )
    body = await reader.readexactly(length) if length else b""
    return method, target, version, headers, body


def parse_route(method: str, path: str) -> tuple[str | None, str | None]:
    """The API's six routes as ``(name, job_id)``: ``submit``, ``status``,
    ``metrics``, ``jobs``, and ``job`` / ``trace`` with the id they
    carry.  The name is None for anything else (the apps answer 404)."""
    if method == "POST" and path == "/jobs":
        return "submit", None
    if method == "GET" and path in ("/status", "/metrics", "/jobs"):
        return path[1:], None
    if method == "GET" and path.startswith("/jobs/"):
        job_id = path[len("/jobs/") :]
        if job_id.endswith("/trace"):
            return "trace", job_id[: -len("/trace")]
        return "job", job_id
    return None, None


def _keep_alive(version: str, headers: dict) -> bool:
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.0":
        return connection == "keep-alive"
    return connection != "close"


def write_response(
    writer: asyncio.StreamWriter,
    code: int,
    payload: dict | str,
    extra_headers: dict | None,
    keep_alive: bool,
) -> None:
    """Queue one complete response (status line, headers, body)."""
    headers = dict(extra_headers or {})
    if isinstance(payload, str):
        # preformatted body (the /metrics exposition text)
        body = payload.encode()
        content_type = headers.pop("Content-Type", "text/plain")
    else:
        body = (json.dumps(payload, indent=2) + "\n").encode()
        content_type = "application/json"
    lines = [
        f"HTTP/1.1 {code} {HTTPStatus(code).phrase}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
    ]
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    if not keep_alive:
        lines.append("Connection: close")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + body)


class _Connections:
    """Per-connection request loop of one app, counting open requests."""

    def __init__(self, app, verbose: bool):
        self.app = app
        self.verbose = verbose
        #: requests read but not yet fully answered
        self.busy = 0
        self.quiet = asyncio.Event()
        self.quiet.set()

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while await self._serve_one(reader, writer):
                pass
        except (asyncio.IncompleteReadError, ConnectionError, asyncio.CancelledError):
            # The peer went away mid-request (nobody to answer), or server
            # shutdown cancelled an idle keep-alive reader: just close.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_one(self, reader, writer) -> bool:
        """Answer one request; False when the connection should close."""
        try:
            request = await read_request(reader)
        except RequestRejected as exc:
            await self._respond(writer, exc.code, {"error": str(exc)}, {}, False)
            self._log("-", "-", exc.code, time.perf_counter())
            return False
        if request is None:
            return False
        started = time.perf_counter()
        method, target, version, headers, body = request
        keep_alive = _keep_alive(version, headers)
        path = target.split("?", 1)[0].rstrip("/") or "/"
        self.busy += 1
        self.quiet.clear()
        try:
            try:
                code, payload, extra = await self.app.route(method, path, headers, body)
            except Exception as exc:  # boundary: answer, never drop
                code, extra = 500, {}
                payload = {"error": f"{type(exc).__name__}: {exc}"}
            await self._respond(writer, code, payload, extra, keep_alive)
        finally:
            self.busy -= 1
            if not self.busy:
                self.quiet.set()
        self._log(method, path, code, started)
        return keep_alive

    async def _respond(self, writer, code, payload, extra, keep_alive) -> None:
        self.app.note_http_response(code)
        write_response(writer, code, payload, extra, keep_alive)
        await writer.drain()

    def _log(self, method: str, path: str, code: int, started: float) -> None:
        if self.verbose:
            elapsed_ms = 1.0e3 * (time.perf_counter() - started)
            # one write per line, so concurrent servers never interleave
            sys.stderr.write(f"{method} {path} {code} {elapsed_ms:.1f}ms\n")
            sys.stderr.flush()


async def serve(
    app,
    host: str,
    port: int,
    announce,
    stop_event: asyncio.Event,
    on_stop=None,
    verbose: bool = False,
):
    """Serve ``app`` until ``stop_event`` is set.

    ``announce(url)`` is called once the socket is bound.  On stop the
    listener closes first; then ``on_stop`` (a coroutine function: the
    app's drain) runs while open connections are still served, so
    requests parked on admitted work get their answers; its result is
    returned.  ``verbose`` logs one stderr line per response.
    """
    connections = _Connections(app, verbose)
    server = await asyncio.start_server(connections.handle, host, port)
    bound_host, bound_port = server.sockets[0].getsockname()[:2]
    announce(f"http://{bound_host}:{bound_port}")
    try:
        await stop_event.wait()
    finally:
        # close() stops listening at once; wait_closed() is not awaited
        # because from Python 3.12 it also waits for every open
        # connection, and idle keep-alive clients never leave.
        server.close()
        result = await on_stop() if on_stop is not None else None
        try:
            await asyncio.wait_for(connections.quiet.wait(), FLUSH_SECONDS)
        except asyncio.TimeoutError:
            print(
                f"npb: {connections.busy} request(s) still unanswered "
                f"{FLUSH_SECONDS:g}s after the drain; closing them",
                file=sys.stderr,
                flush=True,
            )
    return result


class ServerThread:
    """:func:`serve` on a loopback port of the OS's choosing, on a
    dedicated loop thread (tests, embedding).

    ``start()`` returns the bound URL; ``stop()`` runs ``on_stop`` on the
    loop, joins the thread and returns ``on_stop``'s result.
    """

    def __init__(self, app, on_stop=None, verbose: bool = False):
        self.url: str | None = None
        self.result = None
        self._serve = functools.partial(
            serve, app, "127.0.0.1", 0, on_stop=on_stop, verbose=verbose
        )
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()

            def _announce(url: str) -> None:
                self.url = url
                self._ready.set()

            try:
                self.result = await self._serve(
                    announce=_announce, stop_event=self._stop
                )
            finally:
                self._ready.set()

        asyncio.run(main())

    def start(self, timeout: float = 10.0) -> str:
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout) or self.url is None:
            raise RuntimeError("HTTP server failed to start")
        return self.url

    def stop(self, timeout: float = 30.0):
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout)
        return self.result
