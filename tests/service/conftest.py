"""The one place tests put a service or a coordinator on a socket.

Both fixtures are factories on the shared server thread
(:class:`repro.service.http.ServerThread` -- the same server ``npb
serve`` and ``npb shard-serve`` run), so a test never hand-rolls bind /
thread / shutdown.  Every server a test started is stopped at teardown,
in reverse order; ``daemon_url.stop(url)`` stops one early (a killed
shard).  Stopping a daemon drains its service, as SIGTERM does.

``tests/conftest.py`` loads this file as a plugin so the harness and
obs suites share the fixtures instead of growing copies.
"""

from __future__ import annotations

import pytest

from repro.service import AsyncFrontEnd, ServerThread


class _Servers:
    """Fixture value: ``servers(obj, **kwargs) -> url``, stopping at
    teardown whatever it started."""

    def __init__(self, build):
        #: ``build(obj, **kwargs) -> (app, on_stop)``
        self._build = build
        self._running: dict[str, ServerThread] = {}

    def __call__(self, obj, verbose: bool = False, **kwargs) -> str:
        app, on_stop = self._build(obj, **kwargs)
        server = ServerThread(app, on_stop=on_stop, verbose=verbose)
        url = server.start()
        self._running[url] = server
        return url

    def stop(self, url: str):
        """Stop the server at ``url`` now; returns its drain result."""
        return self._running.pop(url).stop()

    def stop_all(self) -> None:
        for url in reversed(list(self._running)):
            self.stop(url)


def _daemon(service, drain_timeout: float = 60.0, **frontend_kwargs):
    frontend = AsyncFrontEnd(service, **frontend_kwargs)
    return frontend, lambda: frontend.drain(drain_timeout)


@pytest.fixture
def daemon_url():
    """``daemon_url(service, window=..., quota=..., weights=...)``:
    serve ``service`` like ``npb serve``; returns its URL."""
    servers = _Servers(_daemon)
    try:
        yield servers
    finally:
        servers.stop_all()


@pytest.fixture
def coordinator_url():
    """``coordinator_url(coordinator)``: serve it like ``npb
    shard-serve``; the coordinator stays the caller's to close."""
    servers = _Servers(lambda coordinator: (coordinator, None))
    try:
        yield servers
    finally:
        servers.stop_all()
