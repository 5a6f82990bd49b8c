"""Shard coordinator: consistent-hash routing across worker daemons.

One ``npb serve`` daemon is one warm pool on one host -- the scaling
ceiling of PR 5.  This module scales the service *out*: a
:class:`ShardCoordinator` fronts N independent worker daemons (shards)
and routes every submission by consistent hashing on the job's
:func:`~repro.service.jobs.routing_key`:

* **Cache locality.**  Identical specs always land on the same shard,
  so each shard's content-addressed result cache keeps working exactly
  as in the single-daemon case -- a resubmission through the coordinator
  is a cache hit on whichever shard owns the key.
* **Minimal resharding.**  The ring hashes each shard to
  ``DEFAULT_REPLICAS`` virtual points; adding a shard (N -> N+1) moves
  only the keys that fall into the new shard's arcs, ~1/(N+1) of the
  key space, so almost every cached fingerprint stays where it is.
  ``tests/service/test_shard.py`` asserts both properties as bounds:
  balance within :data:`BALANCE_BOUND` of the mean and migration at
  most ``2/N`` of the keys.
* **Health and route-around.**  A background prober marks shards
  unreachable; submissions to a dead shard fail over along the ring's
  preference order and come back with a structured *degraded* routing
  verdict (``routing.degraded``, with the attempt trail) instead of an
  error -- admitted work completes even while a shard is down.
  Failover resubmission is idempotent: the coordinator stamps a
  ``job_key`` on every forwarded submission, so a retry after an
  ambiguous transport failure attaches to the already-admitted job
  rather than double-running it.

The coordinator's HTTP surface (:meth:`ShardCoordinator.route`, the app
``npb shard-serve`` hands to the one server in :mod:`repro.service.http`)
mirrors the single-daemon API -- ``POST /jobs``, ``GET /jobs[/<id>]``,
``GET /status`` -- so every existing client (``npb submit``,
``npb loadgen``) points at a coordinator unchanged.  Job ids are
namespaced ``<shard>:<job_id>`` on the way out and parsed back on
lookup, which is the only thing a client can observe.
"""

from __future__ import annotations

import asyncio
import bisect
import functools
import hashlib
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.obs.metrics import (CONTENT_TYPE as METRICS_CONTENT_TYPE,
                               MetricsRegistry, process_rss_bytes)
from repro.obs.spans import TraceSampler, get_span_store
from repro.obs.trace import (TRACEPARENT_HEADER, TraceContext,
                             format_traceparent, parse_traceparent)
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.http import ANNOUNCE, parse_route
from repro.service.jobs import RETRY_AFTER_SECONDS, routing_key, submission_payload

#: Virtual points per shard on the hash ring.  More replicas smooth the
#: arc lengths: at 128 the per-shard load over random keys stays within
#: :data:`BALANCE_BOUND` of the mean (asserted by the property tests).
DEFAULT_REPLICAS = 128

#: Declared balance bound: with DEFAULT_REPLICAS virtual points, every
#: shard's share of uniformly random keys is within +/- this fraction of
#: the perfectly even share.
BALANCE_BOUND = 0.40

#: Seconds between background health probes of each shard.
DEFAULT_HEALTH_INTERVAL = 2.0

#: Per-probe HTTP timeout -- a hung shard must not wedge the prober.
DEFAULT_PROBE_TIMEOUT = 5.0

#: Threads forwarding ``POST /jobs`` to shards.  A ``wait: true``
#: submission parks its thread until the shard finishes the job, so
#: submissions get an executor of their own: however many are parked,
#: the short calls (``/status``, job lookups) run on the loop's default
#: executor and are never queued behind them.  Submissions beyond this
#: many wait for a thread; they cannot deadlock, because a shard's
#: progress never depends on the coordinator.
SUBMIT_THREADS = 64


#: Fleet total -> where each shard's ``/status`` reports it.  Read with
#: ``.get`` throughout: pre-v6 shards lack the ``dedup`` block (and
#: pre-obs ones ``rss_bytes``), and a mixed-version fleet must keep
#: aggregating.
_TOTALS = {
    "queue_depth": ("queue", "depth"),
    "queue_capacity": ("queue", "capacity"),
    "pool_size": ("pool", "size"),
    "pool_in_use": ("pool", "in_use"),
    "cache_entries": ("cache", "entries"),
    "cache_hits": ("cache", "hits"),
    "cache_misses": ("cache", "misses"),
    "cache_corruption_healed": ("cache", "corruption_healed"),
    "executed": ("scheduler", "executed"),
    "cached": ("scheduler", "cached"),
    "failed": ("scheduler", "failed"),
    "coalesced": ("dedup", "coalesced"),
    "idempotent_replays": ("dedup", "idempotent_replays"),
    "duplicate_executions": ("scheduler", "duplicate_executions"),
}


def _hash_point(key: str) -> int:
    """Position of ``key`` on the ring (first 8 bytes of sha256)."""
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


class HashRing:
    """Consistent-hash ring mapping keys to named nodes.

    Each node owns ``replicas`` pseudo-random points; a key routes to
    the first point clockwise from its own hash.  Removing or adding a
    node therefore only remaps the arcs adjacent to that node's points
    -- the property that keeps per-shard result caches warm across
    resharding.
    """

    def __init__(self, nodes, replicas: int = DEFAULT_REPLICAS):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._nodes: list[str] = []
        self._points: list[int] = []
        self._owners: list[str] = []
        for node in nodes:
            self.add(str(node))
        if not self._nodes:
            raise ValueError("a HashRing needs at least one node")

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(self._nodes)

    def add(self, node: str) -> None:
        if node in self._nodes:
            raise ValueError(f"node {node!r} already on the ring")
        self._nodes.append(node)
        for replica in range(self.replicas):
            point = _hash_point(f"{node}#{replica}")
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, node)

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            raise ValueError(f"node {node!r} not on the ring")
        self._nodes.remove(node)
        kept = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != node
        ]
        self._points = [point for point, _ in kept]
        self._owners = [owner for _, owner in kept]

    def route(self, key: str, exclude=frozenset()) -> str:
        """First node clockwise from ``key`` not in ``exclude``."""
        for node in self.preference(key):
            if node not in exclude:
                return node
        raise LookupError(f"every node excluded for key {key!r}")

    def preference(self, key: str) -> list[str]:
        """All nodes in ring walk order from ``key`` (each once).

        Index 0 is the owner; the rest is the failover order, which is
        deterministic per key -- two coordinators (or one coordinator
        before and after a crash) fail the same key over to the same
        replacement shard.
        """
        start = bisect.bisect(self._points, _hash_point(key))
        order: list[str] = []
        seen: set[str] = set()
        for offset in range(len(self._points)):
            owner = self._owners[(start + offset) % len(self._points)]
            if owner not in seen:
                seen.add(owner)
                order.append(owner)
                if len(order) == len(self._nodes):
                    break
        return order


def spawn_shard(
    name: str, *, cache_dir: str, drain_timeout: float, **options
) -> tuple[subprocess.Popen, str]:
    """Spawn one ``npb serve`` child daemon; returns ``(child, url)``.

    The child listens on a loopback port of the OS's choosing and caches
    under ``<cache_dir>/<name>``; ``options`` are its other flags
    (``queue_depth=8`` is ``--queue-depth 8``, None is left out).  Its
    address is read off the line it announces on stdout like any daemon;
    one that exits without announcing raises ``ServiceUnavailable``.
    """
    options.update(cache_dir=os.path.join(cache_dir, name), drain_timeout=drain_timeout)
    cmd = [sys.executable, "-m", "repro", "serve", "--host=127.0.0.1", "--port=0"]
    for option, value in options.items():
        if value is not None:
            cmd += ["--" + option.replace("_", "-"), str(value)]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    for line in child.stdout:
        match = ANNOUNCE.search(line)
        if match:
            return child, match.group(1)
    drain_children([child], drain_timeout)
    raise ServiceUnavailable(f"spawned shard {name} exited before announcing itself")


def drain_children(children, timeout: float) -> bool:
    """SIGTERM spawned shard daemons so they run their own graceful
    drain, wait for each, SIGKILL stragglers; True when none was killed."""
    for child in children:
        if child.poll() is None:
            child.send_signal(signal.SIGTERM)
    clean = True
    for child in children:
        try:
            child.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            clean = False
        if child.stdout is not None:
            child.stdout.close()
    return clean


@dataclass
class ShardState:
    """Live view of one worker daemon behind the coordinator."""

    name: str
    url: str
    healthy: bool = True
    consecutive_failures: int = 0
    last_error: str | None = None
    last_checked: float | None = None
    #: most recent GET /status body (None until the first probe lands)
    last_status: dict | None = None
    submissions: int = 0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "url": self.url,
            "healthy": self.healthy,
            "consecutive_failures": self.consecutive_failures,
            "last_error": self.last_error,
            "last_checked": self.last_checked,
            "submissions": self.submissions,
            "status": self.last_status,
        }


class ShardCoordinator:
    """Routes jobs across worker daemons; aggregates their status.

    ``shards`` maps shard name to base URL.  The coordinator holds no
    job state of its own -- every job lives on exactly one shard, and
    the namespaced job id (``<shard>:<job_id>``) is all a client needs
    to find it again.
    """

    def __init__(
        self,
        shards: dict[str, str],
        replicas: int = DEFAULT_REPLICAS,
        health_interval: float = DEFAULT_HEALTH_INTERVAL,
        probe_timeout: float = DEFAULT_PROBE_TIMEOUT,
        client_timeout: float = 600.0,
        trace_sample: float = 0.0,
    ):
        if not shards:
            raise ValueError("a coordinator needs at least one shard")
        #: edge sampling for submissions arriving without a traceparent
        self.sampler = TraceSampler(trace_sample)
        self.trace_sample = float(trace_sample)
        self.health_interval = health_interval
        self._ring = HashRing(shards, replicas=replicas)
        self._states = {
            name: ShardState(name=name, url=url.rstrip("/"))
            for name, url in shards.items()
        }
        self._clients = {
            name: ServiceClient(url, timeout=client_timeout)
            for name, url in shards.items()
        }
        # Probes measure connectability, so no keep-alive: a persistent
        # connection outlives a dead listener (the server keeps
        # answering it) and would report the shard healthy forever.
        self._probers = {
            name: ServiceClient(url, timeout=probe_timeout, keep_alive=False)
            for name, url in shards.items()
        }
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._health_thread: threading.Thread | None = None
        #: forwards submissions for :meth:`route` (threads start lazily)
        self._submit_pool = ThreadPoolExecutor(
            max_workers=SUBMIT_THREADS, thread_name_prefix="npb-shard-submit"
        )
        #: optional ChaosInjector (fault-injection tests); None = off
        self.chaos = None
        self._seq = 0
        self.routed = 0
        self.failovers = 0
        self.unroutable = 0
        self.started_at = time.time()
        self.metrics = MetricsRegistry()
        self._register_metrics()

    def _register_metrics(self) -> None:
        reg = self.metrics
        reg.gauge(
            "npb_shard_healthy", "1 when the shard's last probe succeeded",
            callback=lambda: {
                name: 1.0 if state.healthy else 0.0
                for name, state in self._states.items()
            }, label_name="shard")
        reg.gauge(
            "npb_shard_submissions_total", "submissions served per shard",
            callback=lambda: {
                name: state.submissions
                for name, state in self._states.items()
            }, label_name="shard")
        reg.gauge(
            "npb_routing_total", "coordinator routing outcomes",
            callback=lambda: {
                "submitted": self.routed,
                "failovers": self.failovers,
                "unroutable": self.unroutable,
            }, label_name="outcome")
        # chaos is attached after construction (coordinator.chaos = ...),
        # so the callback re-checks at every scrape
        reg.gauge("npb_chaos_injected_total", "injected faults by kind",
                  callback=lambda: (
                      self.chaos.summary()["kinds"]
                      if self.chaos is not None
                      else {}
                  ), label_name="kind")
        reg.gauge("npb_process_rss_bytes", "peak resident set (getrusage)",
                  callback=process_rss_bytes)
        reg.gauge("npb_uptime_seconds", "seconds since coordinator start",
                  callback=lambda: time.time() - self.started_at)
        self._http_responses = reg.counter(
            "npb_http_responses_total", "front-end responses by status code")

    def note_http_response(self, code: int) -> None:
        self._http_responses.inc(code=str(code))

    # ------------------------------------------------------------------ #
    # health
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Probe once synchronously, then keep probing in the background."""
        self.check_all()
        if self._health_thread is not None:
            return
        self._health_thread = threading.Thread(
            target=self._health_loop, daemon=True, name="npb-shard-health"
        )
        self._health_thread.start()

    def _health_loop(self) -> None:
        while not self._stop.wait(self.health_interval):
            self.check_all()

    def check_all(self) -> None:
        for name in self._states:
            self.check_shard(name)

    def check_shard(self, name: str) -> bool:
        """Probe one shard's /status; update its health state."""
        state = self._states[name]
        try:
            if self.chaos is not None:
                self.chaos.on_probe(name)
            code, status = self._probers[name].status()
        except ServiceUnavailable as exc:
            self._mark_unreachable(name, str(exc))
            return False
        with self._lock:
            state.healthy = code == 200
            if state.healthy:
                state.consecutive_failures = 0
                state.last_error = None
                state.last_status = status
            else:
                state.consecutive_failures += 1
                state.last_error = f"HTTP {code} from /status"
            state.last_checked = time.time()
        return state.healthy

    def _mark_unreachable(self, name: str, error: str) -> None:
        with self._lock:
            state = self._states[name]
            state.healthy = False
            state.consecutive_failures += 1
            state.last_error = error
            state.last_checked = time.time()

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    def owner(self, payload: dict) -> str:
        """Owning shard of a submission payload (ignoring health).

        The key fills a missing ``backend``/``workers`` with the literal
        ``"serial"``/``1``, not with the owning shard's pool defaults
        (the coordinator does not know them before it has routed).  On
        a fleet of ``threads x2`` shards a bare payload and its explicit
        ``threads``/``2`` twin may therefore land on different shards:
        that split costs cache locality, never a wrong answer -- each
        shard's front end coalesces and caches on the spec it builds.
        """
        return self._ring.route(routing_key(payload))

    def _attempt_order(self, key: str) -> list[str]:
        """Preference order with unhealthy shards demoted, not dropped.

        A shard the prober last saw dead is still tried *last*: probes
        race with recoveries, and a wrongly-condemned shard serving its
        own keys is strictly better than a failover.
        """
        order = self._ring.preference(key)
        with self._lock:
            healthy = [n for n in order if self._states[n].healthy]
            unhealthy = [n for n in order if not self._states[n].healthy]
        return healthy + unhealthy

    def submit(
        self, payload: dict, trace: "TraceContext | None" = None
    ) -> tuple[int, dict]:
        """Route one submission; fail over around unreachable shards.

        Returns the shard's response with the job id namespaced and a
        ``routing`` block appended.  When the owning shard could not
        serve, ``routing.degraded`` is true and ``routing.attempts``
        lists every shard tried with the error that moved us on -- a
        structured verdict, not a guess, so callers (and the loadgen
        SLO) can tell a clean run from a survived outage.

        ``trace`` is the edge sampling decision (made by :meth:`route`
        from the incoming ``traceparent``).  The route is recorded as a
        ``coordinator.route`` span (the no-op span unless sampled); a
        sampled one forwards its child context to the chosen shard, so
        a failover keeps the same trace id and shows up as a
        ``failover`` span event rather than a fresh trace.
        """
        payload = dict(payload)
        key = routing_key(payload)
        with self._lock:
            self._seq += 1
            sequence = self._seq
        # One idempotency key for every attempt of this submission: if
        # shard A admitted the job but the connection died before the
        # response, a retry (on A after recovery) attaches to that job
        # instead of admitting a duplicate.  A client-supplied key wins
        # -- end-to-end idempotency through the coordinator.
        if payload.get("job_key") is None:
            payload["job_key"] = f"{key[:16]}-{sequence:08d}"
        intended = self._ring.route(key)
        if trace is None:
            trace = self.sampler.decide(
                forced=bool(payload.get("trace", False))
            )
        route_span, child_ctx = get_span_store().start_span(
            "coordinator.route",
            ctx=trace,
            attrs={"routing_key": key, "intended": intended},
        )
        # An unsampled request forwards no header: the shard's own
        # sampler still gets its say, as for a direct submission.
        fwd_headers = None
        if child_ctx.sampled:
            fwd_headers = {TRACEPARENT_HEADER: format_traceparent(child_ctx)}
        attempts: list[dict] = []

        def routing(served_by, degraded, reason) -> dict:
            return {
                "key": key,
                "intended": intended,
                "served_by": served_by,
                "degraded": degraded,
                "reason": reason,
                "attempts": attempts,
            }

        for name in self._attempt_order(key):
            try:
                # A chaos injector may drop the attempt (raising what a
                # dead socket would), stall it, or substitute a synthetic
                # 429 -- all inside the existing failover machinery.
                synthetic = (
                    self.chaos.on_submit(name)
                    if self.chaos is not None
                    else None
                )
                if synthetic is not None:
                    code, body = synthetic
                else:
                    code, body = self._clients[name].submit(
                        payload, headers=fwd_headers
                    )
            except ServiceUnavailable as exc:
                self._mark_unreachable(name, str(exc))
                attempts.append({"shard": name, "error": str(exc)})
                route_span.add_event("failover", shard=name, error=str(exc))
                continue
            with self._lock:
                self.routed += 1
                self._states[name].submissions += 1
                if attempts:
                    self.failovers += 1
            degraded = name != intended
            body = self._namespace_job(name, body)
            reason = (
                f"shard {intended!r} unreachable; routed around to {name!r}"
                if degraded
                else None
            )
            body["routing"] = routing(name, degraded, reason)
            route_span.set(served_by=name, degraded=degraded)
            route_span.end("error" if code >= 400 else "ok")
            return code, body
        with self._lock:
            self.unroutable += 1
        route_span.set(served_by=None)
        route_span.end("error")
        return 503, {
            "error": "no shard reachable",
            "routing": routing(None, True, "every shard unreachable"),
        }

    @staticmethod
    def _namespace_job(shard: str, body: dict) -> dict:
        body = dict(body)
        if isinstance(body.get("job_id"), str):
            body["shard"] = shard
            body["job_id"] = f"{shard}:{body['job_id']}"
        # coalesced_with names a shard-local job id (the twin this
        # response was attached to); namespace it the same way so
        # clients can GET it back.
        if isinstance(body.get("coalesced_with"), str):
            body["coalesced_with"] = f"{shard}:{body['coalesced_with']}"
        result = body.get("result")
        if isinstance(result, dict) and isinstance(
            result.get("coalesced_with"), str
        ):
            result = dict(result)
            result["coalesced_with"] = f"{shard}:{result['coalesced_with']}"
            body["result"] = result
        return body

    def _on_owning_shard(self, namespaced_id: str, call) -> tuple[str, int, dict]:
        """``call(client, job_id)`` on the shard a ``<shard>:<job_id>``
        id names: ``(shard, code, body)``, 404/503 when it cannot."""
        shard, _, job_id = namespaced_id.partition(":")
        if not job_id or shard not in self._clients:
            return shard, 404, {
                "error": f"malformed or unknown shard job id {namespaced_id!r}"
            }
        try:
            return shard, *call(self._clients[shard], job_id)
        except ServiceUnavailable as exc:
            self._mark_unreachable(shard, str(exc))
            return shard, 503, {"error": f"shard {shard!r} unreachable: {exc}"}

    def job(self, namespaced_id: str) -> tuple[int, dict]:
        """Look one job up by its ``<shard>:<job_id>`` id."""
        shard, code, body = self._on_owning_shard(namespaced_id, ServiceClient.job)
        if code == 200:
            body = self._namespace_job(shard, body)
        return code, body

    def trace(self, namespaced_id: str) -> tuple[int, dict]:
        """``GET /jobs/<id>/trace`` through the coordinator: the owning
        shard's spans merged with the coordinator's own (the
        ``coordinator.route`` span and its ``failover`` events live in
        this process, not the shard's)."""
        _, code, body = self._on_owning_shard(namespaced_id, ServiceClient.trace)
        if code != 200:
            return code, body
        body = dict(body)
        body["job_id"] = namespaced_id
        trace_id = body.get("trace_id")
        if trace_id:
            own = get_span_store().trace(trace_id)
            if own:
                # In-process fleets (tests, embedded shards) share the
                # process-global store with their shards, so the proxied
                # body may already hold our spans -- dedupe by span id.
                shard_spans = list(body.get("spans", []))
                seen = {span["span_id"] for span in shard_spans}
                body["spans"] = [
                    span.to_dict()
                    for span in own
                    if span.span_id not in seen
                ] + shard_spans
        return code, body

    def jobs(self) -> tuple[int, dict]:
        """Aggregated job listing across every reachable shard."""
        listing: list[dict] = []
        unreachable: list[str] = []
        for name, client in self._clients.items():
            try:
                code, body = client.jobs()
            except ServiceUnavailable as exc:
                self._mark_unreachable(name, str(exc))
                unreachable.append(name)
                continue
            if code == 200:
                listing.extend(
                    self._namespace_job(name, job)
                    for job in body.get("jobs", [])
                )
        return 200, {"jobs": listing, "unreachable_shards": unreachable}

    # ------------------------------------------------------------------ #
    # status
    # ------------------------------------------------------------------ #

    def status(self) -> dict:
        """Aggregated view: per-shard detail plus fleet-wide rollups."""
        self.check_all()
        with self._lock:
            shards = {
                name: state.as_dict() for name, state in self._states.items()
            }
            routed = self.routed
            failovers = self.failovers
            unroutable = self.unroutable
        totals = dict.fromkeys([*_TOTALS, "rss_bytes"], 0)
        for shard in shards.values():
            status = shard["status"]
            if not shard["healthy"] or not status:
                continue
            for total, (block, field) in _TOTALS.items():
                totals[total] += status.get(block, {}).get(field, 0)
            totals["rss_bytes"] += status.get("rss_bytes", 0)
        healthy = sum(1 for shard in shards.values() if shard["healthy"])
        return {
            "service": "npb-shard-coordinator",
            "uptime_seconds": time.time() - self.started_at,
            "rss_bytes": process_rss_bytes(),
            "trace_sample": self.trace_sample,
            "shard_count": len(shards),
            "healthy_shards": healthy,
            "degraded": healthy < len(shards),
            "ring": {
                "replicas": self._ring.replicas,
                "shards": list(self._ring.nodes),
            },
            "routing": {
                "submitted": routed,
                "failovers": failovers,
                "unroutable": unroutable,
            },
            "totals": totals,
            "shards": shards,
        }

    # ------------------------------------------------------------------ #
    # HTTP surface (``npb shard-serve``)
    # ------------------------------------------------------------------ #

    async def route(self, method: str, path: str, headers: dict, body: bytes) -> tuple:
        """The app :func:`repro.service.http.serve` serves: the daemon
        API mapped onto the coordinator.  Every call below blocks on a
        shard, so none runs on the loop (see :data:`SUBMIT_THREADS`)."""
        loop = asyncio.get_running_loop()
        name, job_id = parse_route(method, path)
        if name == "submit":
            try:
                payload = submission_payload(headers, body)
            except ValueError as exc:
                return 400, {"error": f"bad job payload: {exc}"}, {}
            # Edge sampling decision: a sampled incoming traceparent (or
            # an explicit "trace": true) makes this submission traced
            # through routing, shard, scheduler, and kernel regions alike.
            trace = self.sampler.decide(
                incoming=parse_traceparent(headers.get(TRACEPARENT_HEADER)),
                forced=bool(payload.get("trace", False)),
            )
            code, reply = await loop.run_in_executor(
                self._submit_pool, self.submit, payload, trace
            )
            extra = {}
            if code == 429:
                # The shard's Retry-After does not survive the client hop;
                # re-issue the standard backoff hint at the coordinator edge.
                extra["Retry-After"] = f"{RETRY_AFTER_SECONDS:g}"
            return code, reply, extra
        if name == "metrics":
            content_type = {"Content-Type": METRICS_CONTENT_TYPE}
            return 200, self.metrics.render(), content_type
        if name == "status":
            return 200, await loop.run_in_executor(None, self.status), {}
        lookup = {
            "jobs": self.jobs,
            "job": functools.partial(self.job, job_id),
            "trace": functools.partial(self.trace, job_id),
        }.get(name)
        if lookup is None:
            return 404, {"error": f"no such resource {path!r}"}, {}
        code, reply = await loop.run_in_executor(None, lookup)
        return code, reply, {}

    def close(self) -> None:
        """Stop the health prober and the submission threads (shards
        are not owned and stay up)."""
        self._stop.set()
        if self._health_thread is not None:
            self._health_thread.join(self.health_interval + 5.0)
            self._health_thread = None
        self._submit_pool.shutdown(wait=False)

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
