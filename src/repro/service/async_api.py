"""The daemon's front end: in-flight coalescing and weighted-fair admission.

:class:`AsyncFrontEnd` is the app ``npb serve`` hands to the one HTTP
server (:mod:`repro.service.http`): it owns the daemon's routes and
everything that happens between a parsed request and
``BenchService.submit``.  It runs single-threaded on the server's event
loop while the execution core -- ``BenchService``/``Scheduler``/
``TeamPool`` -- stays exactly as it is, bridged through the loop's
default thread pool for the few short blocking calls (``status``,
``jobs``, ``drain``).  Waiting, which is what clients mostly do, is
fully event-driven and needs no machinery of the front end's own: a
connection parks on ``asyncio.wrap_future(job.completion)``, and the
dispatcher thread whose ``Job.finish`` resolves that completion wakes
the loop for it.

``POST /jobs``
    Submit a job.  Body: ``{"benchmark": "CG", "problem_class": "S",
    "backend": "serial", "workers": 1, "priority": "normal",
    "no_cache": false, "dispatch_timeout": null, "max_retries": null,
    "job_key": null, "tenant": null, "wait": false}``; a missing
    ``backend``/``workers`` means the pool's.
    Returns 202 with the job dict (or 200 with the terminal job when
    ``wait`` is true; 504 when ``wait_timeout`` expires first); 429 with
    ``Retry-After`` when admission is rejected (queue full, tenant over
    quota, or draining); 400 on a malformed spec or a field
    ``BenchService.submit`` does not take.
``GET /jobs`` / ``GET /jobs/<id>`` / ``GET /jobs/<id>/trace``
    Job listing / one job / its span tree (404 when unknown; 410 with
    ``"expired": true`` once the bounded registry has let the job go).
``GET /status`` / ``GET /metrics``
    Queue depth, pool occupancy, cache hit rate, scheduler counters,
    jobs by state, the ``dedup`` counters and the ``frontend`` block
    (in-flight registry size, admission window and queues) / the
    Prometheus exposition.

Three capabilities ride on it:

**In-flight coalescing.**  A registry keyed by the spec's routing key
(:func:`repro.service.jobs.routing_key`, with the pool's ``backend``/
``workers`` for a payload that names none, exactly as
``BenchService.submit`` fills them -- within one daemon the environment
is pinned, so equal routing keys partition submissions exactly like
equal fingerprints) tracks every cache-eligible job between admission
and its terminal state.  A second identical request waits for the
registered primary's :class:`Job` instead of re-queueing, then parks on
that job's completion like the primary's own connection does, so one
result fans out to all of them.  Waiter responses carry
``coalesced_with: <primary job_id>`` (also stamped into the run record
-- schema v6) and the waiter's own arrival and attach times
(:meth:`Job.coalesced_dict`), and each attachment increments
the ``dedup.coalesced`` counter in ``/status``.  Requests with
``no_cache`` asked for a private execution and never coalesce, in either
direction.  The registry entry dies with the job: a request arriving
*after* completion is the fingerprint cache's business, not ours --
coalescing handles the window the cache cannot (identical work in
flight), and the cache handles everything after.

**Idempotency keys.**  ``Idempotency-Key: <key>`` (shorthand for the
body's ``job_key``) makes POST /jobs replay-safe: a repeated key returns
the originally-admitted job, whatever state it has reached.  Replays are
recognized *before* fair admission -- they add no work, so they must not
consume quota -- which layers the three identity mechanisms as: job_key
(client-chosen, survives completion) over in-flight registry (identity
of running work) over fingerprint cache (identity of finished results).

**Weighted-fair multi-tenant admission.**  Requests carry a tenant id
(``X-NPB-Tenant`` header or body ``tenant``).  New work passes through
:class:`FairAdmission` -- deficit round robin over per-tenant FIFO
queues -- before reaching ``BenchService.submit``, so one hot tenant
saturates its own queue (structured 429 with the tenant named) instead
of the fleet.  The admission window (grants outstanding until their jobs
go terminal) is what creates the backlog DRR needs: without it a burst
would race straight into the service queue in arrival order.  PR 5's
bounded-queue/429 backpressure stays the outermost layer underneath.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import time
from collections import deque

from repro.obs.metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.obs.spans import get_span_store
from repro.obs.trace import parse_traceparent
from repro.service.api import TERMINAL_RETENTION, BenchService
from repro.service.http import parse_route
from repro.service.jobs import (
    RETRY_AFTER_SECONDS,
    AdmissionRejected,
    Job,
    routing_key,
    submission_payload,
)

#: The body fields of a submission: what ``BenchService.submit`` takes.
#: Any other field is refused (400) before the request can replay or
#: coalesce onto another job -- those layers match on a subset of the
#: fields, so an unchecked stray one would be ignored in silence.
_SUBMIT_FIELDS = frozenset(
    inspect.signature(BenchService.submit).parameters
) - {"self", "trace"}


class TenantQuotaExceeded(AdmissionRejected):
    """One tenant's admission queue is full (structured 429).

    Subclasses :class:`AdmissionRejected` so every path that maps
    admission failures to 429s (including waiters coalesced onto a
    quota-bounced primary) treats it as backpressure, not a bad spec.
    """

    def __init__(self, tenant: str, pending: int, quota: int):
        super().__init__(
            f"tenant {tenant!r} admission queue full "
            f"({pending}/{quota}); back off and resubmit"
        )
        self.tenant = tenant
        self.pending = pending
        self.quota = quota


class FairAdmission:
    """Deficit-round-robin admission across per-tenant queues.

    ``acquire(tenant)`` parks the caller on a per-tenant FIFO until DRR
    grants it one of ``window`` outstanding slots; ``release()`` returns
    a slot (callers do this when the granted job reaches a terminal
    state).  Each DRR visit tops a tenant's deficit up by its weight and
    serves while the deficit covers a whole request, so over any
    contended interval tenant throughput is proportional to weight --
    with equal weights, a tenant offering 4x the load still completes
    ~half, which is the fairness contract the tests pin down.  A tenant
    with more than ``quota`` requests already parked is rejected
    immediately (:class:`TenantQuotaExceeded`) -- per-tenant
    backpressure, layered above the service queue's global bound.

    Single-threaded by construction: every method must be called on the
    event-loop thread.
    """

    def __init__(
        self,
        window: int = 4,
        quota: int = 64,
        default_weight: float = 1.0,
        weights: dict[str, float] | None = None,
    ):
        if window < 1:
            raise ValueError("window must be >= 1")
        if quota < 1:
            raise ValueError("quota must be >= 1")
        for tenant, weight in (weights or {}).items():
            if weight <= 0:
                raise ValueError(
                    f"tenant {tenant!r} weight must be > 0, got {weight}"
                )
        if default_weight <= 0:
            raise ValueError("default_weight must be > 0")
        self.window = window
        self.quota = quota
        self._default_weight = float(default_weight)
        self._weights = {t: float(w) for t, w in (weights or {}).items()}
        self._queues: dict[str, deque[asyncio.Future]] = {}
        self._deficits: dict[str, float] = {}
        #: round-robin visiting order of tenants with queued requests
        self._order: deque[str] = deque()
        self.in_flight = 0
        self.granted: dict[str, int] = {}
        self._closed = False
        #: tenant whose DRR visit the window cut short (resume it with
        #: its remaining deficit instead of topping up again)
        self._visiting: str | None = None

    def weight(self, tenant: str) -> float:
        return self._weights.get(tenant, self._default_weight)

    async def acquire(self, tenant: str | None) -> None:
        """Park until granted an admission slot (DRR order).

        Raises :class:`AdmissionRejected` when draining and
        :class:`TenantQuotaExceeded` when this tenant's queue is full.
        """
        key = tenant if tenant is not None else "-"
        if self._closed:
            raise AdmissionRejected("service is draining; not accepting new jobs")
        if self.in_flight < self.window and not self._order:
            # Uncontended: nobody is parked, so weighted ordering cannot
            # matter -- grant synchronously instead of parking a future
            # and paying a loop round-trip on every quiet-path request.
            self.in_flight += 1
            self.granted[key] = self.granted.get(key, 0) + 1
            return
        queue = self._queues.setdefault(key, deque())
        pending = sum(1 for fut in queue if not fut.done())
        if pending >= self.quota:
            raise TenantQuotaExceeded(key, pending, self.quota)
        fut = asyncio.get_running_loop().create_future()
        queue.append(fut)
        if key not in self._order:
            self._order.append(key)
        self._dispatch()
        try:
            await fut
        except asyncio.CancelledError:
            # A cancelled waiter that was already granted must give its
            # slot back; an ungranted one just leaves a done future the
            # dispatcher skips over.
            if fut.cancelled():
                raise
            self.release()
            raise

    def release(self) -> None:
        """Return one granted slot and hand it to the next in DRR order."""
        self.in_flight = max(0, self.in_flight - 1)
        self._dispatch()

    def close(self) -> AdmissionRejected:
        """Drain: reject every parked request and all future acquires."""
        self._closed = True
        exc = AdmissionRejected("service is draining; not accepting new jobs")
        for queue in self._queues.values():
            while queue:
                fut = queue.popleft()
                if not fut.done():
                    fut.set_exception(exc)
        self._order.clear()
        self._deficits.clear()
        self._visiting = None
        return exc

    def _dispatch(self) -> None:
        while self.in_flight < self.window and self._order:
            key = self._order[0]
            queue = self._queues.get(key)
            if queue:
                while queue and queue[0].done():
                    queue.popleft()
            if not queue:
                self._order.popleft()
                self._deficits.pop(key, None)
                self._queues.pop(key, None)
                if self._visiting == key:
                    self._visiting = None
                continue
            # DRR visit: top up by weight once per visit, serve whole
            # requests only.  A visit the *window* cut short (not the
            # deficit) resumes here with its remaining credit -- topping
            # up again would collapse weighted shares into plain round
            # robin whenever the window is small.
            if self._visiting != key:
                self._visiting = key
                self._deficits[key] = (
                    self._deficits.get(key, 0.0) + self.weight(key)
                )
            while (
                queue
                and self._deficits[key] >= 1.0
                and self.in_flight < self.window
            ):
                fut = queue.popleft()
                if fut.done():
                    continue
                self._deficits[key] -= 1.0
                self.in_flight += 1
                self.granted[key] = self.granted.get(key, 0) + 1
                fut.set_result(None)
            while queue and queue[0].done():
                queue.popleft()
            if queue and self._deficits[key] >= 1.0:
                # Mid-visit, window full: keep this tenant at the front.
                return
            self._visiting = None
            self._order.popleft()
            if queue:
                self._order.append(key)
            else:
                # Idle tenants forfeit their deficit: credit must not
                # accumulate while a tenant has nothing queued.
                self._deficits.pop(key, None)
                self._queues.pop(key, None)

    def stats(self) -> dict:
        return {
            "window": self.window,
            "quota": self.quota,
            "in_flight": self.in_flight,
            "queued": {
                tenant: sum(1 for f in queue if not f.done())
                for tenant, queue in self._queues.items()
                if queue
            },
            "granted": dict(self.granted),
            "weights": dict(self._weights),
        }


class AsyncFrontEnd:
    """The daemon's routes, admission and coalescing over one
    :class:`BenchService` -- the app :func:`repro.service.http.serve`
    serves for ``npb serve``.

    All mutable state (registry, parked futures, admission) is touched
    only on the event-loop thread; dispatcher threads reach it
    exclusively through the ``call_soon_threadsafe`` inside
    ``asyncio.wrap_future``.
    """

    def __init__(
        self,
        service: BenchService,
        window: int | None = None,
        quota: int = 64,
        weights: dict[str, float] | None = None,
    ):
        self.service = service
        self.admission = FairAdmission(
            window=window if window is not None else service.pool.size,
            quota=quota,
            weights=weights,
        )
        self.draining = False
        #: routing_key -> future of the primary's admission: its
        #: :class:`Job`, or the exception that refused it (cache-eligible
        #: requests only, from arrival to terminal state)
        self._registry: dict[str, asyncio.Future] = {}
        #: loop-side views of job completions somebody is parked on;
        #: kept only so the drain can fail the ones it lost, loudly
        self._parked: set[asyncio.Future] = set()

    def note_http_response(self, code: int) -> None:
        self.service.note_http_response(code)

    def _terminal(self, job: Job) -> asyncio.Future:
        """``job.completion`` as a future of the running loop."""
        fut = asyncio.wrap_future(job.completion)
        self._parked.add(fut)
        fut.add_done_callback(self._parked.discard)
        return fut

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #

    async def handle_post_jobs(self, headers: dict, body: bytes) -> tuple:
        """POST /jobs: replay -> coalesce -> fair-admit -> submit."""
        try:
            payload = submission_payload(headers, body)
        except ValueError as exc:
            return 400, {"error": f"bad job spec: {exc}"}, {}
        wait = bool(payload.pop("wait", False))
        wait_timeout = payload.pop("wait_timeout", None)
        # Edge tracing: continue an incoming traceparent, else the sampler
        # decides; the scheduler's spans nest under http.submit via ``ctx``.
        ctx = self.service.sampler.decide(
            parse_traceparent(headers.get("traceparent")),
            forced=bool(payload.pop("trace", False)),
        )
        span, ctx = get_span_store().start_span("http.submit", ctx=ctx)
        try:
            result = await self._admit(payload, wait, wait_timeout, ctx)
        except AdmissionRejected as exc:  # the drain lost the job it waited on
            result = self._refused(exc)
        except BaseException:
            span.end("error")
            raise
        code, response = result[0], result[1]
        if response.get("job_id"):
            span.set(job_id=response["job_id"])
        span.end("error" if code >= 400 else "ok")
        return result

    async def _admit(
        self, payload: dict, wait: bool, wait_timeout, trace
    ) -> tuple:
        """The submit path behind the front-end span (see above)."""
        if not payload.keys() <= _SUBMIT_FIELDS:
            unknown = sorted(payload.keys() - _SUBMIT_FIELDS)
            return self._refused(ValueError(f"unknown field(s) {unknown}"))
        tenant = payload.get("tenant")

        # Layer 1: idempotency-key replay (no work, no quota).
        job_key = payload.get("job_key")
        if job_key is not None:
            existing = self.service.replay(job_key)
            if existing is not None:
                if not wait:
                    code = 200 if existing.terminal else 202
                    return code, existing.as_dict(), {}
                done = self._terminal(existing)
                return await self._wait(done, wait_timeout, existing.as_dict)

        if self.draining:
            return self._refused(
                AdmissionRejected("service is draining; not accepting new jobs")
            )

        # Layer 2: in-flight coalescing (attach, don't re-queue).  The
        # lookup and the placeholder insert happen with no await between
        # them: a twin arriving while this request is still parked at
        # admission (or inside the executor submit) finds the entry and
        # attaches instead of racing to a duplicate execution.
        eligible = not bool(payload.get("no_cache", False))
        pool = self.service.pool
        key = routing_key(payload, pool.backend, pool.workers)
        entry = None
        if eligible:
            primary = self._registry.get(key)
            if primary is not None:
                return await self._attach(primary, wait, wait_timeout, tenant)
            entry = asyncio.get_running_loop().create_future()
            self._registry[key] = entry

        # Layer 3: weighted-fair admission, then real submission.
        # ``service.submit`` runs inline: it never blocks (it validates
        # the spec, hashes the fingerprint and enqueues under a briefly
        # held lock; a full queue *raises* rather than waiting), and an
        # executor handoff here would be two loop round-trips on the
        # hottest path in the server.
        granted = False
        try:
            await self.admission.acquire(tenant)
            granted = True
            job = self.service.submit(**payload, trace=trace)
        except Exception as exc:
            if entry is not None:
                del self._registry[key]
                entry.set_result(exc)
            if granted:
                self.admission.release()
            return self._refused(exc)

        done = self._terminal(job)
        done.add_done_callback(lambda _f: self._retire(key, entry))
        if entry is not None:
            entry.set_result(job)
        if not wait:
            return 202, job.as_dict(), {}
        return await self._wait(done, wait_timeout, job.as_dict)

    def _retire(self, key: str, entry: asyncio.Future | None) -> None:
        """Terminal job: free its admission slot and registry entry."""
        self.admission.release()
        if entry is not None and self._registry.get(key) is entry:
            del self._registry[key]

    @staticmethod
    def _refused(exc: Exception) -> tuple:
        """The response for a submission that was not admitted."""
        if isinstance(exc, TenantQuotaExceeded):
            detail = {"tenant": exc.tenant, "pending": exc.pending, "quota": exc.quota}
        elif isinstance(exc, AdmissionRejected):
            detail = {"depth": exc.depth, "capacity": exc.capacity}
        elif isinstance(exc, (TypeError, ValueError)):
            return 400, {"error": f"bad job spec: {exc}"}, {}
        else:
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, {}
        retry = {"Retry-After": f"{RETRY_AFTER_SECONDS:g}"}
        return 429, {"error": str(exc), **detail}, retry

    async def _attach(
        self, entry: asyncio.Future, wait: bool, wait_timeout, tenant: str | None
    ) -> tuple:
        """Coalesce onto an in-flight primary instead of re-queueing.

        ``asyncio.shield`` is what keeps a waiter's disconnect from
        cancelling the shared job: cancellation kills this coroutine,
        never the futures the others wait on.  The response carries this
        request's own stamps: it arrived now and is admitted the moment
        the primary's :class:`Job` exists.
        """
        arrived = time.time()
        self.service.note_coalesced()
        primary = await asyncio.shield(entry)
        if isinstance(primary, Exception):  # whatever refused the primary
            return self._refused(primary)
        attached = time.time()
        tenant = None if tenant is None else str(tenant)
        describe = functools.partial(primary.coalesced_dict, arrived, attached, tenant)
        if not wait:
            return 202, describe(), {}
        return await self._wait(self._terminal(primary), wait_timeout, describe)

    async def _wait(self, done: asyncio.Future, wait_timeout, describe) -> tuple:
        """Park on ``done`` (a job's completion on this loop), then
        answer with ``describe()``: 200 once it resolves, 504 when
        ``wait_timeout`` passes first."""
        timeout = None if wait_timeout is None else float(wait_timeout)
        try:
            await asyncio.wait_for(asyncio.shield(done), timeout)
        except asyncio.TimeoutError:
            error = f"job not terminal within {wait_timeout}s"
            return 504, {"error": error, "job": describe()}, {}
        except asyncio.CancelledError:
            if not done.cancelled():
                raise  # our caller gave up on us, not the drain on the job
            raise AdmissionRejected("service drained before completion") from None
        return 200, describe(), {}

    # ------------------------------------------------------------------ #
    # routes
    # ------------------------------------------------------------------ #

    async def route(self, method: str, path: str, headers: dict, body: bytes) -> tuple:
        service = self.service
        loop = asyncio.get_running_loop()
        name, job_id = parse_route(method, path)
        if name == "submit":
            return await self.handle_post_jobs(headers, body)
        if name == "status":
            status = await loop.run_in_executor(None, service.status)
            status["frontend"] = {
                "inflight": len(self._registry),
                "admission": self.admission.stats(),
            }
            return 200, status, {}
        if name == "metrics":
            content_type = {"Content-Type": METRICS_CONTENT_TYPE}
            return 200, service.metrics.render(), content_type
        if name == "jobs":
            jobs = await loop.run_in_executor(None, service.jobs)
            return 200, {"jobs": [job.as_dict() for job in jobs]}, {}
        if name is None:
            return 404, {"error": f"no such resource {path!r}"}, {}
        job = service.job(job_id)
        if job is None and service.expired(job_id):
            error = f"job expired (the {TERMINAL_RETENTION} latest are kept)"
            return 410, {"error": error, "expired": True, "job_id": job_id}, {}
        if job is None:
            return 404, {"error": "unknown job"}, {}
        if name == "job":
            return 200, job.as_dict(), {}
        # this process's spans of the job's trace (the coordinator merges
        # its own on top when proxying)
        trace_id = job.trace_id
        if trace_id is None:
            return 404, {"error": f"job {job_id!r} was not traced"}, {}
        spans = [span.to_dict() for span in get_span_store().trace(trace_id)]
        return 200, {"trace_id": trace_id, "job_id": job_id, "spans": spans}, {}

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def drain(self, timeout: float | None = 30.0) -> bool:
        """Stop admitting, finish admitted jobs, resolve every waiter."""
        self.draining = True
        self.admission.close()
        loop = asyncio.get_running_loop()
        clean = await loop.run_in_executor(
            None, lambda: self.service.drain(timeout)
        )
        # Every job the drain finished has resolved its completion, and
        # with it whatever was parked on it (those wake-ups were queued
        # on this loop before the drain's own).  What is still parked
        # waits on a job the drain lost: cancel it, which ``_wait``
        # turns into a loud refusal rather than a hung connection.
        for fut in list(self._parked):
            fut.cancel()
        return clean
