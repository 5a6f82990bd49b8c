"""The daemon's front end: in-flight coalescing and weighted-fair admission.

:class:`AsyncFrontEnd` is the app ``npb serve`` hands to the one HTTP
server (:mod:`repro.service.http`): it owns the daemon's routes and
everything that happens between a parsed request and
``BenchService.submit``.  It runs single-threaded on the server's event
loop while the execution core -- ``BenchService``/``Scheduler``/
``TeamPool`` -- stays exactly as it is, bridged through the loop's
default thread pool for the few short blocking calls (``status``,
``jobs``, ``drain``).  Waiting, which is what clients mostly do, is
fully event-driven: a dispatcher thread finishing a job wakes the loop
once (``call_soon_threadsafe``), and the loop fans the result out to
every connection that was parked on an ``asyncio.Future``.

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
    Job listing / one job / its span tree (404 when unknown).
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
and its terminal state.  A second identical request attaches
an ``asyncio.Future`` to the registered entry instead of re-queueing;
when the primary completes, one result fans out to all attached waiters.
Waiter responses carry ``coalesced_with: <primary job_id>`` (also
stamped into the run record -- schema v6), and each attachment increments
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
import inspect
from collections import deque

from repro.obs.metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.obs.spans import get_span_store
from repro.obs.trace import parse_traceparent
from repro.service.api import BenchService
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


def begin_submit_trace(service: BenchService, payload: dict, header_value: str | None):
    """Edge tracing for one submit request.

    Pops the explicit ``trace`` flag from the payload, continues an
    incoming ``traceparent`` (or lets the sampler decide), and -- when
    sampled -- opens the ``http.submit`` span.  Returns
    ``(span_or_None, context_to_submit_with)``; the caller ends the
    span when the response goes out and passes the context to
    ``service.submit(trace=...)`` so the scheduler's spans nest under
    the HTTP one.
    """
    forced = bool(payload.pop("trace", False))
    incoming = parse_traceparent(header_value)
    ctx = service.sampler.decide(incoming, forced=forced)
    if not ctx.sampled:
        return None, ctx
    return get_span_store().start_span("http.submit", ctx=ctx)


def job_trace_response(service: BenchService, job_id: str) -> tuple[int, dict]:
    """``GET /jobs/<id>/trace`` body: this process's spans of the job's
    trace (the coordinator merges its own on top when proxying)."""
    job = service.job(job_id)
    if job is None:
        return 404, {"error": "unknown job"}
    trace_id = job.trace_id
    if trace_id is None:
        return 404, {"error": f"job {job_id!r} was not traced"}
    spans = get_span_store().trace(trace_id)
    return 200, {
        "trace_id": trace_id,
        "job_id": job_id,
        "spans": [span.to_dict() for span in spans],
    }


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


class _InflightEntry:
    """One cache-eligible job between admission and terminal state.

    ``admitted`` resolves to the :class:`Job` once ``service.submit``
    returns (or to its exception); ``done`` resolves to the same job in
    its terminal state -- done, failed, or cached alike, so a waiter on
    a failed primary gets the structured failure, never a hang.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self.admitted: asyncio.Future = loop.create_future()
        self.done: asyncio.Future = loop.create_future()
        # Exceptions fan out to waiters, but an entry may have none;
        # mark them observed so a waiterless failure does not warn.
        self.admitted.add_done_callback(_observe)
        self.done.add_done_callback(_observe)

    def fail(self, exc: BaseException) -> None:
        if not self.admitted.done():
            self.admitted.set_exception(exc)
        if not self.done.done():
            self.done.set_exception(exc)


def _observe(fut: asyncio.Future) -> None:
    if not fut.cancelled():
        fut.exception()


class AsyncFrontEnd:
    """The daemon's routes, admission and coalescing over one
    :class:`BenchService` -- the app :func:`repro.service.http.serve`
    serves for ``npb serve``.

    All mutable state (registry, watches, admission) is touched only on
    the event-loop thread; dispatcher threads reach it exclusively via
    ``call_soon_threadsafe`` from the service listener.
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
        #: the serving loop, learned when the first watch is parked on it
        self._loop: asyncio.AbstractEventLoop | None = None
        #: routing_key -> in-flight entry (cache-eligible jobs only)
        self._registry: dict[str, _InflightEntry] = {}
        #: job_id -> futures parked until that job is terminal
        self._watches: dict[str, list[asyncio.Future]] = {}
        service.add_listener(self._on_job_update)

    # ------------------------------------------------------------------ #
    # service bridge
    # ------------------------------------------------------------------ #

    def uninstall(self) -> None:
        """Stop observing job state changes (idempotent; drain does it)."""
        self.service.remove_listener(self._on_job_update)

    def note_http_response(self, code: int) -> None:
        self.service.note_http_response(code)

    def _on_job_update(self, job: Job) -> None:
        """Service listener -- runs on a dispatcher thread."""
        loop = self._loop
        if job.terminal and loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._resolve_job, job)

    def _resolve_job(self, job: Job) -> None:
        """Loop thread: fan a terminal job out to every parked future."""
        for fut in self._watches.pop(job.job_id, []):
            if not fut.done():
                fut.set_result(job)

    def _watch_job(self, job: Job) -> asyncio.Future:
        """Future resolving to ``job`` once terminal (loop thread only)."""
        self._loop = asyncio.get_running_loop()
        fut = self._loop.create_future()
        self._watches.setdefault(job.job_id, []).append(fut)
        if job.terminal:
            # The listener may have fired before this watch registered.
            self._resolve_job(job)
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
        span, ctx = begin_submit_trace(
            self.service, payload, headers.get("traceparent")
        )
        try:
            result = await self._admit(payload, wait, wait_timeout, ctx)
        except BaseException:
            if span is not None:
                span.end("error")
            raise
        if span is not None:
            code, response = result[0], result[1]
            if isinstance(response, dict) and response.get("job_id"):
                span.attrs["job_id"] = response["job_id"]
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
                return await self._respond_job(existing, wait, wait_timeout)

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
            existing_entry = self._registry.get(key)
            if existing_entry is not None:
                return await self._attach(
                    existing_entry, wait, wait_timeout, tenant
                )
            entry = _InflightEntry(asyncio.get_running_loop())
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
            self._abort_entry(key, entry, exc)
            if granted:
                self.admission.release()
            return self._refused(exc)

        done = self._watch_job(job)
        done.add_done_callback(lambda _f: self._retire(key, entry))
        if entry is not None:
            entry.admitted.set_result(job)
            if not entry.done.done():

                def _forward(fut: asyncio.Future, entry=entry) -> None:
                    if not entry.done.done() and not fut.cancelled():
                        entry.done.set_result(fut.result())

                done.add_done_callback(_forward)
        if wait:
            return await self._await_terminal(job, done, wait_timeout)
        return 202, job.as_dict(), {}

    def _retire(self, key: str, entry: _InflightEntry | None) -> None:
        """Terminal job: free its admission slot and registry entry."""
        self.admission.release()
        if entry is not None and self._registry.get(key) is entry:
            del self._registry[key]

    def _abort_entry(
        self, key: str, entry: _InflightEntry | None, exc: BaseException
    ) -> None:
        if entry is None:
            return
        if self._registry.get(key) is entry:
            del self._registry[key]
        entry.fail(exc)

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
        self,
        entry: _InflightEntry,
        wait: bool,
        wait_timeout,
        tenant: str | None = None,
    ) -> tuple:
        """Coalesce onto an in-flight entry instead of re-queueing.

        ``asyncio.shield`` is what keeps a waiter's disconnect from
        cancelling the shared job: cancellation kills this coroutine,
        never the entry's futures.
        """
        self.service.note_coalesced()
        try:
            primary: Job = await asyncio.shield(entry.admitted)
        except Exception as exc:  # whatever refused the primary
            return self._refused(exc)
        if not wait:
            body = primary.as_dict()
            body["coalesced_with"] = primary.job_id
            return 202, body, {}
        try:
            terminal: Job = await self._shielded_wait(entry.done, wait_timeout)
        except TimeoutError as exc:
            return 504, {"error": str(exc), "job": primary.as_dict()}, {}
        except AdmissionRejected as exc:
            return self._refused(exc)
        body = terminal.as_dict()
        body["coalesced_with"] = primary.job_id
        if body.get("result") is not None:
            # The record is per-response provenance: this waiter's
            # tenant, coalesced onto the primary's computation.
            record = dict(body["result"])
            record["coalesced_with"] = primary.job_id
            record["tenant"] = None if tenant is None else str(tenant)
            body["result"] = record
        return 200, body, {}

    async def _shielded_wait(self, fut: asyncio.Future, timeout) -> Job:
        try:
            return await asyncio.wait_for(
                asyncio.shield(fut),
                None if timeout is None else float(timeout),
            )
        except asyncio.TimeoutError:
            raise TimeoutError(
                f"job not terminal within {timeout}s"
            ) from None

    async def _await_terminal(
        self, job: Job, done: asyncio.Future, wait_timeout
    ) -> tuple:
        try:
            terminal = await self._shielded_wait(done, wait_timeout)
        except TimeoutError as exc:
            return 504, {"error": str(exc), "job": job.as_dict()}, {}
        return 200, terminal.as_dict(), {}

    async def _respond_job(self, job: Job, wait: bool, wait_timeout) -> tuple:
        """Respond with an already-known job (idempotent replay)."""
        if not wait:
            code = 200 if job.terminal else 202
            return code, job.as_dict(), {}
        done = self._watch_job(job)
        return await self._await_terminal(job, done, wait_timeout)

    # ------------------------------------------------------------------ #
    # routes
    # ------------------------------------------------------------------ #

    async def route(self, method: str, path: str, headers: dict, body: bytes) -> tuple:
        service = self.service
        loop = asyncio.get_running_loop()
        if method == "POST" and path == "/jobs":
            return await self.handle_post_jobs(headers, body)
        if method == "GET" and path == "/status":
            status = await loop.run_in_executor(None, service.status)
            status["frontend"] = {
                "inflight": len(self._registry),
                "admission": self.admission.stats(),
            }
            return 200, status, {}
        if method == "GET" and path == "/metrics":
            return (
                200,
                service.metrics.render(),
                {"Content-Type": METRICS_CONTENT_TYPE},
            )
        if method == "GET" and path == "/jobs":
            jobs = await loop.run_in_executor(None, service.jobs)
            return 200, {"jobs": [job.as_dict() for job in jobs]}, {}
        if (
            method == "GET"
            and path.startswith("/jobs/")
            and path.endswith("/trace")
        ):
            job_id = path[len("/jobs/") : -len("/trace")]
            code, payload = job_trace_response(service, job_id)
            return code, payload, {}
        if method == "GET" and path.startswith("/jobs/"):
            job = service.job(path[len("/jobs/") :])
            if job is None:
                return 404, {"error": "unknown job"}, {}
            return 200, job.as_dict(), {}
        return 404, {"error": f"no such resource {path!r}"}, {}

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
        # Admitted jobs are terminal now; their listeners have resolved
        # every watch.  Anything still parked belongs to a job the drain
        # lost -- fail it loudly rather than hang the connection.
        for job_id, futures in list(self._watches.items()):
            job = self.service.job(job_id)
            for fut in futures:
                if fut.done():
                    continue
                if job is not None and job.terminal:
                    fut.set_result(job)
                else:
                    fut.set_exception(
                        AdmissionRejected("service drained before completion")
                    )
            self._watches.pop(job_id, None)
        for key, entry in list(self._registry.items()):
            entry.fail(AdmissionRejected("service drained before completion"))
            self._registry.pop(key, None)
        self.uninstall()
        return clean
