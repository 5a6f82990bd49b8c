"""The benchmark job service as one in-process object.

:class:`BenchService` is the whole job service -- queue, pool, cache,
scheduler, and a job registry -- behind ``submit`` / ``wait`` /
``status`` / ``drain``, which is how tests exercise every concurrency
path without opening a socket.  The HTTP surface of ``npb serve`` is
:class:`repro.service.async_api.AsyncFrontEnd` on the one server in
:mod:`repro.service.http`; the client is :mod:`repro.service.client`.

The registry is bounded: every job not yet terminal plus the
:data:`TERMINAL_RETENTION` most recently finished.  An older job is
*expired*: its id answers a structured "expired" body (HTTP 410; an id
never issued is a 404) and its idempotency key admits a new job.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from collections import OrderedDict
from functools import partial

from repro.obs.metrics import MetricsRegistry, process_rss_bytes
from repro.obs.spans import TraceSampler
from repro.obs.trace import TraceContext
from repro.runtime.dispatch import FaultPolicy
from repro.service.cache import ResultCache
from repro.service.jobs import AdmissionRejected, Job, JobQueue, JobSpec
from repro.service.pool import TeamPool
from repro.service.scheduler import Scheduler

#: Default on-disk location of the content-addressed result cache.
DEFAULT_CACHE_DIR = ".npb-service-cache"

#: Terminal jobs the registry keeps for lookup by id or idempotency key.
#: One terminal class-S job measures 10 KB (IS, CG) to 16 KB (LU) deep
#: -- the ``Job``, its completion and mostly its run record, whose size
#: is set by the region table, not the problem class -- so the bound
#: costs 40-64 MB however long the daemon lives.  At the ~1200 jobs/s a
#: daemon answers from its cache (``benchmarks/e2e`` ``service_cached``)
#: a no-wait client still has ~3 s to fetch its result; executed work
#: (<= 50 jobs/s) stays for minutes.
TERMINAL_RETENTION = 4096


class BenchService:
    """The benchmark job service as one in-process object."""

    def __init__(
        self,
        backend: str = "serial",
        workers: int = 1,
        pool_size: int = 2,
        queue_depth: int = 64,
        cache_dir: str = DEFAULT_CACHE_DIR,
        cache_entries: int = 256,
        policy: FaultPolicy | None = None,
        chaos=None,
        autostart: bool = True,
        trace_sample: float = 0.0,
    ):
        #: edge sampling decision for submissions that carry no
        #: traceparent (``--trace-sample RATE``; explicit traced submits
        #: are always on)
        self.sampler = TraceSampler(trace_sample)
        self.trace_sample = float(trace_sample)
        #: per-service metric registry (the /metrics exposition body);
        #: per-instance rather than process-global so tests that build
        #: many services never read each other's counters
        self.metrics = MetricsRegistry()
        self.queue = JobQueue(maxdepth=queue_depth)
        self.pool = TeamPool(backend, workers, size=pool_size, policy=policy)
        self.cache = ResultCache(cache_dir, max_entries=cache_entries)
        self.scheduler = Scheduler(self.queue, self.pool, self.cache)
        #: optional ChaosInjector wired into every seam (fault-injection
        #: tests and ``npb serve --chaos-seed``); None = off
        self.chaos = chaos
        if chaos is not None:
            chaos.install(self)
        #: jobs not yet terminal, and the last TERMINAL_RETENTION that
        #: are (oldest first); a job moves over when it finishes
        self._live: dict[str, Job] = {}
        self._kept: OrderedDict[str, Job] = OrderedDict()
        self._by_key: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._counter = 0
        self._draining = False
        #: dedup counters (schema v6 status block): replays of an
        #: idempotency key, and waiters the front end attached to an
        #: in-flight job instead of re-queueing
        self.idempotent_replays = 0
        self.coalesced = 0
        #: lookups of an id this service issued and no longer holds
        self.expired_lookups = 0
        self.started_at = time.time()
        self._register_metrics()
        if autostart:
            self.scheduler.start()

    # ------------------------------------------------------------------ #

    def _register_metrics(self) -> None:
        """Wire the registry onto live service state.

        Gauges are callback-backed -- a scrape reads the queue, pool,
        cache, and scheduler directly instead of the service mirroring
        every change -- so metrics cost nothing between scrapes.  Only
        the per-job pair is push-style: ``npb_jobs_total`` is the
        scheduler's own tally, adopted here, and the latency histogram
        is fed by a done-callback on each job's completion.
        """
        reg = self.metrics
        reg.gauge("npb_queue_depth", "jobs waiting in the admission queue",
                  callback=lambda: self.queue.depth)
        reg.gauge("npb_queue_capacity", "admission queue bound",
                  callback=lambda: self.queue.maxdepth)
        reg.gauge("npb_pool_teams", "team pool occupancy",
                  callback=lambda: {
                      "idle": self.pool.occupancy()["idle"],
                      "in_use": self.pool.occupancy()["in_use"],
                  }, label_name="state")
        reg.gauge("npb_pool_leases_total", "pool leases since start",
                  callback=lambda: self.pool.occupancy()["leases"])
        reg.gauge("npb_cache_events_total", "result cache activity",
                  callback=lambda: {
                      key: self.cache.stats()[key]
                      for key in ("hits", "misses", "evictions",
                                  "corruption_healed")
                  }, label_name="event")
        reg.gauge("npb_dedup_total", "requests absorbed without executing",
                  callback=lambda: {
                      "coalesced": self.coalesced,
                      "idempotent_replays": self.idempotent_replays,
                      "duplicate_executions":
                          self.scheduler.duplicate_executions,
                  }, label_name="kind")
        reg.gauge("npb_fault_events_total", "runtime fault events by kind",
                  callback=lambda: self.scheduler.stats()["fault_counts"],
                  label_name="kind")
        if self.chaos is not None:
            reg.gauge("npb_chaos_injected_total", "injected faults by kind",
                      callback=lambda: self.chaos.summary()["kinds"],
                      label_name="kind")
        reg.gauge("npb_process_rss_bytes", "peak resident set (getrusage)",
                  callback=process_rss_bytes)
        reg.gauge("npb_uptime_seconds", "seconds since service start",
                  callback=lambda: time.time() - self.started_at)
        reg.register(self.scheduler.jobs_total)
        self._http_responses = reg.counter(
            "npb_http_responses_total", "front-end responses by status code")
        self._job_latency = reg.histogram(
            "npb_job_latency_seconds",
            "submit-to-terminal latency by benchmark")

    def _on_terminal(self, job_id: str, _completion) -> None:
        """Done-callback of every admitted job's completion: keep it,
        expire the oldest kept beyond the bound, observe its latency.
        (Bound to the id: holding the job would tie it to its own
        completion, and an expired job must die by refcount.)"""
        with self._lock:
            job = self._kept[job_id] = self._live.pop(job_id)
            if len(self._kept) > TERMINAL_RETENTION:
                _, old = self._kept.popitem(last=False)
                if self._by_key.get(old.job_key) is old:
                    del self._by_key[old.job_key]
        self._job_latency.observe(
            job.finished_at - job.submitted_at, benchmark=job.spec.benchmark
        )

    def note_http_response(self, code: int) -> None:
        """Count one HTTP response (the server calls this per reply)."""
        self._http_responses.inc(code=str(code))

    def note_coalesced(self, count: int = 1) -> None:
        """Count waiters a front end attached to an in-flight job."""
        with self._lock:
            self.coalesced += count

    def submit(
        self,
        benchmark: str,
        problem_class: str = "S",
        backend: str | None = None,
        workers: int | None = None,
        priority: str = "normal",
        no_cache: bool = False,
        dispatch_timeout: float | None = None,
        max_retries: int | None = None,
        job_key: str | None = None,
        tenant: str | None = None,
        trace: TraceContext | None = None,
    ) -> Job:
        """Admit one job (raises :class:`AdmissionRejected` when full).

        ``backend``/``workers`` default to the pool configuration, which
        is the warm path; overriding them still works but runs on a cold
        one-shot team.

        ``job_key`` makes the submission idempotent: a repeated key
        returns the job already admitted under it (whatever state it has
        reached) instead of queueing a duplicate.  This is what lets the
        shard coordinator resubmit after an ambiguous transport failure
        without double-running the work.  ``tenant`` is provenance for
        fair admission (and the v6 record); it does not affect the run.

        ``trace`` is the request's trace context (the front end passes
        the continued/minted one); when None the service's own sampler
        decides, so ``--trace-sample`` also covers in-process submits.
        """
        if trace is None:
            trace = self.sampler.decide()
        if job_key is not None:
            job_key = str(job_key)
            existing = self.replay(job_key)
            if existing is not None:
                return existing
        spec = JobSpec.create(
            benchmark,
            problem_class,
            backend=self.pool.backend if backend is None else backend,
            workers=self.pool.workers if workers is None else workers,
            dispatch_timeout=dispatch_timeout,
            max_retries=max_retries,
        )
        with self._lock:
            if job_key is not None:
                # Re-check under the lock: a concurrent duplicate may
                # have registered the key while the spec was validated.
                existing = self._by_key.get(job_key)
                if existing is not None:
                    self.idempotent_replays += 1
                    return existing
            self._counter += 1
            job = Job(
                job_id=f"job-{self._counter:06d}",
                spec=spec,
                priority=priority,
                no_cache=bool(no_cache),
                job_key=job_key,
                tenant=None if tenant is None else str(tenant),
                trace=trace,
            )
            if job_key is not None:
                self._by_key[job_key] = job
            self._live[job.job_id] = job
        try:
            self.queue.put(job)  # may raise AdmissionRejected
        except AdmissionRejected:
            with self._lock:
                del self._live[job.job_id]
                if job_key is not None and self._by_key.get(job_key) is job:
                    del self._by_key[job_key]
            raise
        job.completion.add_done_callback(partial(self._on_terminal, job.job_id))
        return job

    def job(self, job_id: str) -> Job | None:
        with self._lock:
            return self._live.get(job_id) or self._kept.get(job_id)

    def expired(self, job_id: str) -> bool:
        """Whether this service issued ``job_id`` and no longer holds the
        job (counted in ``/status``), as opposed to never having."""
        serial = job_id.removeprefix("job-")
        issued = serial.isdecimal() and 0 < int(serial) <= self._counter
        gone = issued and self.job(job_id) is None
        with self._lock:
            self.expired_lookups += gone
        return gone

    def replay(self, job_key: str) -> Job | None:
        """The job admitted under ``job_key``, counted as a replay.

        Front ends use this as the admission pre-check: a hit means the
        request is an idempotent replay and must bypass fair-queueing
        (replaying a key adds no work, so it must not consume quota).
        """
        with self._lock:
            job = self._by_key.get(str(job_key))
            if job is not None:
                self.idempotent_replays += 1
            return job

    def jobs(self) -> list[Job]:
        """Every held job: the kept ones, oldest first, then the live."""
        with self._lock:
            return [*self._kept.values(), *self._live.values()]

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job reaches a terminal state."""
        job = self.job(job_id)
        if job is None:
            raise KeyError(f"unknown (or expired) job {job_id!r}")
        try:
            job.completion.result(timeout)
        except concurrent.futures.TimeoutError:
            raise TimeoutError(
                f"job {job_id} not terminal within {timeout}s "
                f"(state {job.state})"
            ) from None
        return job

    # ------------------------------------------------------------------ #

    def status(self) -> dict:
        # terminal states from the scheduler's tally, the live ones counted
        by_state = {
            state: count
            for state in ("done", "cached", "failed")
            if (count := self.scheduler.finished(state))
        }
        with self._lock:
            for job in self._live.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            draining = self._draining
            coalesced = self.coalesced
            idempotent_replays = self.idempotent_replays
        status = {
            "service": "npb-bench-service",
            "uptime_seconds": time.time() - self.started_at,
            #: peak resident set (satellite of the obs PR): lets the
            #: loadgen/chaos leak checks read memory from the service
            #: instead of shelling out to ``ps``
            "rss_bytes": process_rss_bytes(),
            "trace_sample": self.trace_sample,
            "draining": draining,
            "queue": {
                "depth": self.queue.depth,
                "capacity": self.queue.maxdepth,
                "closed": self.queue.closed,
            },
            "pool": self.pool.occupancy(),
            "cache": self.cache.stats(),
            "scheduler": self.scheduler.stats(),
            "jobs": by_state,
            "expired_lookups": self.expired_lookups,
            # duplicate-work ledger: requests absorbed without executing
            # (coalesced waiters, idempotent replays) vs duplicate work
            # that actually ran (in-flight twins submitted in process,
            # past the front end's coalescing)
            "dedup": {
                "coalesced": coalesced,
                "idempotent_replays": idempotent_replays,
                "duplicate_executions": self.scheduler.duplicate_executions,
            },
        }
        if self.chaos is not None:
            status["chaos"] = self.chaos.summary()
        return status

    def drain(self, timeout: float | None = 30.0) -> bool:
        """Graceful shutdown: finish admitted jobs, reject new ones,
        close every team.  Returns True on a clean drain."""
        with self._lock:
            if self._draining:
                return True
            self._draining = True
        return self.scheduler.drain(timeout)

    def __enter__(self) -> "BenchService":
        return self

    def __exit__(self, *exc) -> None:
        self.drain()
