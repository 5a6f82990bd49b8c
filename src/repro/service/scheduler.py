"""Scheduler: dispatcher threads joining queue, pool, and cache.

One dispatcher thread per pool slot pulls jobs off the
:class:`~repro.service.jobs.JobQueue` in priority order and drives each
through its lifecycle:

1. **cache probe** -- unless the job asked for ``no_cache``, a
   fingerprint hit short-circuits the run: the job goes straight to the
   terminal ``cached`` state carrying the stored record (with the
   provenance of the job that actually computed it).
2. **execute** -- lease a team from the :class:`~repro.service.pool.TeamPool`
   (warm when the spec matches the pool shape, cold otherwise), point
   its ``policy`` at the spec's fault knobs for the duration (per-job
   deadlines and retry ride the existing
   :class:`~repro.runtime.dispatch.FaultPolicy` machinery inside
   ``Team._dispatch`` -- the scheduler adds no second retry layer), run
   the benchmark, release the team.
3. **record** -- stamp the v4 service fields (``job_id``, ``cache_hit``,
   ``queue_wait_seconds``) into the run record, store it in the cache,
   and mark the job ``done`` (or ``failed`` if the benchmark raised).

``drain()`` is the graceful-shutdown half: close the queue (new
submissions are rejected with ``AdmissionRejected``), let dispatchers
finish every already-admitted job, join them, then close the pool.
"""

from __future__ import annotations

import threading
import time
import traceback

from repro.obs.spans import get_span_store, spans_from_team_trace
from repro.obs.trace import use_trace
from repro.service.cache import ResultCache, provenance
from repro.service.jobs import Job, JobQueue
from repro.service.pool import TeamPool


def _no_update(job: Job) -> None:
    """Default on_update callback: nothing is watching."""


class Scheduler:
    """Runs queued jobs on pooled teams; one dispatcher per pool slot."""

    def __init__(
        self,
        queue: JobQueue,
        pool: TeamPool,
        cache: ResultCache,
        on_update=None,
    ):
        self._queue = queue
        self._pool = pool
        self._cache = cache
        #: callback invoked after every job state change (the service
        #: layer uses it to wake ``wait()`` ers); must be cheap
        self._on_update = on_update if on_update is not None else _no_update
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        #: optional ChaosInjector (fault-injection tests); None = off
        self.chaos = None
        self.executed = 0
        self.cached = 0
        self.failed = 0
        #: cache-eligible executions that started while the same
        #: fingerprint was already executing cache-eligibly -- exactly
        #: the duplicate work in-flight coalescing exists to remove.
        #: In-process twin submissions accrue these; over HTTP the
        #: front end coalesces twins, so a daemon must keep this at zero.
        self.duplicate_executions = 0
        self._executing: dict[str, int] = {}
        self.fault_counts: dict[str, int] = {}

    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Spawn the dispatcher threads (idempotent)."""
        if self._threads:
            return
        for i in range(self._pool.size):
            thread = threading.Thread(
                target=self._loop, daemon=True, name=f"npb-dispatcher-{i}"
            )
            self._threads.append(thread)
            thread.start()

    def _loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            try:
                self._execute(job)
            except Exception as exc:  # defensive: a dispatcher must survive
                self._finish(job, "failed", error=f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------ #

    def _finish(
        self,
        job: Job,
        state: str,
        result: dict | None = None,
        error: str | None = None,
    ) -> None:
        job.result = result
        job.error = error
        job.state = state
        job.finished_at = time.time()
        with self._lock:
            if state == "failed":
                self.failed += 1
        self._on_update(job)

    # ------------------------------------------------------------------ #
    # tracing helpers (no-ops for untraced jobs)

    def _chaos_mark(self) -> int:
        return len(self.chaos.events) if self.chaos is not None else 0

    def _attach_chaos_events(self, span, mark: int) -> None:
        """Turn faults injected since ``mark`` into events on ``span``.

        This is what lets a chaos run's trace prove *which* span
        absorbed each injected fault.
        """
        if span is None or self.chaos is None:
            return
        for event in list(self.chaos.events)[mark:]:
            span.add_event(
                f"chaos.{event['kind']}",
                point=event["point"],
                detail=event.get("detail", ""),
            )

    def _execute(self, job: Job) -> None:
        trace = job.trace
        traced = trace is not None and trace.sampled
        store = get_span_store() if traced else None
        sched_span = run_ctx = None
        if traced:
            sched_span, run_ctx = store.start_span(
                "schedule",
                ctx=trace,
                attrs={
                    "job_id": job.job_id,
                    "benchmark": job.spec.benchmark,
                    "problem_class": job.spec.problem_class,
                    "backend": job.spec.backend,
                    "workers": job.spec.workers,
                },
            )
            # queue wait happened before this dispatcher picked the job
            # up; backdate the span to admission so the tree shows it
            wait_span, _ = store.start_span(
                "queue.wait",
                ctx=run_ctx,
                started_at=job.queued_at or sched_span.started_at,
            )
            wait_span.end()
        chaos_mark = self._chaos_mark()
        if self.chaos is not None:
            self.chaos.on_dispatch(job)
        self._attach_chaos_events(sched_span, chaos_mark)

        fingerprint = job.spec.fingerprint()
        if not job.no_cache:
            probe_span = None
            if traced:
                probe_span, _ = store.start_span("cache.probe", ctx=run_ctx)
            chaos_mark = self._chaos_mark()
            stored = self._cache.get(fingerprint)
            if probe_span is not None:
                probe_span.attrs["hit"] = stored is not None
                self._attach_chaos_events(probe_span, chaos_mark)
                probe_span.end()
            if stored is not None:
                job.cache_hit = True
                job.started_at = time.time()
                record = dict(stored)
                record["job_id"] = job.job_id
                record["cache_hit"] = True
                record["queue_wait_seconds"] = job.queue_wait_seconds
                # v6 provenance is per-response, not per-computation:
                # restamp over whatever the computing job recorded
                record["tenant"] = job.tenant
                record["coalesced_with"] = None
                if traced:
                    record["trace_id"] = trace.trace_id
                    sched_span.end()
                with self._lock:
                    self.cached += 1
                self._finish(job, "cached", result=record)
                return

        # Duplicate-work accounting: a cache-eligible job whose
        # fingerprint is already executing cache-eligibly is an
        # in-flight twin -- work coalescing would have deduplicated.
        tracked = not job.no_cache
        if tracked:
            with self._lock:
                if self._executing.get(fingerprint, 0) > 0:
                    self.duplicate_executions += 1
                self._executing[fingerprint] = (
                    self._executing.get(fingerprint, 0) + 1
                )

        try:
            lease_span = None
            if traced:
                lease_span, _ = store.start_span("pool.lease", ctx=run_ctx)
            chaos_mark = self._chaos_mark()
            team, pooled = self._pool.lease(job.spec.backend, job.spec.workers)
            if lease_span is not None:
                lease_span.attrs["pooled"] = pooled
                lease_span.attrs["team"] = type(team).__name__
                self._attach_chaos_events(lease_span, chaos_mark)
                lease_span.end()
            job.pooled = pooled
            job.state = "running"
            job.started_at = time.time()
            self._on_update(job)
            saved_policy = team.policy
            job_policy = job.spec.fault_policy()
            try:
                from repro.core.registry import get_benchmark

                if job_policy is not None:
                    team.policy = job_policy
                benchmark = get_benchmark(job.spec.benchmark)(
                    job.spec.problem_class, team
                )
                if traced:
                    run_span, region_ctx = store.start_span(
                        "run",
                        ctx=run_ctx,
                        attrs={
                            "benchmark": job.spec.benchmark,
                            "backend": job.spec.backend,
                            "workers": job.spec.workers,
                        },
                    )
                    try:
                        # activate the context so Team._dispatch
                        # accumulates per-region / per-worker timing
                        with use_trace(region_ctx):
                            result = benchmark.run()
                    except Exception:
                        run_span.end("error")
                        raise
                    run_span.attrs["verified"] = result.verified
                    run_span.end()
                    store.add_many(
                        spans_from_team_trace(
                            team.take_trace(), result.regions, region_ctx
                        )
                    )
                else:
                    result = benchmark.run()
            except Exception:
                if traced:
                    sched_span.end("error")
                self._finish(job, "failed", error=traceback.format_exc())
                return
            finally:
                team.policy = saved_policy
                self._pool.release(team, pooled)
        finally:
            if tracked:
                with self._lock:
                    remaining = self._executing.get(fingerprint, 0) - 1
                    if remaining > 0:
                        self._executing[fingerprint] = remaining
                    else:
                        self._executing.pop(fingerprint, None)

        result.job_id = job.job_id
        result.cache_hit = False
        result.queue_wait_seconds = job.queue_wait_seconds
        result.tenant = job.tenant
        result.coalesced_with = None
        record = result.to_dict()
        record["provenance"] = provenance(job.job_id, fingerprint)
        chaos_mark = self._chaos_mark()
        self._cache.put(fingerprint, record)
        self._attach_chaos_events(sched_span, chaos_mark)
        if traced:
            # stamped after cache.put so the *stored* record stays
            # trace-free (a later hit is a different trace)
            record["trace_id"] = trace.trace_id
            sched_span.end()
        with self._lock:
            self.executed += 1
            for kind, count in result.fault_counts.items():
                self.fault_counts[kind] = self.fault_counts.get(kind, 0) + count
        self._finish(job, "done", result=record)

    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        with self._lock:
            return {
                "dispatchers": len(self._threads),
                "executed": self.executed,
                "cached": self.cached,
                "failed": self.failed,
                "duplicate_executions": self.duplicate_executions,
                "fault_counts": dict(self.fault_counts),
            }

    def drain(self, timeout: float | None = 30.0) -> bool:
        """Graceful shutdown: finish admitted jobs, reject new ones.

        Returns True when every dispatcher exited within the timeout.
        """
        self._queue.close()
        clean = True
        for thread in self._threads:
            thread.join(timeout)
            clean = clean and not thread.is_alive()
        self._pool.close(timeout)
        return clean
