"""Scheduler: dispatcher threads joining queue, pool, and cache.

One dispatcher thread per pool slot pulls jobs off the
:class:`~repro.service.jobs.JobQueue` in priority order and drives each
through its lifecycle, one method per step:

1. **probe** (:meth:`Scheduler._probe`) -- unless the job asked for
   ``no_cache``, a fingerprint hit short-circuits the run: the job goes
   straight to the terminal ``cached`` state carrying the stored record
   (with the provenance of the job that actually computed it).
2. **run** (:meth:`Scheduler._run`) -- lease a team from the
   :class:`~repro.service.pool.TeamPool` (warm when the spec matches the
   pool shape, cold otherwise), point its ``policy`` at the spec's fault
   knobs for the duration (per-job deadlines and retry ride the existing
   :class:`~repro.runtime.dispatch.FaultPolicy` machinery inside
   ``Team._dispatch`` -- the scheduler adds no second retry layer), run
   the benchmark, release the team.
3. **record** (:meth:`Scheduler._record`) -- store the run record in the
   cache and fold its fault counts into the scheduler's.

Either way the job ends in :meth:`Scheduler._finish`: the record gets its
per-response provenance (:func:`repro.service.jobs.stamp`), the verdict
is counted in ``jobs_total``, and ``Job.finish`` resolves the job's
completion, which is how every waiter and observer learns of it.  Spans
open unconditionally: an untraced job runs under ``UNSAMPLED`` and gets
the shared no-op span, so both kinds execute the same statements.

``drain()`` is the graceful-shutdown half: close the queue (new
submissions are rejected with ``AdmissionRejected``), let dispatchers
finish every already-admitted job, join them, then close the pool.
"""

from __future__ import annotations

import collections
import threading
import time
import traceback
from contextlib import contextmanager, nullcontext

from repro.obs.metrics import Counter
from repro.obs.spans import get_span_store, spans_from_team_trace
from repro.obs.trace import UNSAMPLED, TraceContext
from repro.service.cache import ResultCache, provenance
from repro.service.jobs import Job, JobQueue, stamp
from repro.service.pool import TeamPool


class Scheduler:
    """Runs queued jobs on pooled teams; one dispatcher per pool slot."""

    def __init__(self, queue: JobQueue, pool: TeamPool, cache: ResultCache):
        self._queue = queue
        self._pool = pool
        self._cache = cache
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        #: optional ChaosInjector (fault-injection tests); None = off
        self.chaos = None
        #: terminal jobs by state and benchmark: the one tally behind
        #: ``stats()``, the ``jobs`` block of ``/status`` and the
        #: ``npb_jobs_total`` family of ``/metrics``
        self.jobs_total = Counter(
            "npb_jobs_total", "terminal jobs by state and benchmark"
        )
        #: cache-eligible executions that started while the same
        #: fingerprint was already executing cache-eligibly -- exactly
        #: the duplicate work in-flight coalescing exists to remove.
        #: In-process twin submissions accrue these; over HTTP the
        #: front end coalesces twins, so a daemon must keep this at zero.
        self.duplicate_executions = 0
        self._executing: collections.Counter[str] = collections.Counter()
        self.fault_counts: dict[str, int] = {}

    def finished(self, state: str) -> int:
        """Jobs that ended in ``state`` since the service started."""
        return int(self.jobs_total.total(state=state))

    executed = property(lambda self: self.finished("done"))
    cached = property(lambda self: self.finished("cached"))
    failed = property(lambda self: self.finished("failed"))

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
            except Exception:  # the job fails; the dispatcher must survive
                self._finish(job, "failed", error=traceback.format_exc())

    # ------------------------------------------------------------------ #

    def _finish(
        self,
        job: Job,
        state: str,
        record: dict | None = None,
        error: str | None = None,
    ) -> None:
        """The one terminal transition: stamp, count, resolve."""
        self.jobs_total.inc(state=state, benchmark=job.spec.benchmark)
        job.finish(state, record and stamp(record, job), error)

    def _seam(self, span, call, *args):
        """``call(*args)``, with every fault chaos injects during it
        attached to ``span`` as an event: what lets a chaos run's trace
        prove *which* span absorbed each injected fault."""
        if self.chaos is None:
            return call(*args)
        mark = len(self.chaos.events)
        try:
            return call(*args)
        finally:
            for event in list(self.chaos.events)[mark:]:
                span.add_event(
                    f"chaos.{event['kind']}",
                    point=event["point"],
                    detail=event.get("detail", ""),
                )

    def _execute(self, job: Job) -> None:
        """One job, from the queue to its terminal state."""
        store = get_span_store()
        sched_span, ctx = store.start_span(
            "schedule",
            ctx=job.trace or UNSAMPLED,
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
        queued_at = job.queued_at or sched_span.started_at
        store.start_span("queue.wait", ctx=ctx, started_at=queued_at)[0].end()
        if self.chaos is not None:
            self._seam(sched_span, self.chaos.on_dispatch, job)

        fingerprint = job.spec.fingerprint()
        record = None if job.no_cache else self._probe(fingerprint, ctx)
        if record is not None:
            job.cache_hit = True
            job.started_at = time.time()
            state = "cached"
        else:
            try:
                result = self._run(job, fingerprint, ctx)
            except Exception:
                sched_span.end("error")
                raise
            record = self._record(job, result, fingerprint, sched_span)
            state = "done"
        sched_span.end()
        self._finish(job, state, record)

    def _probe(self, fingerprint: str, ctx: TraceContext) -> dict | None:
        """Step 1: the stored record of ``fingerprint``, if any."""
        probe_span, _ = get_span_store().start_span("cache.probe", ctx=ctx)
        stored = self._seam(probe_span, self._cache.get, fingerprint)
        probe_span.set(hit=stored is not None)
        probe_span.end()
        return stored

    @contextmanager
    def _in_flight(self, fingerprint: str):
        """Duplicate-work accounting around one cache-eligible run: a
        fingerprint already executing cache-eligibly is an in-flight
        twin -- work coalescing would have deduplicated."""
        with self._lock:
            if self._executing[fingerprint]:
                self.duplicate_executions += 1
            self._executing[fingerprint] += 1
        try:
            yield
        finally:
            with self._lock:
                self._executing[fingerprint] -= 1
                if not self._executing[fingerprint]:
                    del self._executing[fingerprint]

    def _run(self, job: Job, fingerprint: str, ctx: TraceContext):
        """Step 2: the benchmark's result from a leased team (raises
        what leasing or running raised; the team goes back regardless).

        A sampled job's ``region:*`` and ``worker.N`` spans are rendered
        after ``run()`` returns, from ``result.region_stats`` -- the
        snapshot its ``regions`` table was written from -- so nothing
        during the run needs to know it is traced."""
        store = get_span_store()
        tracked = nullcontext() if job.no_cache else self._in_flight(fingerprint)
        with tracked:
            lease_span, _ = store.start_span("pool.lease", ctx=ctx)
            team, pooled = self._seam(
                lease_span, self._pool.lease, job.spec.backend, job.spec.workers
            )
            lease_span.set(pooled=pooled, team=type(team).__name__)
            lease_span.end()
            job.pooled = pooled
            job.state = "running"
            job.started_at = time.time()
            saved_policy = team.policy
            try:
                from repro.core.registry import get_benchmark

                team.policy = job.spec.fault_policy() or saved_policy
                benchmark = get_benchmark(job.spec.benchmark)(
                    job.spec.problem_class, team
                )
                run_span, region_ctx = store.start_span(
                    "run",
                    ctx=ctx,
                    attrs={
                        "benchmark": job.spec.benchmark,
                        "backend": job.spec.backend,
                        "workers": job.spec.workers,
                    },
                )
                try:
                    result = benchmark.run()
                except Exception:
                    run_span.end("error")
                    raise
                run_span.set(verified=result.verified)
                run_span.end()
                store.add_many(spans_from_team_trace(result, region_ctx))
                return result
            finally:
                team.policy = saved_policy
                self._pool.release(team, pooled)

    def _record(self, job: Job, result, fingerprint: str, sched_span) -> dict:
        """Step 3: store the computation, count its faults; the record."""
        record = result.to_dict()
        record["provenance"] = provenance(job.job_id, fingerprint)
        self._seam(sched_span, self._cache.put, fingerprint, record)
        with self._lock:
            for kind, count in result.fault_counts.items():
                self.fault_counts[kind] = self.fault_counts.get(kind, 0) + count
        return record

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
