"""Abstract Team interface and the shared dispatch core.

A *team* is one master plus ``nworkers`` workers.  Benchmarks express their
parallel structure exclusively through this interface so that the same code
runs under all backends:

``parallel_for(n, fn, *args)``
    The workhorse.  ``range(n)`` (the outermost grid dimension, as in the
    OpenMP NPB) is block-partitioned; each worker calls
    ``fn(lo, hi, *args)`` on its block.  Returns the list of per-worker
    return values in rank order, which is how reductions are expressed
    (each worker returns its partial, the master combines).  The return of
    ``parallel_for`` is a full barrier: all workers have finished.

``run_on_all(fn, *args)``
    Every worker calls ``fn(rank, nworkers, *args)`` once -- used for
    worker-private setup such as the paper's CG "initialization load"
    warm-up fix.

``shared(shape, dtype)``
    Allocate an array visible to master and all workers.  Plain ``np.zeros``
    for serial/threads; POSIX shared memory for the process backend.

For the process backend, ``fn`` must be a module-level (picklable) function
and array arguments must be team-shared arrays; the serial and thread
backends accept anything callable.  Benchmarks in this suite follow the
stricter convention throughout.

Dispatch core
-------------
``Team`` itself owns everything the three backends used to duplicate:
closed-team checks, slab-bound computation (memoized in an
:class:`~repro.runtime.plan.ExecutionPlan`), rank-ordered result
collection, error propagation, and per-dispatch instrumentation (a
:class:`~repro.runtime.region.RegionRecorder`).  Subclasses implement one
hook, :meth:`_transport`, which delivers one ``fn(a, b, *args)`` task per
worker and returns the per-worker :class:`~repro.runtime.dispatch.WorkerReply`
list -- inline call (serial), condition-variable hand-off (threads), or
process pipe (process).  Every transport runs its task through
:func:`~repro.runtime.dispatch.execute_task` (the process workers
replicate it), which opens a new :mod:`~repro.runtime.arena` generation
on the executing worker before the task -- the hand-off that lets fused
kernels reuse per-worker scratch buffers dispatch after dispatch.  When
``tracemalloc`` is tracing, the core also wraps each dispatch in an
allocation probe and charges the ``alloc_bytes``/``alloc_blocks`` deltas
to the current region.  The recorder is the only per-dispatch
bookkeeping: the core knows nothing of tracing, and a traced service
job's region and worker spans are rendered after ``run()`` from the same
recorder snapshot that becomes the run record's ``regions``.

Granularity-aware dispatch
--------------------------
A crossing to the workers has a fixed cost that a thin slab never earns
back (the paper's "synchronization inside the loop" LU diagnosis).  The
core therefore decides per ``parallel_for`` call site ``(fn, n)``
whether to take the transport or to run the slabs on the master through
:meth:`Team._run_inline` -- same bounds, same rank order, so partials
and arrays are bit-identical either way.  The
decision is measured, never configured; the rule and its state live in
:class:`~repro.runtime.plan.ExecutionPlan` (``observe``), beside the
bounds, and survive :meth:`Team.reset` like them.  ``run_on_all`` always
crosses (reaching every worker is its purpose), one-worker teams have
nothing to decide, and a degraded team has no transport left.

Fault tolerance
---------------
The core also owns the recovery state machine (see
:mod:`repro.runtime.dispatch` for the fault model).  A transport may
raise :class:`~repro.runtime.dispatch.TransportFailure` when workers die
or stop responding; the core records a
:class:`~repro.runtime.dispatch.FaultEvent`, asks the backend to respawn
the affected workers (:meth:`_try_recover`, with bounded linear
backoff), and re-dispatches the whole bounds set -- sound because every
task in the suite is an idempotent slab computation.  When
``FaultPolicy.max_retries`` is exhausted (or the backend cannot
recover), the team permanently *degrades*: every slab of every later
dispatch runs inline on the master with the same bounds, so results stay
bit-identical while the dead transport is bypassed.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Any, Callable, Sequence

import numpy as np

from repro.runtime.arena import (allocation_probe_start,
                                 allocation_probe_stop, arena_rewind_task)
from repro.runtime.dispatch import (FaultEvent, FaultPolicy,
                                    TransportFailure, WorkerReply,
                                    execute_task, raise_reply_error)
from repro.runtime.plan import Bounds, ExecutionPlan, Site
from repro.runtime.region import RegionRecorder


class Team(ABC):
    """One master plus ``nworkers`` workers executing slab tasks.

    Every dispatch is charged to :attr:`recorder` and to nothing else;
    the run record's region table and a traced job's spans both come
    from it (see :meth:`RegionRecorder.snapshot
    <repro.runtime.region.RegionRecorder.snapshot>`).
    """

    #: backend name, set by subclasses
    backend: str = "abstract"

    def __init__(self, nworkers: int, policy: FaultPolicy | None = None):
        if nworkers < 1:
            raise ValueError("nworkers must be >= 1")
        self._nworkers = nworkers
        #: fault-tolerance knobs (timeout, retries, backoff)
        self.policy = policy if policy is not None else FaultPolicy()
        #: memoized slab partitions for this worker count
        self.plan = ExecutionPlan(nworkers)
        #: per-region dispatch/execute/barrier accounting
        self.recorder = RegionRecorder(nworkers)
        self._closed = False
        self._degraded = False

    @property
    def nworkers(self) -> int:
        """Number of workers (1 for the serial backend)."""
        return self._nworkers

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def degraded(self) -> bool:
        """True once retries were exhausted and dispatch runs inline."""
        return self._degraded

    # ------------------------------------------------------------------ #
    # transport hook

    @abstractmethod
    def _transport(self, fn: Callable, bounds: Bounds,
                   args: tuple) -> list[WorkerReply]:
        """Deliver ``fn(a, b, *args)`` to every worker; gather replies.

        ``bounds[rank]`` is worker ``rank``'s ``(a, b)`` pair -- slab
        bounds for ``parallel_for``, ``(rank, nworkers)`` for
        ``run_on_all``.  Must return one reply per worker, rank order,
        only after all workers finished (this is the barrier).  Worker
        exceptions are captured into replies, never raised here; a
        :class:`TransportFailure` (worker death / dispatch deadline) is
        raised and handled by the core's recovery loop.
        """

    def _try_recover(self, failure: TransportFailure, attempt: int) -> bool:
        """Restore transport health after ``failure`` (respawn workers).

        Called between retries with ``attempt`` starting at 1; returns
        True when the affected workers were replaced and the dispatch may
        be retried, False when the backend cannot recover (the core then
        degrades).  The default cannot recover.
        """
        return False

    # ------------------------------------------------------------------ #
    # dispatch core (shared bookkeeping + recovery state machine)

    def _fault(self, kind: str, rank: int | None = None,
               detail: str = "") -> FaultEvent:
        """Record one structured fault event against the current region."""
        event = FaultEvent(kind=kind, backend=self.backend,
                           region=self.recorder.current_region,
                           rank=rank, detail=detail)
        self.recorder.record_fault(event)
        return event

    def _run_inline(self, fn: Callable, bounds: Bounds,
                    args: tuple) -> list[WorkerReply]:
        """Every slab on the master, one after another, in rank order.

        Same bounds, same rank order, so results are bit-identical to a
        transported dispatch -- only the parallelism is gone.  Every slab
        runs through :func:`~repro.runtime.dispatch.execute_task`, so
        each one opens a fresh arena generation on the master exactly as
        it would on its own worker.  Used for call sites the plan keeps
        inline and for every dispatch of a degraded team.
        """
        return [execute_task(rank, fn, a, b, args)
                for rank, (a, b) in enumerate(bounds)]

    def _dispatch(self, fn: Callable, bounds: Bounds, args: tuple,
                  site: Site | None = None) -> list[Any]:
        """Run one task per worker; ``site`` names the call site whose
        crossover decision applies (None: always take the transport)."""
        if self._closed:
            raise RuntimeError("team is closed")
        if self._nworkers == 1 or self._degraded:
            # Nothing to decide: SerialTeam's transport *is* the inline
            # path, a one-worker team exists to measure the hand-off
            # against it (the paper's "1 thread vs serial"), and a
            # degraded team has no transport left.
            site = None
        limit = None if site is None else self.plan.inline_limit(site)
        attempts = 0
        while True:
            inline = self._degraded or limit is not None
            published_at = time.perf_counter()
            probe = allocation_probe_start()
            if inline:
                replies = self._run_inline(fn, bounds, args)
            else:
                try:
                    replies = self._transport(fn, bounds, args)
                except TransportFailure as failure:
                    attempts += 1
                    for rank in failure.ranks or (None,):
                        self._fault(failure.kind, rank=rank,
                                    detail=str(failure))
                    recovered = False
                    if attempts <= self.policy.max_retries:
                        try:
                            recovered = self._try_recover(failure, attempts)
                        except Exception as exc:
                            self._fault("respawn_failed",
                                        detail=f"{type(exc).__name__}: {exc}")
                    if not recovered:
                        self._fault(
                            "degrade",
                            detail=f"inline serial fallback after "
                                   f"{attempts} failed attempt(s): {failure}")
                        self._degraded = True
                    continue
            done_at = time.perf_counter()
            self.recorder.record(published_at, done_at, replies,
                                 allocation_probe_stop(probe), inline)
            if site is not None and not self._degraded:
                self.plan.observe(site, limit, done_at - published_at,
                                  sum(r.execute_seconds for r in replies))
            for reply in replies:
                if not reply.ok:
                    raise_reply_error(reply)
            return [reply.value for reply in replies]

    # ------------------------------------------------------------------ #
    # public dispatch surface

    def parallel_for(self, n: int, fn: Callable, *args: Any) -> list[Any]:
        """Block-partition ``range(n)``; worker ``r`` runs ``fn(lo_r, hi_r, *args)``.

        Implicit barrier on return.  Returns per-worker results in rank order.
        """
        return self._dispatch(fn, self.plan.bounds(n), args, (fn, n))

    def run_on_all(self, fn: Callable, *args: Any) -> list[Any]:
        """Every worker runs ``fn(rank, nworkers, *args)`` once; barrier."""
        return self._dispatch(fn, self.plan.ranks, args)

    def shared(self, shape: Sequence[int] | int, dtype=np.float64) -> np.ndarray:
        """Allocate a zero-initialized array visible to all team members."""
        return np.zeros(shape, dtype=dtype)

    def reduce_sum(self, n: int, fn: Callable, *args: Any) -> float:
        """Sum of per-worker partials from ``fn(lo, hi, *args)``."""
        return float(sum(self.parallel_for(n, fn, *args)))

    def reset(self) -> None:
        """Prepare a live team for reuse by another benchmark run.

        Pooled teams (:class:`repro.service.pool.TeamPool`) run many
        benchmarks over one team lifetime; without a reset the second
        run's :class:`~repro.runtime.region.RegionRecorder` report and
        fault history would include the first run's events.  ``reset``
        restores the observable state a fresh team would have:

        * every worker's scratch arena opens a new generation
          (:func:`~repro.runtime.arena.arena_rewind_task`) -- pooled
          buffers are *kept*, because a warm arena is the state reuse
          exists to amortize;
        * the recorder drops all region stats, fault events, and any
          stale region stack (:meth:`RegionRecorder.reset`).

        The memoized :class:`~repro.runtime.plan.ExecutionPlan` survives
        (partitions depend only on the worker count).  A degraded team
        resets fine -- the rewind runs inline -- but stays degraded;
        pool owners should replace it rather than reuse it.
        """
        if self._closed:
            raise RuntimeError("team is closed")
        # Rewind arenas first: this dispatch would otherwise land in the
        # recorder stats the reset is about to guarantee are empty.
        self.run_on_all(arena_rewind_task)
        self.recorder.reset()

    def alive(self) -> bool:
        """Whether this team can still accept work right now.

        Pool owners use this as a pre-lease liveness probe: a pooled
        team can die while *idle* (a worker SIGKILLed between jobs),
        which the dispatch-time fault machinery would only discover
        mid-job.  Backends with real worker processes override this
        with a process liveness check; for in-process backends
        not-closed is the whole truth.
        """
        return not self._closed

    def close(self) -> None:
        """Shut workers down and release shared resources (idempotent).

        After ``close()`` every backend rejects further dispatches with
        ``RuntimeError``.  Subclasses must call ``super().close()``.
        """
        self._closed = True

    def __enter__(self) -> "Team":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def team_worker_counts(max_workers: int) -> list[int]:
    """Thread counts used in the paper's tables: 1, 2, 4, ... up to the limit."""
    counts = []
    w = 1
    while w <= max_workers:
        counts.append(w)
        w *= 2
    return counts
