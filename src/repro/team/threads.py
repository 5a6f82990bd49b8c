"""Thread backend: the paper's master--worker scheme with wait()/notify().

Section 4 of the paper: every benchmark object is a thread; the master
switches workers between blocked and runnable states with ``wait()`` and
``notify()``.  Here each worker blocks on a shared condition variable until
the master publishes a new task generation, executes its slab, and reports
completion; the master's dispatch returns only when all workers have
checked in (the barrier).

Python's GIL serializes interpreted bytecode, but NumPy kernels release the
GIL, so slab-level NumPy work can overlap.  On this suite the backend's role
is structural fidelity (overhead and synchronization behaviour) rather than
raw speedup -- the process backend is the true-parallelism path.

The task/result/error bookkeeping lives in the shared dispatch core
(:meth:`repro.team.base.Team._dispatch`); this module provides only the
condition-variable transport.

Fault tolerance: with ``FaultPolicy.dispatch_timeout`` set, the master's
barrier wait carries a deadline; ranks that have not replied when it
expires raise :class:`~repro.runtime.dispatch.DispatchTimeout` and are
*replaced* by fresh threads (a hung CPython thread cannot be killed, so
the stuck one is retired: it is daemonic, its eventual reply is discarded
by the generation/identity checks, and it can never block interpreter
exit).  ``close()`` escalates a failed join into a ``join_timeout``
:class:`~repro.runtime.dispatch.FaultEvent` on the recorder in addition
to the RuntimeWarning.
"""

from __future__ import annotations

import threading
import time
import warnings
from typing import Callable

from repro.runtime.dispatch import (DispatchTimeout, FaultPolicy,
                                    TransportFailure, WorkerReply,
                                    execute_task)
from repro.runtime.plan import Bounds
from repro.team.base import Team


class ThreadTeam(Team):
    """Persistent worker threads coordinated by a condition variable."""

    backend = "threads"

    def __init__(self, nworkers: int, join_timeout: float = 5.0,
                 policy: FaultPolicy | None = None):
        super().__init__(nworkers, policy=policy)
        self._join_timeout = join_timeout
        self._cond = threading.Condition()
        self._generation = 0
        self._pending = 0
        self._task: tuple[Callable, Bounds, tuple] | None = None
        self._replies: list[WorkerReply | None] = [None] * nworkers
        self._shutdown = False
        #: (rank, thread) pairs replaced after hanging; joined (briefly)
        #: and reported at close()
        self._retired: list[tuple[int, threading.Thread]] = []
        self._threads: list[threading.Thread | None] = [None] * nworkers
        for rank in range(nworkers):
            self._spawn_worker(rank, seen=0)

    # ------------------------------------------------------------------ #

    def _spawn_worker(self, rank: int, seen: int) -> threading.Thread:
        """Start one worker thread; ``seen`` is the generation it treats
        as already handled (current generation for replacements, so a
        fresh thread never picks up the task its predecessor hung on).

        The rank's slot in ``_threads`` is assigned *before* the thread
        starts so the ownership check never sees a half-registered worker.
        """
        thread = threading.Thread(
            target=self._worker_loop, args=(rank, seen), daemon=True,
            name=f"npb-worker-{rank}",
        )
        self._threads[rank] = thread
        thread.start()
        return thread

    def _is_current(self, rank: int) -> bool:
        return self._threads[rank] is threading.current_thread()

    def _worker_loop(self, rank: int, seen: int) -> None:
        while True:
            with self._cond:
                # blocked state: wait() until the master notify()s a new
                # task -- or this thread has been replaced (retired).
                while (self._generation == seen and not self._shutdown
                       and self._is_current(rank)):
                    self._cond.wait()
                if self._shutdown or not self._is_current(rank):
                    return
                seen = self._generation
                fn, bounds, args = self._task
            a, b = bounds[rank]
            # execute_task captures task exceptions into the reply (the
            # core re-raises) and opens this thread's arena generation.
            reply = execute_task(rank, fn, a, b, args)
            with self._cond:
                # Post only if this thread still owns the rank and the
                # master is still waiting on this generation; a reply from
                # a retired thread or a timed-out generation is stale.
                if self._is_current(rank) and seen == self._generation:
                    self._replies[rank] = reply
                    self._pending -= 1
                    if self._pending == 0:
                        self._cond.notify_all()

    def _transport(self, fn: Callable, bounds: Bounds,
                   args: tuple) -> list[WorkerReply]:
        timeout = self.policy.dispatch_timeout
        deadline = (None if timeout is None
                    else time.perf_counter() + timeout)
        with self._cond:
            self._task = (fn, bounds, args)
            self._replies = [None] * self._nworkers
            self._pending = self._nworkers
            self._generation += 1
            self._cond.notify_all()  # runnable state
            while self._pending > 0:
                if deadline is None:
                    self._cond.wait()
                    continue
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    hung = [r for r in range(self._nworkers)
                            if self._replies[r] is None]
                    raise DispatchTimeout(
                        f"dispatch exceeded {timeout}s; worker(s) "
                        f"{hung} did not reply", ranks=hung)
                self._cond.wait(remaining)
            return list(self._replies)

    def _try_recover(self, failure: TransportFailure, attempt: int) -> bool:
        """Replace hung workers with fresh threads (the hung ones are
        daemonic and retired; they cannot be killed, only abandoned)."""
        if not failure.ranks:
            return False
        time.sleep(attempt * self.policy.backoff_seconds)
        with self._cond:
            current = self._generation
        for rank in failure.ranks:
            old = self._threads[rank]
            self._retired.append((rank, old))
            self._spawn_worker(rank, seen=current)
            self._fault("respawn", rank=rank,
                        detail=f"replaced {'hung' if old.is_alive() else 'dead'}"
                               f" thread {old.name} (attempt {attempt})")
        with self._cond:
            # Wake any retired thread parked in wait() so it can exit.
            self._cond.notify_all()
        return True

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        with self._cond:
            if self._shutdown:
                return
            self._shutdown = True
            self._cond.notify_all()
        super().close()
        leaked = []
        members = list(enumerate(self._threads))
        members.extend(self._retired)
        for rank, t in members:
            t.join(timeout=self._join_timeout)
            if t.is_alive():
                leaked.append(t.name)
                self._fault("join_timeout", rank=rank,
                            detail=f"{t.name} failed to join within "
                                   f"{self._join_timeout}s; leaked as a "
                                   f"daemon thread")
        if leaked:
            warnings.warn(
                f"ThreadTeam.close: worker threads failed to join within "
                f"{self._join_timeout}s and were leaked (daemon): {leaked}",
                RuntimeWarning,
                stacklevel=2,
            )
