"""Process backend: true parallelism over POSIX shared memory.

The reproduction notes for this paper flag the CPython GIL as the obstacle
to Java-style thread scalability, and call for a NumPy/multiprocessing
rework.  This backend is that rework: persistent forked worker processes,
benchmark arrays placed in ``multiprocessing.shared_memory`` segments, and
slab tasks shipped over pipes as (function, bounds, arguments) messages with
shared arrays passed *by reference* (name + shape + dtype), never by value.
A dispatch pickles ``(function, arguments)`` once; each worker's message is
those bytes behind a fixed-size head carrying the dispatch sequence number
and the worker's own bounds.

Constraints (enforced by convention across the suite):

* task functions must be module-level (picklable);
* mutable arrays must come from ``team.shared(...)``;
* other arguments are pickled by value and therefore treated as read-only.

The task/result/error bookkeeping lives in the shared dispatch core
(:meth:`repro.team.base.Team._dispatch`); this module provides only the
pipe transport.  Worker replies carry the worker's own ``perf_counter``
start/finish stamps (CLOCK_MONOTONIC, shared across processes on Linux),
so the core's dispatch/execute/barrier split works identically here.

Fault tolerance: the reply-gather loop multiplexes over the worker pipes
with ``multiprocessing.connection.wait`` so it can notice a dead worker
(pipe EOF, or ``Process.is_alive()`` false on a liveness probe) and an
expired ``FaultPolicy.dispatch_timeout`` while the survivors keep
computing.  Tasks and replies carry a dispatch sequence number so replies
from a generation the master already abandoned (after a timeout) are
discarded instead of corrupting the next dispatch.  Dead or hung workers
are respawned by forking a fresh process on the same rank -- shared-memory
segments re-attach by name, so a respawned worker sees the same arrays.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection
import os
import pickle
import struct
import time
import traceback
from dataclasses import dataclass
from multiprocessing import shared_memory
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Sequence

import numpy as np

from repro.runtime.arena import fresh_worker_arena
# Re-exported here for backwards compatibility; defined with the runtime's
# dispatch types.
from repro.runtime.dispatch import (DispatchTimeout, FaultPolicy,
                                    TransportFailure, WorkerDeath,
                                    WorkerError, WorkerReply)
from repro.runtime.plan import Bounds
from repro.team.base import Team

__all__ = ["ProcessTeam", "SharedArrayRef", "WorkerError"]

#: Idle interval between liveness probes while waiting for replies.
_PROBE_SECONDS = 0.1

#: Head of a task message: dispatch sequence number, then the receiving
#: worker's ``(a, b)``.  The pickled ``(fn, args)`` follows; an empty
#: message tells the worker to exit.
_HEAD = struct.Struct("<qqq")


@dataclass(frozen=True)
class SharedArrayRef:
    """Pickle-friendly handle to a team-shared array segment."""

    name: str
    shape: tuple[int, ...]
    dtype: str


def _worker_main(rank: int, conn) -> None:
    """Worker loop: resolve array refs, run the slab task, reply."""
    # Fork copied the master thread's TLS slot; start from an empty
    # arena so this worker's scratch pools are its own (a respawned
    # worker likewise starts fresh -- nothing to repair).
    arena = fresh_worker_arena()
    attached: dict[str, tuple[shared_memory.SharedMemory, None]] = {}

    def resolve(arg: Any) -> Any:
        if isinstance(arg, SharedArrayRef):
            entry = attached.get(arg.name)
            if entry is None:
                # The master started the resource tracker before forking, so
                # this register call lands in the shared tracker's cache
                # (idempotent) rather than spawning a per-worker tracker
                # that would unlink segments on worker exit (gh-82300).
                shm = shared_memory.SharedMemory(name=arg.name)
                attached[arg.name] = entry = (shm, None)
            shm = entry[0]
            return np.ndarray(arg.shape, dtype=np.dtype(arg.dtype),
                              buffer=shm.buf)
        return arg

    try:
        while True:
            msg = conn.recv_bytes()
            if not msg:
                break
            seq, a, b = _HEAD.unpack_from(msg)
            fn, args = pickle.loads(memoryview(msg)[_HEAD.size:])
            # Mirror execute_task (remote tracebacks must be captured as
            # strings here): new arena generation, then run and stamp.
            arena.next_dispatch()
            started_at = time.perf_counter()
            try:
                args = tuple(resolve(x) for x in args)
                ok, result = True, fn(a, b, *args)
            except BaseException:
                ok, result = False, traceback.format_exc()
            finished_at = time.perf_counter()
            conn.send((seq, ok, result, started_at, finished_at))
    finally:
        for shm, _ in attached.values():
            shm.close()
        conn.close()


class ProcessTeam(Team):
    """Persistent forked workers sharing arrays through POSIX shared memory."""

    backend = "process"

    def __init__(self, nworkers: int, policy: FaultPolicy | None = None):
        super().__init__(nworkers, policy=policy)
        self._ctx = mp.get_context("fork")
        # Start the resource tracker now so every forked worker inherits it;
        # see the note in _worker_main's resolve().
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        self._segments: list[shared_memory.SharedMemory] = []
        self._array_ids: list[int] = []
        self._seq = 0
        self._pipes: list = []
        self._procs: list = []
        #: master pipe end -> rank, for the reply-gather loop
        self._rank_of: dict = {}
        #: ranks the dispatch in flight still waits for (one set per
        #: team, refilled per dispatch)
        self._pending: set[int] = set()
        for rank in range(nworkers):
            parent, proc = self._spawn_worker(rank)
            self._pipes.append(parent)
            self._procs.append(proc)

    def _spawn_worker(self, rank: int):
        """Fork one worker; returns (master pipe end, process)."""
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(rank, child),
            daemon=True, name=f"npb-worker-{rank}",
        )
        proc.start()
        child.close()
        self._rank_of[parent] = rank
        return parent, proc

    # ------------------------------------------------------------------ #

    def shared(self, shape: Sequence[int] | int, dtype=np.float64) -> np.ndarray:
        dtype = np.dtype(dtype)
        if isinstance(shape, int):
            shape = (shape,)
        shape = tuple(int(s) for s in shape)
        nbytes = max(1, int(np.prod(shape)) * dtype.itemsize)
        shm = shared_memory.SharedMemory(
            create=True, size=nbytes, name=f"npb_{os.getpid()}_{len(self._segments)}"
        )
        self._segments.append(shm)
        array = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        array.fill(0)
        # Remember the segment name on the array so arguments can be
        # translated back to references when dispatching.
        _SHM_BY_ID[id(array)] = (shm.name, array)
        self._array_ids.append(id(array))
        return array

    def _translate(self, arg: Any) -> Any:
        if isinstance(arg, np.ndarray):
            entry = _SHM_BY_ID.get(id(arg))
            if entry is not None and entry[1] is arg:
                return SharedArrayRef(entry[0], arg.shape, arg.dtype.str)
            # Views of shared arrays must not be shipped: the worker could
            # not reconstruct them, and silently pickling them by value
            # would break write visibility.
            base = arg.base
            while base is not None:
                if isinstance(base, np.ndarray):
                    base_entry = _SHM_BY_ID.get(id(base))
                    if base_entry is not None and base_entry[1] is base:
                        raise ValueError(
                            "pass whole team-shared arrays to parallel "
                            "tasks, not views; slice inside the task function"
                        )
                    base = base.base
                else:
                    break
        return arg

    def _transport(self, fn: Callable, bounds: Bounds,
                   args: tuple) -> list[WorkerReply]:
        # One pickle per dispatch: the body is the same for every rank,
        # only the head in front of it is rewritten.
        message = bytearray(_HEAD.size) + ForkingPickler.dumps(
            (fn, tuple(self._translate(a) for a in args)))
        self._seq += 1
        seq = self._seq
        for rank, pipe in enumerate(self._pipes):
            _HEAD.pack_into(message, 0, seq, *bounds[rank])
            try:
                pipe.send_bytes(message)
            except (BrokenPipeError, OSError) as exc:
                raise WorkerDeath(
                    f"worker {rank} pipe closed on send "
                    f"({type(exc).__name__}); process "
                    f"{'alive' if self._procs[rank].is_alive() else 'dead'}",
                    ranks=[rank]) from None
        timeout = self.policy.dispatch_timeout
        deadline = (None if timeout is None
                    else time.perf_counter() + timeout)
        replies: list[WorkerReply | None] = [None] * self._nworkers
        pending = self._pending
        pending.update(range(self._nworkers))
        while pending:
            chunk = _PROBE_SECONDS
            if deadline is not None:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise DispatchTimeout(
                        f"dispatch exceeded {timeout}s; worker(s) "
                        f"{sorted(pending)} did not reply",
                        ranks=sorted(pending))
                chunk = min(chunk, remaining)
            ready = mp.connection.wait(
                [self._pipes[r] for r in pending], timeout=chunk)
            for conn in ready:
                rank = self._rank_of[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    # pipe EOF: the worker is gone (SIGKILL, OOM, crash)
                    raise WorkerDeath(
                        f"worker {rank} pipe hit EOF mid-dispatch "
                        f"(exitcode {self._procs[rank].exitcode})",
                        ranks=[rank]) from None
                rseq, ok, value, started_at, finished_at = msg
                if rseq != seq:
                    # stale reply from a generation the master abandoned
                    # after a timeout; drop it
                    continue
                replies[rank] = WorkerReply(rank, ok, value, started_at,
                                            finished_at)
                pending.discard(rank)
            if not ready:
                # idle probe: catch a worker that died without its pipe
                # reporting EOF yet
                dead = [r for r in sorted(pending)
                        if not self._procs[r].is_alive()]
                if dead:
                    raise WorkerDeath(
                        f"worker(s) {dead} found dead by liveness probe "
                        f"(exitcodes "
                        f"{[self._procs[r].exitcode for r in dead]})",
                        ranks=dead)
        return replies  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # recovery

    def _respawn(self, rank: int, attempt: int) -> None:
        """Replace worker ``rank``: reap the old process, fork a new one."""
        proc = self._procs[rank]
        was_alive = proc.is_alive()
        if was_alive:
            # hung worker: escalate terminate -> kill
            proc.terminate()
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        else:
            proc.join(timeout=1.0)
        del self._rank_of[self._pipes[rank]]
        try:
            self._pipes[rank].close()
        except OSError:
            pass
        self._pipes[rank], self._procs[rank] = self._spawn_worker(rank)
        self._fault("respawn", rank=rank,
                    detail=f"respawned {'hung' if was_alive else 'dead'} "
                           f"worker (attempt {attempt}, new pid "
                           f"{self._procs[rank].pid})")

    def _try_recover(self, failure: TransportFailure, attempt: int) -> bool:
        if not failure.ranks:
            return False
        time.sleep(attempt * self.policy.backoff_seconds)
        for rank in failure.ranks:
            self._respawn(rank, attempt)
        return True

    def alive(self) -> bool:
        return not self._closed and all(
            proc.is_alive() for proc in self._procs
        )

    def close(self) -> None:
        if self._closed:
            return
        super().close()
        for pipe in self._pipes:
            try:
                pipe.send_bytes(b"")
                pipe.close()
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
        for array_id in self._array_ids:
            _SHM_BY_ID.pop(array_id, None)
        self._array_ids.clear()
        for shm in self._segments:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:
                pass
        self._segments.clear()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass


#: id(array) -> (segment name, owning array).  Keyed by object identity; the
#: owning-array reference keeps the ndarray alive so ids are never recycled
#: while registered.
_SHM_BY_ID: dict[int, tuple[str, np.ndarray]] = {}
