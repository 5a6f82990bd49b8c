"""Parallel runtime for the NPB-Python suite.

The paper parallelizes the Java benchmarks with a master--worker model:
every benchmark class extends ``java.lang.Thread``, the master switches
workers between blocked and runnable with ``wait()``/``notify()``, and work
is block-partitioned over the outermost grid dimension exactly as in the
OpenMP NPB.  This package reproduces that structure with three
interchangeable backends:

``serial``
    No workers; ``parallel_for`` degenerates to a direct call.  This is the
    reference against which the parallel backends are verified.

``threads``
    Persistent Python threads blocked on a condition variable -- the literal
    analogue of the paper's wait()/notify() master--worker scheme.  Subject
    to the GIL for interpreted code, but NumPy kernels release the GIL.

``process``
    Persistent forked worker processes with arrays in POSIX shared memory
    (``multiprocessing.shared_memory``) -- the GIL-free rework called for by
    the reproduction notes.

All backends implement the same :class:`~repro.team.base.Team` interface and
must produce bit-identical benchmark results; the test suite enforces this.
Task/result/error bookkeeping and per-region instrumentation live in the
shared dispatch core (see :mod:`repro.runtime`); each backend contributes
only its transport.
"""

from repro.runtime.dispatch import FaultEvent, FaultPolicy
from repro.team.base import Team, team_worker_counts
from repro.team.partition import block_partition, partition_bounds
from repro.team.serial import SerialTeam
from repro.team.threads import ThreadTeam
from repro.team.procs import ProcessTeam, SharedArrayRef

_BACKENDS = {
    "serial": SerialTeam,
    "threads": ThreadTeam,
    "process": ProcessTeam,
}


def make_team(backend: str = "serial", nworkers: int = 1,
              policy: FaultPolicy | None = None) -> Team:
    """Create a team by backend name (``serial``, ``threads``, ``process``).

    ``policy`` carries the fault-tolerance knobs (per-dispatch timeout,
    respawn retries, backoff); ``None`` means the defaults of
    :class:`~repro.runtime.dispatch.FaultPolicy` (no deadline, 2 retries).
    """
    try:
        cls = _BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {sorted(_BACKENDS)}"
        ) from None
    if backend == "serial":
        return cls(policy=policy)
    return cls(nworkers, policy=policy)


__all__ = [
    "Team",
    "SerialTeam",
    "ThreadTeam",
    "ProcessTeam",
    "SharedArrayRef",
    "FaultEvent",
    "FaultPolicy",
    "make_team",
    "block_partition",
    "partition_bounds",
    "team_worker_counts",
]
