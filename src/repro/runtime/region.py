"""Named instrumentation regions for the parallel runtime.

A *region* is a named span of benchmark code (``rhs``, ``blts``,
``conj_grad``, ...).  While a region is active, every team dispatch
contributes three per-worker overhead components to that region's totals:

``dispatch``
    master publish -> worker task start (thread wake-up / pipe delivery
    latency; the paper's Table 1 start/notify cost).
``execute``
    worker task start -> worker task end (compute).
``barrier``
    worker task end -> all workers done (load-imbalance wait; the
    paper's LU synchronization-in-the-inner-loop diagnosis).

All three are *sums over workers*, so ``execute`` is cumulative worker
busy time (it can exceed the region's wall time), and for a perfectly
balanced region ``barrier`` approaches zero.  ``wall`` is master-side
elapsed dispatch time and is counted once per call.

A dispatch whose slabs ran one after another on the master (a site the
plan keeps inline, or a degraded team) has no workers waiting on each
other: its slabs are charged to ``execute`` and only the master's own
gaps around them to ``dispatch``, so an all-inline region reads like the
same region on ``SerialTeam``.  ``inline_calls`` counts those dispatches.

When allocation tracking is on (``tracemalloc`` tracing, e.g. under
``npb profile --alloc``), every dispatch additionally charges two
allocation counters to its region (see :mod:`repro.runtime.arena`):
``alloc_bytes`` (gross temporary churn: the tracemalloc peak rise over
the dispatch) and ``alloc_blocks`` (net live-block growth, a leak
signal).  Both stay zero when tracking is off.

Beside the table, every region keeps its extent in ``perf_counter``
stamps -- first publish to last done, and per rank first task start to
last task finish plus busy time -- from the same replies.  A traced
service job renders its ``region:*`` and ``worker.N`` spans from
:meth:`RegionRecorder.snapshot` (the renderer is
``spans_from_team_trace`` in ``obs/spans.py``), so span and record
numbers are one set; :meth:`RegionStats.as_dict` leaves the extents
out, and the run record's layout does not carry them.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.common.timers import Timer
    from repro.runtime.dispatch import FaultEvent, WorkerReply

#: Region charged with dispatches that run outside any named region.
UNATTRIBUTED = "(unattributed)"


@dataclass(slots=True)
class WorkerExtent:
    """One rank's activity within a region (``perf_counter`` stamps).

    Stamped inside the worker (for ProcessTeam: the forked child, whose
    CLOCK_MONOTONIC shares the master's epoch), so the extent is the
    rank's own view.  A region's dispatches run one after another, so the
    first reply's start and the latest reply's finish bound them all.
    """

    first_start: float
    last_finish: float = 0.0
    busy_seconds: float = 0.0


@dataclass
class RegionStats:
    """Accumulated dispatch accounting for one named region."""

    calls: int = 0
    #: dispatches (of ``calls``) whose slabs ran on the master
    inline_calls: int = 0
    wall_seconds: float = 0.0
    dispatch_seconds: float = 0.0
    execute_seconds: float = 0.0
    barrier_seconds: float = 0.0
    #: gross allocator churn (tracemalloc peak rise, summed per dispatch);
    #: zero unless allocation tracking was on
    alloc_bytes: int = 0
    #: net live small-object block growth (leak signal); can be negative
    alloc_blocks: int = 0
    #: extent (``perf_counter`` stamps): first publish, last done, and
    #: one :class:`WorkerExtent` per rank -- not part of :meth:`as_dict`
    first_published: float = 0.0
    last_done: float = 0.0
    workers: list[WorkerExtent] = field(default_factory=list)

    @property
    def sync_seconds(self) -> float:
        """Pure runtime overhead: everything that is not task compute."""
        return self.dispatch_seconds + self.barrier_seconds

    @property
    def overhead_fraction(self) -> float:
        """sync / (sync + compute), the paper's overhead ratio per region."""
        busy = self.sync_seconds + self.execute_seconds
        return self.sync_seconds / busy if busy > 0 else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "calls": self.calls,
            "inline_calls": self.inline_calls,
            "wall_seconds": self.wall_seconds,
            "dispatch_seconds": self.dispatch_seconds,
            "execute_seconds": self.execute_seconds,
            "barrier_seconds": self.barrier_seconds,
            "alloc_bytes": self.alloc_bytes,
            "alloc_blocks": self.alloc_blocks,
        }


class RegionRecorder:
    """Attributes every dispatch to the innermost active region.

    Owned by a :class:`~repro.team.base.Team`; benchmarks activate regions
    through :meth:`NPBenchmark.region`, and the team's dispatch core calls
    :meth:`record` once per ``parallel_for``/``run_on_all``.
    """

    def __init__(self, nworkers: int = 1):
        self.nworkers = nworkers
        self._stack: list[str] = []
        self._stats: "OrderedDict[str, RegionStats]" = OrderedDict()
        self._faults: "list[FaultEvent]" = []

    @property
    def current_region(self) -> str:
        return self._stack[-1] if self._stack else UNATTRIBUTED

    def push(self, name: str) -> None:
        self._stack.append(name)

    def pop(self) -> None:
        self._stack.pop()

    def clear(self) -> None:
        """Drop accumulated stats (active region names survive).

        Fault events are *not* cleared: a respawn during untimed setup is
        still part of the run's fault history, so the NPB timed-region
        reset must not erase it.
        """
        self._stats.clear()

    def reset(self) -> None:
        """Return the recorder to its freshly-constructed state.

        Unlike :meth:`clear` (the NPB timed-region reset, which keeps
        fault history within one run), ``reset`` drops *everything* --
        stats, fault events, and any stale region stack.  This is the
        between-jobs reset used by :meth:`repro.team.base.Team.reset`:
        a pooled team's second benchmark must start with the same
        recorder state a fresh team would have, or region stats and
        fault reports accumulate across unrelated jobs.
        """
        self._stack.clear()
        self._stats.clear()
        self._faults.clear()

    def record(self, published_at: float, done_at: float,
               replies: "Sequence[WorkerReply]",
               alloc: "tuple[int, int] | None" = None,
               inline: bool = False) -> None:
        """Charge one completed dispatch to the current region.

        ``alloc`` is the dispatch's ``(alloc_bytes, alloc_blocks)`` probe
        delta (:mod:`repro.runtime.arena`), or None when allocation
        tracking is off.  ``inline`` says the slabs ran back to back on
        the master: a later slab did not *wait* while an earlier one
        ran, so that time is nobody's dispatch or barrier overhead.
        Every dispatch has one reply per rank, so each rank's
        :class:`WorkerExtent` sees every call of the region.
        """
        stats = self._stats.get(self.current_region)
        if stats is None:
            stats = self._stats[self.current_region] = RegionStats(
                first_published=published_at,
                workers=[WorkerExtent(reply.started_at) for reply in replies])
        wall = done_at - published_at
        stats.calls += 1
        stats.wall_seconds += wall
        stats.last_done = done_at
        busy = 0.0
        for reply, worker in zip(replies, stats.workers):
            execute = reply.finished_at - reply.started_at
            worker.last_finish = reply.finished_at
            worker.busy_seconds += execute
            busy += execute
            if not inline:
                stats.dispatch_seconds += reply.started_at - published_at
                stats.barrier_seconds += done_at - reply.finished_at
        stats.execute_seconds += busy
        if inline:
            stats.inline_calls += 1
            stats.dispatch_seconds += wall - busy
        if alloc is not None:
            stats.alloc_bytes += alloc[0]
            stats.alloc_blocks += alloc[1]

    def record_fault(self, event: "FaultEvent") -> None:
        """Append one fault-tolerance event (timeout/death/respawn/...)."""
        self._faults.append(event)

    @property
    def faults(self) -> "tuple[FaultEvent, ...]":
        """All fault events recorded over the recorder's lifetime."""
        return tuple(self._faults)

    def fault_counts(self) -> dict[str, int]:
        """Event counts by kind (``{}`` for a fault-free run)."""
        counts: dict[str, int] = {}
        for event in self._faults:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def fault_report(self) -> list[dict]:
        """All fault events as dicts, in occurrence order."""
        return [event.as_dict() for event in self._faults]

    def stats(self, name: str) -> RegionStats:
        """Stats for one region (empty stats if it never dispatched)."""
        return self._stats.get(name, RegionStats())

    def names(self) -> list[str]:
        return list(self._stats)

    def report(self) -> dict[str, dict[str, float]]:
        """All regions' accounting, in first-dispatch order."""
        return {name: s.as_dict() for name, s in self._stats.items()}

    def snapshot(self) -> dict[str, RegionStats]:
        """Copies of every region's stats, extents included, in
        first-dispatch order; later dispatches do not change them."""
        return {name: replace(s, workers=[replace(w) for w in s.workers])
                for name, s in self._stats.items()}


class ParallelRegion:
    """Context manager naming a phase: scopes the recorder and (optionally)
    drives the benchmark's NPB phase timer so ``timers`` and ``regions``
    stay consistent."""

    __slots__ = ("name", "_recorder", "_timer")

    def __init__(self, name: str, recorder: RegionRecorder,
                 timer: "Timer | None" = None):
        self.name = name
        self._recorder = recorder
        self._timer = timer

    def __enter__(self) -> "ParallelRegion":
        self._recorder.push(self.name)
        if self._timer is not None:
            self._timer.start()
        return self

    def __exit__(self, *exc) -> None:
        if self._timer is not None:
            self._timer.stop()
        self._recorder.pop()
