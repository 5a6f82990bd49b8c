"""Uniform benchmark API.

Every NPB benchmark follows the same life cycle, inherited from the Fortran
originals and preserved by the paper's Java translation:

1. allocate and initialize data (untimed),
2. optionally run one untimed warm-up iteration and re-initialize,
3. run ``niter`` timed iterations,
4. verify computed quantities against published reference values,
5. report time and Mop/s.

:class:`NPBenchmark` encodes that life cycle once; each benchmark package
provides the four hooks.  A benchmark instance is bound to a problem class
and a :class:`~repro.team.base.Team`, so the same object runs serially or
with any number of workers under any backend.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.common.params import ProblemClass
from repro.common.timers import TimerSet
from repro.common.verification import VerificationResult
from repro.runtime.region import ParallelRegion
from repro.team import SerialTeam, Team

#: Version of the ``to_dict()`` run-record layout (the ``--json`` output
#: and the per-cell payload embedded in ``BENCH_*.json`` trajectory
#: records); bump on any breaking change to the schema.
#: v2: added ``faults`` (structured FaultEvent list) and ``fault_counts``.
#: v3: region dicts gained ``alloc_bytes``/``alloc_blocks`` (per-region
#: allocation accounting; zeros unless the run traced allocations).
#: v4: added the job-service fields ``job_id`` (null outside the
#: service), ``cache_hit``, and ``queue_wait_seconds`` (see
#: :mod:`repro.service`).
#: v5: added the kernel-tier field (removed again in v7).
#: v6: added the async-front-end fields ``tenant`` (the tenant id the
#: submitting request carried; null outside the service) and
#: ``coalesced_with`` (the primary job id this response was coalesced
#: onto when an in-flight duplicate attached instead of re-executing;
#: null for the primary and for un-coalesced runs; see
#: :mod:`repro.service.async_api`).
#: v7: v6 minus the kernel-tier field -- every slab kernel has one form.
RUN_RECORD_SCHEMA_VERSION = 7


@dataclass
class BenchmarkResult:
    """Outcome of one benchmark run (the NPB results banner, structured)."""

    name: str
    problem_class: str
    backend: str
    nworkers: int
    niter: int
    time_seconds: float
    mops: float
    verification: VerificationResult
    timers: dict[str, float] = field(default_factory=dict)
    #: per-region dispatch accounting of the timed region: region name ->
    #: {calls, inline_calls, wall_seconds, dispatch_seconds,
    #:  execute_seconds, barrier_seconds} (see :mod:`repro.runtime.region`;
    #: records written before ``inline_calls`` existed lack the key --
    #: read it with ``.get("inline_calls", 0)``)
    regions: dict[str, dict[str, float]] = field(default_factory=dict)
    #: structured fault-tolerance events of the whole run (timeouts,
    #: worker deaths, respawns, degradations), in occurrence order; each
    #: is a FaultEvent dict (see :mod:`repro.runtime.dispatch`)
    faults: list[dict] = field(default_factory=list)
    #: job-service provenance (schema v4): the service stamps these when
    #: the run was a submitted job; a direct ``npb run`` leaves the
    #: defaults (no job, never cached, zero queue wait)
    job_id: str | None = None
    cache_hit: bool = False
    queue_wait_seconds: float = 0.0
    #: async-front-end provenance (schema v6): tenant id the submitting
    #: request carried, and -- for a response fanned out to a coalesced
    #: waiter -- the primary job id the waiter attached to; both stay
    #: ``None`` outside the service and for primary executions
    tenant: str | None = None
    coalesced_with: str | None = None

    @property
    def verified(self) -> bool:
        return self.verification.verified

    @property
    def fault_counts(self) -> dict[str, int]:
        """Fault event counts by kind (``{}`` for a fault-free run)."""
        counts: dict[str, int] = {}
        for event in self.faults:
            kind = event["kind"]
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def to_dict(self) -> dict:
        """Machine-readable run record (the ``--json`` output)."""
        return {
            "schema_version": RUN_RECORD_SCHEMA_VERSION,
            "benchmark": self.name,
            "problem_class": self.problem_class,
            "backend": self.backend,
            "nworkers": self.nworkers,
            "niter": self.niter,
            "time_seconds": self.time_seconds,
            "mops": self.mops,
            "verified": self.verified,
            "verification": [
                {"quantity": name, "computed": float(computed),
                 "reference": float(reference),
                 "relative_error": float(err), "passed": bool(ok)}
                for name, computed, reference, err, ok
                in self.verification.checks
            ],
            "timers": dict(self.timers),
            "regions": {name: dict(stats)
                        for name, stats in self.regions.items()},
            "faults": [dict(event) for event in self.faults],
            "fault_counts": self.fault_counts,
            "job_id": self.job_id,
            "cache_hit": self.cache_hit,
            "queue_wait_seconds": self.queue_wait_seconds,
            "tenant": self.tenant,
            "coalesced_with": self.coalesced_with,
        }

    def banner(self) -> str:
        """Text banner in the spirit of the NPB ``print_results``."""
        status = "SUCCESSFUL" if self.verified else "UNSUCCESSFUL"
        banner = (
            f" {self.name} Benchmark Completed.\n"
            f" Class           = {self.problem_class}\n"
            f" Iterations      = {self.niter}\n"
            f" Time in seconds = {self.time_seconds:.4f}\n"
            f" Mop/s total     = {self.mops:.2f}\n"
            f" Backend         = {self.backend} x{self.nworkers}\n"
            f" Verification    = {status}"
        )
        if self.faults:
            counts = ", ".join(f"{kind}={n}" for kind, n
                               in sorted(self.fault_counts.items()))
            banner += f"\n Faults          = {len(self.faults)} ({counts})"
        return banner


class NPBenchmark(ABC):
    """Base class for all NPB benchmarks.

    Subclasses set :attr:`name`, define per-class parameters in their own
    package, and implement the four hooks below.  ``run()`` orchestrates
    the NPB life cycle.
    """

    #: Benchmark mnemonic ("BT", "CG", ...); set by subclasses.
    name: str = "??"

    def __init__(self, problem_class: "str | ProblemClass",
                 team: Team | None = None):
        self.problem_class = ProblemClass.parse(problem_class)
        self.team = team if team is not None else SerialTeam()
        self.timers = TimerSet()
        self._set_up = False

    # ------------------------------------------------------------------ #
    # hooks

    @abstractmethod
    def _setup(self) -> None:
        """Allocate arrays (via ``self.team.shared``) and initialize data."""

    @abstractmethod
    def _iterate(self) -> None:
        """Run the full timed region (all ``niter`` iterations)."""

    @abstractmethod
    def verify(self) -> VerificationResult:
        """Compare computed quantities against the reference values."""

    @abstractmethod
    def op_count(self) -> float:
        """Total floating-point (or key, for IS) operations of the timed
        region, from the official NPB operation-count formulas."""

    @property
    @abstractmethod
    def niter(self) -> int:
        """Number of timed iterations for the bound problem class."""

    # ------------------------------------------------------------------ #

    def region(self, name: str) -> ParallelRegion:
        """Name a phase region (``with self.region("rhs"): ...``).

        Starts the NPB phase timer of the same name and attributes every
        team dispatch inside the block to ``name``, so the run record's
        ``timers`` (wall) and ``regions`` (dispatch/execute/barrier split)
        describe the same phases.  Region names follow the NPB ``t_*``
        convention (see docs/architecture.md).
        """
        return ParallelRegion(name, self.team.recorder, self.timers[name])

    def setup(self) -> None:
        """Untimed initialization; a no-op while the state it built has
        not been consumed by ``run()``."""
        if not self._set_up:
            self._setup()
            self._set_up = True

    def run(self) -> BenchmarkResult:
        """Execute the full benchmark life cycle and return the result.

        The timed region consumes the initial state ``setup()`` built, so
        a further ``run()`` on the same object sets up afresh instead of
        iterating on from the evolved solution (and failing verification).
        """
        self.setup()
        self._set_up = False
        # NPB semantics: all timers and region stats reset at the start of
        # the timed region (both therefore exclude warm-up and setup).
        self.timers.clear_all()
        self.team.recorder.clear()
        timer = self.timers["total"]
        timer.start()
        self._iterate()
        elapsed = timer.stop()
        # Snapshot before verify() so the breakdown covers exactly the
        # timed region (verify may dispatch, e.g. BT/SP recompute rhs).
        timers = self.timers.report()
        regions = self.team.recorder.report()
        verification = self.verify()
        # Faults snapshot *after* verify: a respawn/degradation during the
        # verification dispatches is still part of the run's fault history.
        faults = self.team.recorder.fault_report()
        mops = self.op_count() / elapsed / 1.0e6 if elapsed > 0 else 0.0
        return BenchmarkResult(
            name=self.name,
            problem_class=str(self.problem_class),
            backend=self.team.backend,
            nworkers=self.team.nworkers,
            niter=self.niter,
            time_seconds=elapsed,
            mops=mops,
            verification=verification,
            timers=timers,
            regions=regions,
            faults=faults,
        )
