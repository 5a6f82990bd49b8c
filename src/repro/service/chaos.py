"""Deterministic service-layer fault injection (``npb chaos``).

PR 3 made *dispatch* fault-tolerant and proved it with real SIGKILLs;
this module points the same discipline at the whole service stack.  The
north-star invariant it gates: **every admitted job reaches ``done``,
``cached``, or ``failed`` with a structured verdict -- zero silently
lost jobs -- and jobs that complete despite injected faults are
bit-identical to clean runs.**

The subsystem has three parts:

:class:`ChaosPlan`
    A *compiled* fault schedule: a pure function of a declarative
    :class:`ChaosSpec` (which faults, where, how often) and a seed.
    Each injection point gets its own RNG stream
    (``random.Random(f"{seed}:{point}")``), so the schedule -- which
    invocation of which point injects which fault -- is bit-identical
    across runs, machines, and thread interleavings.  Replay
    determinism is asserted at this level: the same seed always
    compiles the same schedule, and because injection points consume
    deterministic invocation indices, the same faults fire at the same
    logical moments.  (The *wall-clock order* in the runtime trail may
    vary with thread scheduling; the schedule is the contract.)
:class:`ChaosInjector`
    Hooks a plan into the existing seams -- ``TeamPool.lease``
    (SIGKILL the leased team's workers, or force-degrade in-process
    backends), ``ResultCache.get``/``put`` (corrupt or truncate the
    on-disk entry), the scheduler's dispatch loop (delay), and the
    ``ShardCoordinator`` probe/submit path (drop or delay responses,
    synthesize 429 storms).  Every seam is a no-op when no injector is
    installed: chaos off costs one attribute check.
:func:`check_invariant`
    Consumes loadgen's request outcomes (full response bodies, not just
    status codes) plus the surviving shards' job listings and asserts
    the invariant: every request terminal, every failure structured (an
    error trail, a routing block, or a 429 rejection), zero lost, and
    all completions of one fingerprint verification-bit-identical.

``npb chaos`` wires these together: spawn a 2-shard coordinator whose
shards run in-daemon chaos (``npb serve --chaos-seed``), drive a loadgen
mix (:func:`~repro.service.loadgen.run_closed_loop`) through a
coordinator-level injector, SIGKILL one spawned shard at a planned
submission index, then check the invariant and append a
schema-versioned ``CHAOS_<seq>.json`` record (plan, injected-fault
trail, verdict) to the trajectory.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import threading
import time
from dataclasses import asdict, dataclass

from repro.harness import records
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.loadgen import (
    PROFILES,
    RequestOutcome,
    RequestSampler,
    run_closed_loop,
    summarize_outcomes,
)
from repro.service.shard import ShardCoordinator, drain_children, spawn_shard

#: Version of the CHAOS_*.json record layout.
#: v2: ``traffic`` is loadgen's per-step summary
#: (:func:`~repro.service.loadgen.summarize_outcomes`), ``ledger`` one
#: :class:`~repro.service.loadgen.RequestOutcome` per request, and
#: ``config`` no longer carries ``kill_at``/``retries`` (fixed; the
#: kill is in ``plan``).  v1 records are refused, not migrated.
SCHEMA_VERSION = 2

#: The ``kind`` tag every record carries (guards against foreign JSON).
RECORD_KIND = "npb-chaos-record"

#: Trajectory file naming: CHAOS_0001.json, CHAOS_0002.json, ...
RECORD_PREFIX = "CHAOS"

#: Resubmissions of a 429 per request in the ``npb chaos`` runner.
RETRIES_429 = 3

#: Seconds the runner waits for surviving shards to list only terminal
#: jobs before reading a stuck one as a violation.
SETTLE_SECONDS = 30.0

#: Injection points and the fault kinds each one can host.  A point
#: fires once per *invocation* (lease, cache access, probe, ...) and
#: consumes one index of its schedule stream.
POINT_KINDS: dict[str, tuple[str, ...]] = {
    "pool.lease": ("kill_team",),
    "cache.get": ("cache_corrupt", "cache_truncate"),
    "cache.put": ("cache_corrupt", "cache_truncate"),
    "scheduler.dispatch": ("delay_dispatch",),
    "shard.probe": ("drop_response",),
    "shard.submit": ("drop_response", "delay_response", "storm_429"),
    "chaos.submit": ("kill_shard",),
}

#: Every fault kind any point can host.
FAULT_KINDS = tuple(
    sorted({kind for kinds in POINT_KINDS.values() for kind in kinds})
)


@dataclass(frozen=True)
class FaultRule:
    """One declarative fault source: *what* fires *where*, how often.

    ``rate`` is the per-invocation probability of planning the fault
    (1.0 makes it deterministic), ``limit`` caps how many invocations
    of the point this rule may claim, ``after`` skips the first N
    invocations, and ``param`` carries a kind-specific knob (sleep
    seconds for delays, shard ordinal for ``kill_shard``).
    """

    point: str
    kind: str
    rate: float
    limit: int = 1
    after: int = 0
    param: float | int | None = None

    def __post_init__(self):
        if self.point not in POINT_KINDS:
            raise ValueError(
                f"unknown injection point {self.point!r} "
                f"(one of {sorted(POINT_KINDS)})"
            )
        if self.kind not in POINT_KINDS[self.point]:
            raise ValueError(
                f"fault kind {self.kind!r} not valid at {self.point!r} "
                f"(one of {POINT_KINDS[self.point]})"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.limit < 1:
            raise ValueError(f"limit must be >= 1, got {self.limit}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")

    def as_dict(self) -> dict:
        return {
            "point": self.point,
            "kind": self.kind,
            "rate": self.rate,
            "limit": self.limit,
            "after": self.after,
            "param": self.param,
        }


@dataclass(frozen=True)
class ChaosSpec:
    """A named set of fault rules plus the planning horizon.

    ``horizon`` bounds how many invocations per point the plan covers;
    invocations beyond it never inject (the run outlived the plan).
    """

    name: str
    rules: tuple[FaultRule, ...]
    horizon: int = 64

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "horizon": self.horizon,
            "rules": [rule.as_dict() for rule in self.rules],
        }


def service_preset() -> ChaosSpec:
    """In-daemon faults for one shard (``npb serve --chaos-seed``).

    Mixes deterministic rules (``rate=1.0`` at staggered ``after``
    offsets, so every seed injects at least one kill/corrupt/delay once
    the invocation counts are reached) with probabilistic extras whose
    placement is what the seed varies.
    """
    return ChaosSpec(
        name="service",
        rules=(
            FaultRule("pool.lease", "kill_team", rate=1.0, after=2),
            FaultRule("pool.lease", "kill_team", rate=0.10, limit=1),
            FaultRule("cache.get", "cache_corrupt", rate=1.0, after=1),
            FaultRule("cache.get", "cache_truncate", rate=0.25, limit=1),
            FaultRule("cache.put", "cache_corrupt", rate=0.20, limit=1),
            FaultRule(
                "scheduler.dispatch",
                "delay_dispatch",
                rate=1.0,
                after=0,
                param=0.02,
            ),
            FaultRule(
                "scheduler.dispatch",
                "delay_dispatch",
                rate=0.15,
                limit=2,
                param=0.02,
            ),
        ),
    )


def coordinator_preset(
    kill_shard_after: int = 6, kill_shard_ordinal: int = 1
) -> ChaosSpec:
    """Coordinator-level faults for the ``npb chaos`` runner.

    ``kill_shard`` fires exactly once, at submission index
    ``kill_shard_after``, SIGKILLing spawned shard ``kill_shard_ordinal``
    -- a real process death mid-traffic, recovered by route-around.
    """
    return ChaosSpec(
        name="coordinator",
        rules=(
            FaultRule("shard.submit", "drop_response", rate=1.0, after=1),
            FaultRule("shard.submit", "drop_response", rate=0.10, limit=1),
            FaultRule(
                "shard.submit", "delay_response", rate=1.0, after=4, param=0.05
            ),
            FaultRule("shard.submit", "storm_429", rate=1.0, after=8),
            FaultRule("shard.probe", "drop_response", rate=0.50, limit=2),
            FaultRule(
                "chaos.submit",
                "kill_shard",
                rate=1.0,
                after=kill_shard_after,
                param=kill_shard_ordinal,
            ),
        ),
    )


def derive_seed(seed: int, label: str) -> int:
    """Stable per-component sub-seed (e.g. one per spawned shard)."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class PlannedFault:
    """One scheduled injection: fault ``kind`` at invocation ``index``
    of ``point``."""

    point: str
    index: int
    kind: str
    param: float | int | None = None

    def as_dict(self) -> dict:
        return {
            "point": self.point,
            "index": self.index,
            "kind": self.kind,
            "param": self.param,
        }


class ChaosPlan:
    """A compiled fault schedule: pure function of ``(spec, seed)``.

    ``schedule[point][index]`` is the :class:`PlannedFault` to inject at
    that invocation of that point (most invocations have none).  Each
    point draws from its own seeded RNG stream, and every rule draws at
    every index regardless of selection, so one rule's placement never
    perturbs another's -- the property that makes the schedule stable
    under spec evolution and assertable for replay determinism.
    """

    def __init__(
        self,
        spec: ChaosSpec,
        seed: int,
        schedule: dict[str, dict[int, PlannedFault]],
    ):
        self.spec = spec
        self.seed = seed
        self.schedule = schedule

    @classmethod
    def compile(cls, spec: ChaosSpec, seed: int) -> "ChaosPlan":
        schedule: dict[str, dict[int, PlannedFault]] = {}
        for point in sorted(POINT_KINDS):
            rules = [rule for rule in spec.rules if rule.point == point]
            if not rules:
                continue
            rng = random.Random(f"{seed}:{point}")
            fired = [0] * len(rules)
            planned: dict[int, PlannedFault] = {}
            for index in range(spec.horizon):
                for slot, rule in enumerate(rules):
                    draw = rng.random()  # always drawn: streams stay aligned
                    if (
                        index in planned
                        or fired[slot] >= rule.limit
                        or index < rule.after
                        or draw >= rule.rate
                    ):
                        continue
                    planned[index] = PlannedFault(
                        point=point,
                        index=index,
                        kind=rule.kind,
                        param=rule.param,
                    )
                    fired[slot] += 1
            if planned:
                schedule[point] = planned
        return cls(spec, seed, schedule)

    def get(self, point: str, index: int) -> PlannedFault | None:
        return self.schedule.get(point, {}).get(index)

    def faults(self) -> list[PlannedFault]:
        """Every planned fault, in (point, index) order."""
        return [
            self.schedule[point][index]
            for point in sorted(self.schedule)
            for index in sorted(self.schedule[point])
        ]

    def kinds(self) -> set[str]:
        return {fault.kind for fault in self.faults()}

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "spec": self.spec.as_dict(),
            "schedule": [fault.as_dict() for fault in self.faults()],
        }


# ===================================================================== #
# fault mechanics
# ===================================================================== #


def _kill_team(team) -> str:
    """Kill a leased team's workers the way the kind demands.

    Process teams get a real ``SIGKILL`` per worker -- the in-flight job
    then exercises the full WorkerDeath -> respawn -> (or degrade)
    recovery path.  Thread/serial workers cannot be killed from outside
    the interpreter, so forcing the degraded flag exercises the same
    observable contract: the job still completes bit-identically (inline
    serial) and the pool replaces the team instead of recycling it.
    """
    procs = list(getattr(team, "_procs", None) or [])
    if procs:
        killed = []
        for proc in procs:
            if proc.is_alive():
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                    killed.append(proc.pid)
                except (OSError, TypeError):
                    continue
        return f"SIGKILL worker pids {killed}"
    team._degraded = True
    return "forced degraded (no worker processes to kill)"


def _corrupt_file(path: str) -> bool:
    """Overwrite the head of ``path`` with garbage (torn-write model)."""
    try:
        with open(path, "r+b") as fh:
            fh.write(b"\x00chaos{corrupt")
        return True
    except OSError:
        return False


def _truncate_file(path: str) -> bool:
    """Truncate ``path`` to half its size (partial-write model)."""
    try:
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(max(1, size // 2))
        return True
    except OSError:
        return False


def kill_process(process) -> int | None:
    """SIGKILL a child process (Popen-like); returns the pid killed."""
    if process.poll() is not None:
        return None
    try:
        os.kill(process.pid, signal.SIGKILL)
    except OSError:
        return None
    return process.pid


class ChaosInjector:
    """Executes a :class:`ChaosPlan` at the service seams.

    One injector per component (each shard daemon runs its own, the
    coordinator another).  ``fire`` is the only stateful operation: it
    consumes the point's next invocation index under a lock and records
    an event when the schedule plans a fault there.  The seam methods
    (``on_lease``/``on_cache``/...) translate planned kinds into the
    actual mutation -- and are only ever called when an injector is
    installed, so chaos-off costs one ``is None`` check per seam.
    """

    def __init__(self, plan: ChaosPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._invocations: dict[str, int] = {}
        #: runtime injected-fault trail (wall-clock order)
        self.events: list[dict] = []

    def _fire(
        self, point: str, detail: str = ""
    ) -> tuple[PlannedFault | None, dict | None]:
        with self._lock:
            index = self._invocations.get(point, 0)
            self._invocations[point] = index + 1
            fault = self.plan.get(point, index)
            if fault is None:
                return None, None
            event = {
                "point": point,
                "index": index,
                "kind": fault.kind,
                "param": fault.param,
                "detail": detail,
                "at": time.time(),
            }
            self.events.append(event)
            return fault, event

    def fire(self, point: str, detail: str = "") -> PlannedFault | None:
        """Consume one invocation of ``point``; the planned fault, if any."""
        return self._fire(point, detail)[0]

    # ------------------------------------------------------------------ #
    # seam behaviors
    # ------------------------------------------------------------------ #

    def on_lease(self, team) -> None:
        """``TeamPool.lease``: kill the warm team as it is handed out."""
        fault, event = self._fire("pool.lease", type(team).__name__)
        if fault is not None and fault.kind == "kill_team":
            note = _kill_team(team)
            if event is not None:
                event["detail"] = f"{event['detail']}: {note}"

    def on_cache(self, point: str, path: str) -> None:
        """``ResultCache.get``/``put``: damage the entry on disk."""
        fault, event = self._fire(point, os.path.basename(path))
        if fault is None:
            return
        if fault.kind == "cache_corrupt":
            damaged = _corrupt_file(path)
        elif fault.kind == "cache_truncate":
            damaged = _truncate_file(path)
        else:
            return
        if event is not None:
            event["detail"] += ": damaged" if damaged else ": no entry on disk"

    def on_dispatch(self, job) -> None:
        """Scheduler dispatch loop: stall the dispatcher briefly."""
        fault, _ = self._fire(
            "scheduler.dispatch", getattr(job, "job_id", "")
        )
        if fault is not None and fault.kind == "delay_dispatch":
            time.sleep(float(fault.param) if fault.param else 0.02)

    def on_probe(self, shard: str) -> None:
        """Coordinator health probe: drop the /status response."""
        fault, _ = self._fire("shard.probe", shard)
        if fault is not None and fault.kind == "drop_response":
            raise ServiceUnavailable(
                f"chaos: dropped /status probe of shard {shard!r}"
            )

    def on_submit(self, shard: str) -> tuple[int, dict] | None:
        """Coordinator submit path: drop, delay, or synthesize a 429.

        A non-None return is a synthetic response used *instead of* the
        real shard call; ``drop_response`` raises exactly what a dead
        socket would, so the coordinator's existing failover handles it.
        """
        fault, _ = self._fire("shard.submit", shard)
        if fault is None:
            return None
        if fault.kind == "drop_response":
            raise ServiceUnavailable(
                f"chaos: dropped response from shard {shard!r}"
            )
        if fault.kind == "delay_response":
            time.sleep(float(fault.param) if fault.param else 0.05)
            return None
        if fault.kind == "storm_429":
            return 429, {
                "error": "chaos: synthetic 429 storm",
                "chaos": True,
                "shard": shard,
            }
        return None

    def on_chaos_submit(self) -> PlannedFault | None:
        """The runner's own pre-submission point (``kill_shard``)."""
        return self.fire("chaos.submit")

    # ------------------------------------------------------------------ #

    def install(self, service) -> None:
        """Hook this injector into a ``BenchService``'s seams."""
        service.pool.chaos = self
        service.cache.chaos = self
        service.scheduler.chaos = self
        service.chaos = self

    def install_coordinator(self, coordinator) -> None:
        """Hook this injector into a ``ShardCoordinator``'s seams."""
        coordinator.chaos = self

    def summary(self) -> dict:
        """Counters and the injected-fault trail (for /status + records)."""
        with self._lock:
            events = [dict(event) for event in self.events]
            invocations = dict(self._invocations)
        kinds: dict[str, int] = {}
        for event in events:
            kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
        return {
            "seed": self.plan.seed,
            "spec": self.plan.spec.name,
            "planned": len(self.plan.faults()),
            "injected": len(events),
            "invocations": invocations,
            "kinds": kinds,
            "events": events,
        }


# ===================================================================== #
# the invariant
# ===================================================================== #


def result_digest(verification) -> str:
    """Canonical digest of a run record's verification values.

    Timing fields (mops, seconds) legitimately vary run to run; the
    verification quantities are the deterministic payload the
    bit-identical guarantee covers (the equivalence suite enforces it
    across backends), so they are what completions are compared on.
    """
    blob = json.dumps(verification, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _bucket(outcome: RequestOutcome) -> str:
    """The invariant count one request lands in (``lost`` fails it)."""
    body = outcome.body or {}
    state = body.get("state")
    if outcome.code == 200 and state in ("done", "cached", "failed"):
        return state
    if outcome.code == 429:
        return "rejected_429"
    if outcome.code == 503 and isinstance(body.get("routing"), dict):
        return "unroutable_503"
    return "lost"


def check_invariant(
    outcomes: list[RequestOutcome],
    shard_jobs: dict[str, list[dict]] | None = None,
) -> dict:
    """The admitted-jobs invariant over a chaos run's outcomes.

    A request is *accounted for* when it is one of:

    * ``done``/``cached`` (HTTP 200) -- completed;
    * ``failed`` with a non-empty structured ``error`` -- a verdict;
    * HTTP 429 -- structured backpressure, the job was never admitted;
    * HTTP 503 with a ``routing`` block -- structured unroutability,
      the job was never admitted.

    Anything else -- an exception from ``submit``, a terminal-less body,
    a bare 5xx -- is a *lost* job and fails the check.  On top of that,
    surviving shards' job listings (``shard_jobs``) must be all-terminal
    (nothing stuck behind the scenes), and every completion of one spec
    fingerprint must carry bit-identical verification values.
    """
    shard_jobs = shard_jobs or {}
    counts = {
        "requests": len(outcomes),
        "done": 0,
        "cached": 0,
        "failed": 0,
        "rejected_429": 0,
        "unroutable_503": 0,
        "degraded": 0,
        "completed_with_faults": 0,
        "lost": 0,
    }
    lost: list[dict] = []
    unstructured: list[int] = []
    digests: dict[str, dict[str, int]] = {}
    for index, outcome in enumerate(outcomes):
        bucket = _bucket(outcome)
        counts[bucket] += 1
        counts["degraded"] += outcome.degraded
        body = outcome.body or {}
        result = body.get("result") or {}
        if bucket == "lost":
            lost.append(
                {
                    "index": index,
                    "code": outcome.code,
                    "state": body.get("state"),
                    "error": outcome.error,
                }
            )
        elif bucket == "failed" and not body.get("error"):
            unstructured.append(index)
        elif bucket in ("done", "cached"):
            counts["completed_with_faults"] += bool(result.get("faults"))
            fingerprint = (result.get("provenance") or {}).get("fingerprint")
            verification = result.get("verification")
            if fingerprint and verification is not None:
                group = digests.setdefault(fingerprint, {})
                digest = result_digest(verification)
                group[digest] = group.get(digest, 0) + 1

    stuck: list[dict] = []
    shard_unstructured: list[str] = []
    for shard, jobs in shard_jobs.items():
        for job in jobs:
            state, job_id = job.get("state"), job.get("job_id")
            if state == "failed" and not job.get("error"):
                shard_unstructured.append(f"{shard}:{job_id}")
            elif state not in ("done", "cached", "failed"):
                stuck.append({"shard": shard, "job_id": job_id, "state": state})

    divergent = {fp: group for fp, group in digests.items() if len(group) > 1}
    failures = {"ledger": unstructured, "shards": shard_unstructured}
    settled = sum(len(jobs) for jobs in shard_jobs.values())
    checks = [
        {"name": name, "pass": not bad, "detail": bad or fine}
        for name, bad, fine in (
            ("zero_lost_jobs", lost, f"{len(outcomes)} requests accounted"),
            (
                "structured_failures",
                failures if unstructured or shard_unstructured else None,
                f"{counts['failed']} failed, all with verdicts",
            ),
            ("shards_settled", stuck, f"{settled} shard jobs all terminal"),
            (
                "bit_identical_results",
                divergent,
                f"{len(digests)} fingerprints, one digest each",
            ),
        )
    ]
    return {
        "pass": all(check["pass"] for check in checks),
        "counts": counts,
        "checks": checks,
    }


# ===================================================================== #
# record IO (the CHAOS_<seq>.json trajectory)
# ===================================================================== #


def build_record(
    seed: int,
    config: dict,
    coordinator_plan: ChaosPlan,
    shard_plans: dict[str, ChaosPlan],
    injected: dict,
    outcomes: list[RequestOutcome],
    elapsed_seconds: float,
    shard_jobs: dict[str, list[dict]] | None = None,
) -> dict:
    """Assemble one schema-versioned chaos record.

    ``plan``/``shard_plans`` carry the *compiled schedules* -- the part
    that is a pure function of the seed, and what the CI replay gate
    compares between two same-seed runs.  ``injected`` carries the
    runtime trails (coordinator + runner events, per-shard summaries
    from /status).  ``traffic`` is loadgen's summary of the outcomes,
    ``ledger`` the outcomes themselves (full bodies) and ``invariant``
    :func:`check_invariant`'s verdict over them.
    """
    from repro.harness.bench import environment_fingerprint

    kinds: set[str] = set()
    for trail in (injected.get("coordinator"), injected.get("runner")):
        for event in trail or []:
            kinds.add(event["kind"])
    for summary in (injected.get("shards") or {}).values():
        kinds.update((summary or {}).get("kinds", {}))
    return {
        "kind": RECORD_KIND,
        "schema_version": SCHEMA_VERSION,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": environment_fingerprint(),
        "seed": seed,
        "config": config,
        "plan": coordinator_plan.as_dict(),
        "shard_plans": {
            name: plan.as_dict() for name, plan in shard_plans.items()
        },
        "injected": injected,
        "fault_kinds": sorted(kinds),
        "traffic": summarize_outcomes(outcomes, elapsed_seconds),
        "ledger": [asdict(outcome) for outcome in outcomes],
        "invariant": check_invariant(outcomes, shard_jobs),
    }


def write_record(
    record: dict, directory: str = ".", path: str | None = None
) -> str:
    """Append the record to the trajectory (atomic sequence allocation)."""
    if path is None:
        return records.append_record(record, directory, RECORD_PREFIX)
    return records.write_json_record(record, path)


def load_record(path: str) -> dict:
    """Load and sanity-check one chaos record."""
    return records.load_record(path, RECORD_KIND, SCHEMA_VERSION, "npb chaos")


# ===================================================================== #
# the scenario (``npb chaos``)
# ===================================================================== #


def retry_429(submit):
    """``submit`` resubmitting a 429 (chaos provokes them) up to
    :data:`RETRIES_429` times, 0.1 s apart; the last answer is returned
    whatever it is."""

    def retrying(payload: dict) -> tuple[int, dict]:
        for attempt in range(RETRIES_429 + 1):
            code, body = submit(dict(payload))
            if code != 429 or attempt == RETRIES_429:
                return code, body
            time.sleep(0.1)

    return retrying


def _settle(shards: dict[str, str]) -> dict[str, list[dict]]:
    """The surviving shards' job listings once every job is terminal
    (one still stuck after :data:`SETTLE_SECONDS` is a violation, not a
    race)."""
    terminal = ("done", "cached", "failed")
    deadline = time.monotonic() + SETTLE_SECONDS
    while True:
        pending = 0
        shard_jobs: dict[str, list[dict]] = {}
        for name, url in shards.items():
            try:
                _, body = ServiceClient(url, timeout=10.0).jobs()
            except ServiceUnavailable:
                continue  # the killed shard: its jobs died with it
            jobs = shard_jobs[name] = body.get("jobs", [])
            pending += sum(job.get("state") not in terminal for job in jobs)
        if pending == 0 or time.monotonic() > deadline:
            return shard_jobs
        time.sleep(0.2)


def run_chaos(
    *,
    seed: int,
    shards: int,
    requests: int,
    concurrency: int,
    profile: str,
    spawn: dict,
    say=print,
) -> dict:
    """One seeded chaos run against a spawned fleet (torn down however
    it ends); returns the record, whose ``"invariant"`` is the verdict.
    ``spawn`` holds :func:`spawn_shard`'s options, ``say`` gets progress.
    A count below 1 is a ``ValueError`` naming its option, before any spawn."""
    for option, count in (
        ("--shards", shards),
        ("--requests", requests),
        ("--concurrency", concurrency),
    ):
        if count < 1:
            raise ValueError(f"{option} must be >= 1, got {count}")
    children: list = []
    urls: dict[str, str] = {}
    coordinator = None
    try:
        # 1. Spawn the shard daemons, each running in-daemon chaos under
        #    a sub-seed derived from the run seed (pure function, so the
        #    plan recorded here matches what the daemon compiled).
        shard_plans: dict[str, ChaosPlan] = {}
        for i in range(shards):
            name = f"shard{i}"
            sub_seed = derive_seed(seed, name)
            plan = ChaosPlan.compile(service_preset(), sub_seed)
            child, urls[name] = spawn_shard(name, chaos_seed=sub_seed, **spawn)
            children.append(child)
            shard_plans[name] = plan
            say(f"npb chaos: {name} at {urls[name]} (seed {sub_seed}, "
                f"{len(plan.faults())} planned faults)")

        # 2. Coordinator (in-process) with the coordinator-level injector.
        ordinal = 1 % shards
        plan = ChaosPlan.compile(
            coordinator_preset(kill_shard_ordinal=ordinal), seed
        )
        injector = ChaosInjector(plan)
        coordinator = ShardCoordinator(urls, health_interval=0.5)
        injector.install_coordinator(coordinator)
        coordinator.start()
        say(f"npb chaos: coordinator up over {shards} shards "
            f"(seed {seed}, {len(plan.faults())} planned faults, "
            f"kill shard{ordinal} planned)")

        # 3. Drive the loadgen mix; every submission (429 retries
        #    included) first consumes one chaos.submit index, which is
        #    where the planned SIGKILL of a whole shard daemon lands
        #    mid-traffic.
        kills: list[dict] = []

        def submit(payload):
            # fire() hands the one planned kill to exactly one thread
            fault = injector.on_chaos_submit()
            if fault is not None and fault.kind == "kill_shard":
                victim = int(fault.param or 0) % len(children)
                pid = kill_process(children[victim])
                if pid is not None:
                    kills.append({"kind": "kill_shard", "index": fault.index,
                                  "shard": f"shard{victim}", "pid": pid,
                                  "at": time.time()})
                    say(f"npb chaos: SIGKILLed shard{victim} (pid {pid}) "
                        f"at submission {fault.index}")
            return coordinator.submit(payload)

        sampler = RequestSampler(PROFILES[profile], seed=seed)
        outcomes, elapsed = run_closed_loop(
            retry_429(submit), sampler, concurrency, requests
        )
        say(f"npb chaos: {len(outcomes)} requests in {elapsed:.1f}s, "
            f"{len(injector.events)} coordinator faults injected")

        # 4. Settle, then read each survivor's own injected-fault trail.
        shard_jobs = _settle(urls)
        shard_chaos: dict[str, dict | None] = {}
        for name, url in urls.items():
            try:
                _, status = ServiceClient(url, timeout=10.0).status()
                shard_chaos[name] = status.get("chaos")
            except ServiceUnavailable:
                shard_chaos[name] = None

        # 5. The invariant and the record.
        return build_record(
            seed=seed,
            config={
                "shards": shards, "requests": requests,
                "concurrency": concurrency, "profile": profile,
                "backend": spawn["backend"], "workers": spawn["workers"],
                "pool": spawn["pool"], "queue_depth": spawn["queue_depth"],
            },
            coordinator_plan=plan,
            shard_plans=shard_plans,
            injected={
                "coordinator": injector.summary()["events"],
                "runner": kills,
                "shards": shard_chaos,
            },
            outcomes=outcomes,
            elapsed_seconds=elapsed,
            shard_jobs=shard_jobs,
        )
    finally:
        if coordinator is not None:
            coordinator.close()
        drain_children(children, spawn["drain_timeout"])
