"""Job model and admission queue for the benchmark job service.

A *job* is one benchmark run requested by a client.  Its :class:`JobSpec`
is a complete, content-addressable description of the work: what to run
(benchmark, class), how (backend, workers, fault-policy flags), and in
which world (git SHA, python/numpy versions).  Two specs with the same
:meth:`~JobSpec.fingerprint` are guaranteed to produce bit-identical
results -- every benchmark in the suite is deterministic and the backends
are bit-identical by construction (the equivalence suite enforces it) --
which is what makes the result cache (:mod:`repro.service.cache`) sound.

Jobs move through a small state machine, each transition stamped with a
wall-clock time::

    submitted -> queued -> running -> done | failed
                        \\-> cached              (fingerprint hit, no run)

The terminal transition, :meth:`Job.finish`, resolves ``Job.completion``:
the one object every waiter and observer of the verdict hangs off.

:class:`JobQueue` is the admission point: FIFO within each priority lane
(``high`` drains before ``normal``), bounded total depth.  A full queue
rejects *explicitly* (:class:`AdmissionRejected`, surfaced as HTTP 429 /
CLI exit code 4) instead of buffering unboundedly -- backpressure is the
contract that keeps a saturated service honest with its clients.

Two identity notions coexist on a spec:

* :meth:`JobSpec.fingerprint` -- the *cache* key: every run-affecting
  field plus the environment pin (git SHA, python/numpy versions).
* :func:`routing_key` / :meth:`JobSpec.routing_key` -- the *placement*
  key used by the shard coordinator (:mod:`repro.service.shard`): the
  run-affecting fields only, computable from a raw submission payload
  without stamping the environment (no ``git rev-parse`` per request).
  Shards of one coordinator share an environment, so routing on this
  subset preserves cache locality across the fleet.  The daemon's front
  end keys its in-flight coalescing registry on the same function, told
  what its pool runs a payload on when the payload does not say.

A :class:`Job` may additionally carry a client-supplied ``job_key``
(idempotency key).  Resubmitting the same key returns the already-admitted
job instead of a duplicate -- that is what lets the coordinator safely
resubmit after an ambiguous transport failure (the request may or may not
have been admitted before the connection died).
"""

from __future__ import annotations

import functools
import hashlib
import json
import platform
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from repro.obs.trace import TraceContext
from repro.runtime.dispatch import FaultPolicy

#: Priority lanes in drain order.
PRIORITIES = ("high", "normal")

#: Every state a job can be in.  ``done``/``failed``/``cached`` are
#: terminal; ``cached`` means the result came from the content-addressed
#: cache without executing anything.
JOB_STATES = ("submitted", "queued", "running", "done", "failed", "cached")

_TERMINAL = frozenset({"done", "failed", "cached"})

#: The JobSpec fields a shard coordinator routes on: everything that
#: affects *what runs*, nothing that pins *where it was built* (the
#: environment fields are identical across the shards of one
#: coordinator, so hashing them would add nothing but a git subprocess
#: per request).
ROUTING_FIELDS = (
    "benchmark",
    "problem_class",
    "backend",
    "workers",
    "dispatch_timeout",
    "max_retries",
)


class AdmissionRejected(RuntimeError):
    """The service refused a submission (queue full or draining).

    Maps to HTTP 429 on the wire and exit code 4 in the CLI -- the
    client should back off and resubmit, not treat this as a crash.
    """

    def __init__(self, message: str, depth: int = 0, capacity: int = 0):
        super().__init__(message)
        self.depth = depth
        self.capacity = capacity


#: Seconds a 429 tells the client to wait before resubmitting (the
#: ``Retry-After`` header; also the client's fallback when it is absent).
RETRY_AFTER_SECONDS = 1.0


@functools.lru_cache(maxsize=1)
def _git_sha() -> str:
    # Reuse the bench fingerprint helper; import here so the service can
    # be used without the harness package fully importable.  Cached per
    # process: the tree cannot change under a running daemon, and paying
    # a `git rev-parse` subprocess on every submission would dominate
    # the front end's admission latency.
    from repro.harness.bench import git_sha

    return git_sha()


def routing_key(
    payload: Mapping, backend: str = "serial", workers: int = 1
) -> str:
    """Placement key of a raw submission payload (sha256 hex digest).

    Normalizes the payload the way the spec it becomes is normalized --
    without validating it or touching the environment.  ``backend`` and
    ``workers`` are what a payload naming neither runs on: the literal
    :meth:`JobSpec.create` defaults unless the caller knows better.  The
    daemon's front end (:mod:`repro.service.async_api`) does -- its
    ``BenchService.submit`` fills them from the pool -- and passes the
    pool's, so two payloads share a key iff ``submit`` would build equal
    specs; that is what lets it use the key for its in-flight coalescing
    registry (within one daemon the environment is fixed, so equal keys
    partition jobs exactly like equal fingerprints).  Payload keys that
    do not change what runs (``wait``, ``priority``, ``no_cache``,
    ``job_key``, ``tenant``) are ignored.
    """
    normalized = {
        "benchmark": str(payload.get("benchmark", "")).upper(),
        "problem_class": str(payload.get("problem_class") or "S").upper(),
        "backend": str(payload.get("backend") or backend),
        "workers": int(payload.get("workers") or workers),
        "dispatch_timeout": payload.get("dispatch_timeout"),
        "max_retries": payload.get("max_retries"),
    }
    canonical = json.dumps(normalized, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def submission_payload(headers: Mapping, body: bytes) -> dict:
    """The ``POST /jobs`` payload of one request (daemon and coordinator).

    Parses the JSON body (``ValueError`` unless it is an object) and
    applies the header shorthands: ``Idempotency-Key`` for ``job_key``
    and ``X-NPB-Tenant`` for ``tenant``; an explicit body field wins
    over its header.  ``headers`` has lower-cased names.
    """
    payload = json.loads(body or b"{}")
    if not isinstance(payload, dict):
        raise ValueError("body must be a JSON object")
    for header, field in (
        ("idempotency-key", "job_key"),
        ("x-npb-tenant", "tenant"),
    ):
        value = headers.get(header)
        if value is not None and payload.get(field) is None:
            payload[field] = value
    return payload


@dataclass(frozen=True)
class JobSpec:
    """Content-addressable description of one benchmark run.

    All fields participate in the fingerprint: anything that could
    change the result (or the environment that produced it) must be
    part of the cache key, and nothing else -- submission-time knobs
    like priority or ``no_cache`` live on the :class:`Job` instead.
    """

    benchmark: str
    problem_class: str = "S"
    backend: str = "serial"
    workers: int = 1
    #: fault-policy knobs (None = FaultPolicy defaults); these are part
    #: of the fingerprint because a degraded-but-verified run and a
    #: clean run have different fault histories in their records
    dispatch_timeout: float | None = None
    max_retries: int | None = None
    #: environment pin: results from another tree/interpreter/numpy are
    #: different cache entries by construction
    git_sha: str = "unknown"
    python_version: str = ""
    numpy_version: str = ""

    @classmethod
    def create(
        cls,
        benchmark: str,
        problem_class: str = "S",
        backend: str = "serial",
        workers: int = 1,
        dispatch_timeout: float | None = None,
        max_retries: int | None = None,
    ) -> "JobSpec":
        """Validated spec with the environment pin stamped in."""
        from repro import available_benchmarks

        benchmark = str(benchmark).upper()
        problem_class = str(problem_class).upper()
        if benchmark not in available_benchmarks():
            raise ValueError(
                f"unknown benchmark {benchmark!r}; choose "
                f"from {available_benchmarks()}"
            )
        if backend not in ("serial", "threads", "process"):
            raise ValueError(f"unknown backend {backend!r}")
        workers = int(workers)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        return cls(
            benchmark=benchmark,
            problem_class=problem_class,
            backend=backend,
            workers=workers,
            dispatch_timeout=dispatch_timeout,
            max_retries=max_retries,
            git_sha=_git_sha(),
            python_version=platform.python_version(),
            numpy_version=np.__version__,
        )

    def as_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "problem_class": self.problem_class,
            "backend": self.backend,
            "workers": self.workers,
            "dispatch_timeout": self.dispatch_timeout,
            "max_retries": self.max_retries,
            "git_sha": self.git_sha,
            "python_version": self.python_version,
            "numpy_version": self.numpy_version,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        return cls(
            **{k: payload[k] for k in cls.__dataclass_fields__ if k in payload}
        )

    def fingerprint(self) -> str:
        """Content address: sha256 over the canonical JSON of the spec."""
        canonical = json.dumps(
            self.as_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    def routing_key(self) -> str:
        """Placement key (see module-level :func:`routing_key`)."""
        return routing_key({f: getattr(self, f) for f in ROUTING_FIELDS})

    def fault_policy(self) -> FaultPolicy | None:
        """The FaultPolicy this spec asks for (None = team default)."""
        if self.dispatch_timeout is None and self.max_retries is None:
            return None
        kwargs = {}
        if self.dispatch_timeout is not None:
            kwargs["dispatch_timeout"] = self.dispatch_timeout
        if self.max_retries is not None:
            kwargs["max_retries"] = self.max_retries
        return FaultPolicy(**kwargs)


def _pending() -> Future:
    """A future only :meth:`Job.finish` resolves: marked running, so no
    waiter's ``cancel()`` (``wrap_future`` hands it on) can take it away."""
    future: Future = Future()
    future.set_running_or_notify_cancel()
    return future


def stamp(record: dict, job: "Job", coalesced_with: str | None = None) -> dict:
    """``record``, stamped in place as the response for ``job`` carries
    it: the only writer of a record's per-response provenance, for the
    cached hit, the executed run and the coalesced fan-out alike.  The
    cache stores records unstamped, so a hit inherits no tenant or trace."""
    record["job_id"] = job.job_id
    record["cache_hit"] = job.cache_hit
    record["queue_wait_seconds"] = job.queue_wait_seconds
    record["tenant"] = job.tenant
    record["coalesced_with"] = coalesced_with
    if job.trace_id is not None:
        record["trace_id"] = job.trace_id
    return record


@dataclass
class Job:
    """One tracked submission: spec + state machine + result."""

    job_id: str
    spec: JobSpec
    priority: str = "normal"
    #: bypass the result cache for this submission (the result is still
    #: stored, so a later submission can hit it)
    no_cache: bool = False
    #: client-supplied idempotency key: resubmitting the same key gives
    #: back this job instead of admitting a duplicate
    job_key: str | None = None
    #: tenant id the submitting request carried (schema v6); admission
    #: fairness groups by it, execution ignores it -- it is provenance,
    #: not part of the fingerprint
    tenant: str | None = None
    state: str = "submitted"
    submitted_at: float = field(default_factory=time.time)
    queued_at: float | None = None
    started_at: float | None = None
    finished_at: float | None = None
    #: the v4 run record (BenchmarkResult.to_dict() + service fields)
    result: dict | None = None
    error: str | None = None
    cache_hit: bool = False
    #: True when the job ran on a pre-spawned pool team, False for a
    #: cold one-shot team, None when it never ran (cached/failed early)
    pooled: bool | None = None
    #: trace context the submitting request carried (or the sampler
    #: minted); the scheduler activates it around execution.  None means
    #: the request predates tracing or sampling is off entirely.
    trace: TraceContext | None = None
    #: resolved when :meth:`finish` makes the job terminal (to None, so
    #: that job and future form no cycle): what ``BenchService.wait``,
    #: parked connections, coalesced waiters and observers all hang off
    completion: Future = field(default_factory=_pending, repr=False, compare=False)

    def finish(
        self, state: str, result: dict | None = None, error: str | None = None
    ) -> None:
        """The terminal transition: stamp it, then resolve ``completion``."""
        self.result = result
        self.error = error
        self.finished_at = time.time()
        self.state = state
        self.completion.set_result(None)

    @property
    def trace_id(self) -> str | None:
        """Trace id when this job is actually being traced (sampled)."""
        if self.trace is not None and self.trace.sampled:
            return self.trace.trace_id
        return None

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL

    @property
    def queue_wait_seconds(self) -> float:
        """Seconds between admission and execution start.

        On a warm pooled team this is the *entire* pre-compute latency
        (spawn, plan, and arena warm-up are already paid), which is how
        the service makes the amortization visible in the record.
        """
        if self.queued_at is None:
            return 0.0
        if self.started_at is not None:
            end = self.started_at
        elif self.finished_at is not None:
            end = self.finished_at
        else:
            end = time.time()
        return max(0.0, end - self.queued_at)

    def as_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "fingerprint": self.spec.fingerprint(),
            "spec": self.spec.as_dict(),
            "priority": self.priority,
            "no_cache": self.no_cache,
            "job_key": self.job_key,
            "tenant": self.tenant,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "queued_at": self.queued_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queue_wait_seconds": self.queue_wait_seconds,
            "cache_hit": self.cache_hit,
            "pooled": self.pooled,
            "trace_id": self.trace_id,
            "error": self.error,
            "result": self.result,
        }

    def coalesced_dict(
        self, submitted_at: float, queued_at: float, tenant: str | None
    ) -> dict:
        """:meth:`as_dict` for a request coalesced onto this job.

        The execution is shared, the request is not: it arrived at
        ``submitted_at``, attached at ``queued_at``, and the shared
        ``started_at``/``finished_at`` never precede that, so the five
        stamps are non-decreasing and inside the waiter's own request.
        """

        def shared(at: float | None) -> float | None:
            return None if at is None else max(at, queued_at)

        view = replace(
            self,
            submitted_at=submitted_at,
            queued_at=queued_at,
            started_at=shared(self.started_at),
            finished_at=shared(self.finished_at),
            tenant=tenant,
        )
        if self.result is not None:
            view.result = stamp(dict(self.result), view, self.job_id)
        return {**view.as_dict(), "tenant": self.tenant, "coalesced_with": self.job_id}


class JobQueue:
    """Bounded FIFO queue with priority lanes and explicit rejection.

    ``high`` drains before ``normal``; within a lane, strict FIFO.  The
    depth bound covers both lanes together: admission control is about
    total buffered work, not fairness between lanes.  ``close()`` starts
    the drain contract -- new puts are rejected, already-admitted jobs
    keep coming out of ``get`` until the queue is empty, after which
    ``get`` returns ``None`` to tell dispatchers to exit.
    """

    def __init__(self, maxdepth: int = 64):
        if maxdepth < 1:
            raise ValueError("maxdepth must be >= 1")
        self.maxdepth = maxdepth
        self._lanes: dict[str, deque[Job]] = {p: deque() for p in PRIORITIES}
        self._cond = threading.Condition()
        self._closed = False

    @property
    def depth(self) -> int:
        with self._cond:
            return sum(len(lane) for lane in self._lanes.values())

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def put(self, job: Job) -> None:
        """Admit one job (stamps ``queued``) or raise AdmissionRejected."""
        if job.priority not in self._lanes:
            raise ValueError(
                f"unknown priority {job.priority!r}; choose from {PRIORITIES}"
            )
        with self._cond:
            depth = sum(len(lane) for lane in self._lanes.values())
            if self._closed:
                raise AdmissionRejected(
                    "service is draining; not accepting new jobs",
                    depth=depth,
                    capacity=self.maxdepth,
                )
            if depth >= self.maxdepth:
                raise AdmissionRejected(
                    f"queue full ({depth}/{self.maxdepth}); "
                    f"back off and resubmit",
                    depth=depth,
                    capacity=self.maxdepth,
                )
            job.state = "queued"
            job.queued_at = time.time()
            self._lanes[job.priority].append(job)
            self._cond.notify()

    def get(self, timeout: float | None = None) -> Job | None:
        """Next job in priority order; None on timeout or drained-empty."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                for priority in PRIORITIES:
                    lane = self._lanes[priority]
                    if lane:
                        return lane.popleft()
                if self._closed:
                    return None
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        if all(not lane for lane in self._lanes.values()):
                            return None

    def close(self) -> None:
        """Reject new admissions; wake every blocked ``get``."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
