"""Benchmark job service: queued scheduler, warm team pool, result cache.

The paper (and ``npb run``) treats each benchmark as a one-shot program:
spawn a team, build its plan, warm its arenas, run, throw it all away.
This package turns the suite into a long-lived *service* that accepts
many benchmark requests concurrently and amortizes all of that warm
state across them:

:mod:`~repro.service.jobs`
    job model (content-addressable :class:`JobSpec` fingerprints, the
    submitted -> queued -> running -> done/failed/cached state machine)
    and the bounded admission queue with priority lanes.
:mod:`~repro.service.pool`
    fixed-size pool of pre-spawned, resettable
    :class:`~repro.team.base.Team` s reused across jobs.
:mod:`~repro.service.cache`
    content-addressed on-disk result cache (LRU-bounded) keyed by the
    spec fingerprint.
:mod:`~repro.service.scheduler`
    dispatcher threads joining the three, with graceful drain.
:mod:`~repro.service.api`
    the in-process :class:`BenchService` facade joining the four.
:mod:`~repro.service.http`
    the one asyncio HTTP/1.1 server (request parser, response writer,
    keep-alive, access log, serve-until-stopped-then-drain loop) behind
    both ``npb serve`` and ``npb shard-serve``.
:mod:`~repro.service.async_api`
    the daemon's routes on that server (``npb serve``): in-flight
    request coalescing keyed by routing key, idempotency-key replays,
    and deficit-round-robin fair admission across tenants, with
    event-driven waiting over the unchanged execution core.
:mod:`~repro.service.client`
    the ``npb submit``/``npb jobs``/``npb loadgen`` HTTP client.
:mod:`~repro.service.shard`
    consistent-hash :class:`ShardCoordinator` scaling the service *out*
    across N worker daemons (``npb shard-serve``, the same server with
    the coordinator's routes), with health probes, route-around
    failover, and aggregated status.
:mod:`~repro.service.loadgen`
    closed-loop traffic harness (``npb loadgen``) appending
    schema-versioned ``LOADGEN_<seq>.json`` records with an SLO verdict
    and a median/spread baseline comparator.
:mod:`~repro.service.chaos`
    deterministic fault injection (``npb chaos``): seeded
    :class:`ChaosPlan` s compiled into per-seam fault schedules, a
    :class:`ChaosInjector` hooked into pool/cache/scheduler/coordinator,
    and :func:`check_invariant` gating the admitted-jobs invariant
    (every admitted job terminal, zero lost, completions bit-identical).
"""

from repro.service.api import BenchService
from repro.service.async_api import (
    AsyncFrontEnd,
    FairAdmission,
    TenantQuotaExceeded,
)
from repro.service.cache import ResultCache
from repro.service.chaos import (
    ChaosInjector,
    ChaosPlan,
    ChaosSpec,
    FaultRule,
    check_invariant,
)
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.http import ServerThread, serve
from repro.service.jobs import (
    JOB_STATES,
    PRIORITIES,
    AdmissionRejected,
    Job,
    JobQueue,
    JobSpec,
    routing_key,
)
from repro.service.pool import PoolClosed, TeamPool
from repro.service.scheduler import Scheduler
from repro.service.shard import HashRing, ShardCoordinator

__all__ = [
    "BenchService",
    "ServiceClient",
    "ServiceUnavailable",
    "AsyncFrontEnd",
    "FairAdmission",
    "TenantQuotaExceeded",
    "ServerThread",
    "serve",
    "ResultCache",
    "ChaosInjector",
    "ChaosPlan",
    "ChaosSpec",
    "FaultRule",
    "check_invariant",
    "AdmissionRejected",
    "Job",
    "JobQueue",
    "JobSpec",
    "routing_key",
    "JOB_STATES",
    "PRIORITIES",
    "PoolClosed",
    "TeamPool",
    "Scheduler",
    "HashRing",
    "ShardCoordinator",
]
