"""``npb loadgen``: traffic harness for the (sharded) job service.

The paper's core result is a curve -- performance as load grows -- and
the service layer deserves the same discipline as the kernels: not one
number but a reproducible load-vs-latency trajectory.  This module
generates **closed-loop** service traffic: a fixed number of concurrent
clients, each issuing its next request the moment the previous one
completes.  Sweeping the concurrency (``--concurrency 1,2,4``) traces
the scaling curve the gpaw benchmark methodology treats as *the*
result.

Requests are drawn from a weighted :class:`TrafficProfile` mix of
benchmark specs.  Each profile names a ``duplicate_fraction``: that
share of requests is cache-eligible (an identical spec resubmitted, the
millions-of-users hot path), while the rest carries ``no_cache`` and
always executes -- so the cache-hit ratio of a run is a measured result
with a known target, not an accident.

Every run appends a schema-versioned ``LOADGEN_<seq>.json`` record next
to the ``BENCH_<seq>.json`` trajectory: per-step p50/p95/p99 latency,
throughput, cache-hit ratio, 429 rate, per-spec and per-shard
breakdowns, and an SLO verdict.  ``npb loadgen --compare`` gates a
candidate record against a baseline by the same rule as the bench
comparator, :func:`repro.harness.stats.verdict`.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

from repro.harness import records
from repro.harness.stats import compare, mad, median, percentile
from repro.service.client import ServiceClient, ServiceUnavailable

#: Version of the LOADGEN_*.json record layout.
#: v2: step ``requests`` blocks carry ``coalesced`` (ok responses that
#: attached to an in-flight job instead of executing -- the async front
#: end's in-flight dedup) and every step carries ``dedup_ratio``
#: (``(cached + coalesced) / ok``: the share of successful requests that
#: cost no execution).  v1 records are migrated on load with zero
#: coalesced and ``dedup_ratio`` equal to the recorded
#: ``cache_hit_ratio`` (before coalescing existed, the cache was the
#: only dedup layer).
SCHEMA_VERSION = 2

#: The ``kind`` tag every record carries (guards against foreign JSON).
RECORD_KIND = "npb-loadgen-record"

#: Trajectory file naming: LOADGEN_0001.json, LOADGEN_0002.json, ...
RECORD_PREFIX = "LOADGEN"

#: The one traffic shape.  Records and curve steps keep naming it (the
#: comparator matches steps by ``(mode, level)``; schema v2 has the key).
MODE = "closed"

#: The comparator's ``bound``: wider than the bench one, because service
#: latency is far noisier (queueing, GC, socket accept jitter).
DEFAULT_TOLERANCE = 0.25


# ===================================================================== #
# traffic mixes
# ===================================================================== #


@dataclass(frozen=True)
class MixEntry:
    """One weighted spec in a traffic mix."""

    benchmark: str
    problem_class: str = "S"
    backend: str = "serial"
    workers: int = 1
    weight: float = 1.0

    @property
    def cell_id(self) -> str:
        return (
            f"{self.benchmark}.{self.problem_class}."
            f"{self.backend}.x{self.workers}"
        )

    def payload(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "problem_class": self.problem_class,
            "backend": self.backend,
            "workers": self.workers,
        }

    @classmethod
    def parse(cls, spec: str) -> "MixEntry":
        """Parse ``BENCH[:CLASS[:BACKEND[:WORKERS]]][@WEIGHT]``.

        ``CG`` alone is CG class S serial x1 at weight 1;
        ``CG:S:threads:2@3`` weights a threaded cell 3x.
        """
        body, _, weight_text = spec.partition("@")
        weight = float(weight_text) if weight_text else 1.0
        if weight <= 0:
            raise ValueError(f"mix weight must be > 0 in {spec!r}")
        parts = body.split(":")
        if not parts[0] or len(parts) > 4:
            raise ValueError(
                f"mix spec {spec!r} is not "
                f"BENCH[:CLASS[:BACKEND[:WORKERS]]][@WEIGHT]"
            )
        return cls(
            benchmark=parts[0].upper(),
            problem_class=(parts[1].upper() if len(parts) > 1 else "S"),
            backend=(parts[2] if len(parts) > 2 else "serial"),
            workers=(int(parts[3]) if len(parts) > 3 else 1),
            weight=weight,
        )


@dataclass(frozen=True)
class TrafficProfile:
    """A named weighted mix plus its duplicate-traffic share."""

    name: str
    entries: tuple[MixEntry, ...]
    #: fraction of requests that are cache-eligible resubmissions of a
    #: mix spec; the remaining requests carry ``no_cache`` and always
    #: execute, modeling unique work
    duplicate_fraction: float
    description: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "duplicate_fraction": self.duplicate_fraction,
            "entries": [
                {"cell": entry.cell_id, "weight": entry.weight}
                for entry in self.entries
            ],
        }


#: Built-in traffic profiles (``npb loadgen --profile``).
PROFILES: dict[str, TrafficProfile] = {
    "smoke": TrafficProfile(
        name="smoke",
        entries=(MixEntry("CG"), MixEntry("MG")),
        duplicate_fraction=0.75,
        description="duplicate-heavy CG/MG class-S mix for CI smoke runs",
    ),
    "cache-heavy": TrafficProfile(
        name="cache-heavy",
        entries=(MixEntry("CG"), MixEntry("MG"), MixEntry("FT")),
        duplicate_fraction=0.9,
        description="the millions-of-users shape: almost all repeat work",
    ),
    "mixed": TrafficProfile(
        name="mixed",
        entries=(
            MixEntry("CG"),
            MixEntry("MG"),
            MixEntry("FT"),
            MixEntry("IS"),
            MixEntry("EP", weight=0.5),
        ),
        duplicate_fraction=0.3,
        description="broad benchmark blend, mostly unique work",
    ),
}


def parse_mix(text: str, duplicate_fraction: float = 0.5) -> TrafficProfile:
    """Build a custom profile from comma-separated :meth:`MixEntry.parse`
    specs (``CG:S:serial:1@2,MG``)."""
    entries = tuple(
        MixEntry.parse(part) for part in text.split(",") if part.strip()
    )
    if not entries:
        raise ValueError(f"empty traffic mix {text!r}")
    if not 0.0 <= duplicate_fraction <= 1.0:
        raise ValueError("duplicate_fraction must be in [0, 1]")
    return TrafficProfile(
        name="custom",
        entries=entries,
        duplicate_fraction=duplicate_fraction,
        description=f"custom mix {text}",
    )


class RequestSampler:
    """Deterministic, thread-safe stream of submission payloads."""

    def __init__(self, profile: TrafficProfile, seed: int = 0):
        self.profile = profile
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._weights = [entry.weight for entry in profile.entries]

    def next_request(self) -> tuple[str, dict]:
        """``(cell_id, payload)`` for the next request."""
        with self._lock:
            (entry,) = self._rng.choices(
                self.profile.entries, weights=self._weights
            )
            duplicate = self._rng.random() < self.profile.duplicate_fraction
        payload = entry.payload()
        payload["wait"] = True
        # Cache-eligible duplicates model repeat traffic; the rest is
        # forced-unique work so the hit ratio has a known target.
        payload["no_cache"] = not duplicate
        return entry.cell_id, payload


# ===================================================================== #
# request execution and accounting
# ===================================================================== #


@dataclass(frozen=True)
class RequestOutcome:
    """One completed (or failed) request, as the accounting sees it."""

    cell_id: str
    #: "ok" | "rejected" (429 after retries) | "failed" | "unreachable"
    status: str
    code: int
    cache_hit: bool
    latency_seconds: float
    #: shard that served it (None when not behind a coordinator)
    shard: str | None = None
    #: True when the coordinator routed around a dead shard
    degraded: bool = False
    #: True when the response was coalesced onto an in-flight job
    #: (``coalesced_with`` present)
    coalesced: bool = False
    #: job id of the admitted job (None for 429/unreachable)
    job_id: str | None = None
    #: trace id when the request was traced (``--trace`` runs)
    trace_id: str | None = None
    #: the full response body (None when ``submit`` raised)
    body: dict | None = None
    #: ``"<ExceptionType>: <message>"`` when ``submit`` raised
    error: str | None = None


def issue_request(submit, cell_id: str, payload: dict) -> RequestOutcome:
    """Time one request through ``submit(payload) -> (code, body)``;
    whatever ``submit`` raises is recorded on the outcome, never raised."""
    start = time.perf_counter()
    try:
        code, body = submit(payload)
    except Exception as exc:
        unreachable = isinstance(exc, ServiceUnavailable)
        return RequestOutcome(
            cell_id=cell_id,
            status="unreachable" if unreachable else "failed",
            code=0,
            cache_hit=False,
            latency_seconds=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
        )
    latency = time.perf_counter() - start
    if code in (200, 202) and body.get("state") != "failed":
        status = "ok"
    else:
        status = "rejected" if code == 429 else "failed"
    routing = body.get("routing") or {}
    result = body.get("result") or {}
    return RequestOutcome(
        cell_id=cell_id,
        status=status,
        code=code,
        cache_hit=status == "ok" and bool(body.get("cache_hit")),
        latency_seconds=latency,
        shard=routing.get("served_by"),
        degraded=bool(routing.get("degraded")),
        coalesced=body.get("coalesced_with") is not None,
        job_id=body.get("job_id"),
        trace_id=body.get("trace_id") or result.get("trace_id"),
        body=body,
    )


def closed_loop(
    one, total: int, concurrency: int, duration_seconds: float | None = None
) -> tuple[list, float]:
    """The closed loop under :func:`run_closed_loop`: ``concurrency``
    threads each take the next index of ``range(total)`` and call
    ``one(index)``, back to back, until the indices (or the optional
    duration) run out.  Returns what ``one`` returned, in index order,
    and the wall time; if ``one`` raised, the first exception once every
    worker has finished."""
    if total < 1:
        raise ValueError("total must be >= 1")
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    results: list = [None] * total
    errors: list[BaseException] = []
    indices = iter(range(total))
    lock = threading.Lock()
    started = time.perf_counter()
    deadline = None if duration_seconds is None else started + duration_seconds

    def worker() -> None:
        try:
            while deadline is None or time.perf_counter() < deadline:
                with lock:
                    index = next(indices, None)
                if index is None:
                    return
                results[index] = one(index)
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, daemon=True, name=f"npb-closed-loop-{i}")
        for i in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    done = [result for result in results if result is not None]
    return done, time.perf_counter() - started


def run_closed_loop(
    submit,
    sampler: RequestSampler,
    concurrency: int,
    total_requests: int,
    duration_seconds: float | None = None,
) -> tuple[list[RequestOutcome], float]:
    """Fixed-concurrency traffic: each worker issues back-to-back.

    Stops after ``total_requests`` (or the optional duration cap,
    whichever comes first) and returns the outcomes plus wall time.
    """

    def one(_index: int) -> RequestOutcome:
        return issue_request(submit, *sampler.next_request())

    return closed_loop(one, total_requests, concurrency, duration_seconds)


def summarize_outcomes(
    outcomes: list[RequestOutcome], elapsed_seconds: float
) -> dict:
    """Aggregate one step's outcomes into the recorded metrics."""
    counts = {
        "total": len(outcomes),
        "ok": 0,
        "executed": 0,
        "cached": 0,
        "coalesced": 0,
        "rejected_429": 0,
        "failed": 0,
        "unreachable": 0,
        "degraded": 0,
    }
    ok_latencies: list[float] = []
    by_cell: dict[str, dict] = {}
    by_shard: dict[str, int] = {}
    for outcome in outcomes:
        cell = by_cell.setdefault(
            outcome.cell_id,
            {"requests": 0, "ok": 0, "cached": 0, "latencies": []},
        )
        cell["requests"] += 1
        if outcome.degraded:
            counts["degraded"] += 1
        if outcome.shard is not None:
            by_shard[outcome.shard] = by_shard.get(outcome.shard, 0) + 1
        if outcome.status == "ok":
            counts["ok"] += 1
            cell["ok"] += 1
            ok_latencies.append(outcome.latency_seconds)
            cell["latencies"].append(outcome.latency_seconds)
            if outcome.cache_hit:
                counts["cached"] += 1
                cell["cached"] += 1
            elif outcome.coalesced:
                # Attached to an in-flight job: no execution paid for
                # this request, but no cache hit either.
                counts["coalesced"] += 1
            else:
                counts["executed"] += 1
        elif outcome.status == "rejected":
            counts["rejected_429"] += 1
        elif outcome.status == "unreachable":
            counts["unreachable"] += 1
        else:
            counts["failed"] += 1
    for cell in by_cell.values():
        latencies = cell.pop("latencies")
        cell["p50_seconds"] = median(latencies) if latencies else None
    total = max(counts["total"], 1)
    latency = None
    if ok_latencies:
        latency = {
            "samples": len(ok_latencies),
            "p50": percentile(ok_latencies, 50),
            "p95": percentile(ok_latencies, 95),
            "p99": percentile(ok_latencies, 99),
            "mean": sum(ok_latencies) / len(ok_latencies),
            "min": min(ok_latencies),
            "max": max(ok_latencies),
            "mad": mad(ok_latencies),
        }
    return {
        "elapsed_seconds": elapsed_seconds,
        "requests": counts,
        "latency_seconds": latency,
        "throughput_rps": counts["ok"] / max(elapsed_seconds, 1e-9),
        "cache_hit_ratio": counts["cached"] / max(counts["ok"], 1),
        # Share of successful requests that cost no execution at all:
        # cache hits plus in-flight coalesced attachments.
        "dedup_ratio": (
            (counts["cached"] + counts["coalesced"]) / max(counts["ok"], 1)
        ),
        "rate_429": counts["rejected_429"] / total,
        "error_rate": (counts["failed"] + counts["unreachable"]) / total,
        "by_cell": by_cell,
        "by_shard": by_shard,
    }


# ===================================================================== #
# SLO verdict
# ===================================================================== #


@dataclass(frozen=True)
class SLOPolicy:
    """Bounds a step's metrics must satisfy for the verdict to pass."""

    #: fraction of requests allowed to fail or find no service
    max_error_rate: float = 0.0
    #: fraction of requests allowed to stay rejected after retries --
    #: shedding is legitimate backpressure, but a mostly-shedding run
    #: is not serving its load
    max_429_rate: float = 0.5
    #: p95 latency bound in seconds (None: not checked)
    max_p95_seconds: float | None = None
    #: minimum cache-hit ratio (None: not checked)
    min_cache_hit_ratio: float | None = None
    #: minimum dedup ratio -- cached + coalesced over ok (None: not
    #: checked); the loadgen-smoke CI gate pins this
    min_dedup_ratio: float | None = None
    #: at least this many requests must complete ok
    min_ok: int = 1

    def as_dict(self) -> dict:
        return {
            "max_error_rate": self.max_error_rate,
            "max_429_rate": self.max_429_rate,
            "max_p95_seconds": self.max_p95_seconds,
            "min_cache_hit_ratio": self.min_cache_hit_ratio,
            "min_dedup_ratio": self.min_dedup_ratio,
            "min_ok": self.min_ok,
        }


def evaluate_slo(metrics: dict, policy: SLOPolicy) -> dict:
    """Check one step's metrics against the policy bounds."""
    checks = [
        {
            "name": "error_rate",
            "value": metrics["error_rate"],
            "bound": policy.max_error_rate,
            "pass": metrics["error_rate"] <= policy.max_error_rate,
        },
        {
            "name": "rate_429",
            "value": metrics["rate_429"],
            "bound": policy.max_429_rate,
            "pass": metrics["rate_429"] <= policy.max_429_rate,
        },
        {
            "name": "min_ok",
            "value": metrics["requests"]["ok"],
            "bound": policy.min_ok,
            "pass": metrics["requests"]["ok"] >= policy.min_ok,
        },
    ]
    if policy.max_p95_seconds is not None:
        p95 = (metrics["latency_seconds"] or {}).get("p95")
        checks.append(
            {
                "name": "p95_seconds",
                "value": p95,
                "bound": policy.max_p95_seconds,
                "pass": p95 is not None and p95 <= policy.max_p95_seconds,
            }
        )
    if policy.min_cache_hit_ratio is not None:
        checks.append(
            {
                "name": "cache_hit_ratio",
                "value": metrics["cache_hit_ratio"],
                "bound": policy.min_cache_hit_ratio,
                "pass": (
                    metrics["cache_hit_ratio"] >= policy.min_cache_hit_ratio
                ),
            }
        )
    if policy.min_dedup_ratio is not None:
        checks.append(
            {
                "name": "dedup_ratio",
                "value": metrics["dedup_ratio"],
                "bound": policy.min_dedup_ratio,
                "pass": metrics["dedup_ratio"] >= policy.min_dedup_ratio,
            }
        )
    return {"pass": all(check["pass"] for check in checks), "checks": checks}


# ===================================================================== #
# full runs and the LOADGEN_<seq>.json trajectory
# ===================================================================== #


@dataclass(frozen=True)
class LoadgenConfig:
    """Everything a run needs beyond the target URL."""

    profile: TrafficProfile
    #: concurrency levels; one record step -- one point on the scaling
    #: curve -- per level
    levels: tuple[float, ...] = (2,)
    requests_per_step: int = 20
    duration_seconds: float | None = None
    seed: int = 0
    #: 429 retries per request (Retry-After honored by ServiceClient)
    retries: int = 3
    #: tenant id stamped on every request (X-NPB-Tenant); None = none
    tenant: str | None = None
    #: trace every request and surface the slowest one per step; the
    #: span overhead makes this a diagnosis mode, not a bench default
    trace: bool = False
    slo: SLOPolicy = field(default_factory=SLOPolicy)

    def as_dict(self) -> dict:
        return {
            "profile": self.profile.as_dict(),
            "mode": MODE,
            "levels": list(self.levels),
            "requests_per_step": self.requests_per_step,
            "duration_seconds": self.duration_seconds,
            "seed": self.seed,
            "retries": self.retries,
            "tenant": self.tenant,
            "trace": self.trace,
            "slo": self.slo.as_dict(),
        }


def run_step(submit, config: LoadgenConfig, index: int) -> dict:
    """Run one curve step (one level) and summarize it."""
    level = config.levels[index]
    sampler = RequestSampler(config.profile, seed=config.seed + index)
    outcomes, elapsed = run_closed_loop(
        submit,
        sampler,
        concurrency=int(level),
        total_requests=config.requests_per_step,
        duration_seconds=config.duration_seconds,
    )
    metrics = summarize_outcomes(outcomes, elapsed)
    metrics["mode"] = MODE
    metrics["level"] = level
    metrics["slo"] = evaluate_slo(metrics, config.slo)
    if config.trace:
        metrics["slowest_trace"] = slowest_traced_request(outcomes)
    return metrics


def slowest_traced_request(outcomes: list[RequestOutcome]) -> dict | None:
    """The slowest traced ok request of a step -- the one worth reading.

    Every request of a ``--trace`` step carries a trace; surfacing the
    slowest one's ids lets ``npb trace <job_id>`` answer "where did the
    p100 go" without hunting through the span store.
    """
    candidates = [
        outcome
        for outcome in outcomes
        if outcome.status == "ok" and outcome.trace_id is not None
    ]
    if not candidates:
        return None
    slowest = max(candidates, key=lambda outcome: outcome.latency_seconds)
    return {
        "job_id": slowest.job_id,
        "trace_id": slowest.trace_id,
        "latency_seconds": slowest.latency_seconds,
    }


def run_loadgen(
    url: str,
    config: LoadgenConfig,
    timeout: float = 600.0,
    progress=None,
) -> dict:
    """Run the whole curve against ``url`` and build the record.

    Raises :class:`ServiceUnavailable` if the service cannot even answer
    /status before the run starts (so an absent daemon is a usage error,
    not a 100%-unreachable 'result').
    """
    from repro.harness.bench import environment_fingerprint

    client = ServiceClient(url, timeout=timeout)
    client.status()  # reachability gate; raises ServiceUnavailable
    headers = (
        None if config.tenant is None else {"X-NPB-Tenant": config.tenant}
    )

    def submit(payload: dict) -> tuple[int, dict]:
        if config.trace:
            payload = dict(payload, trace=True)
        return client.submit(payload, retries=config.retries, headers=headers)

    steps = []
    for index, level in enumerate(config.levels):
        if progress is not None:
            progress(
                f"  loadgen {MODE} level={level:g} "
                f"({config.profile.name}, step {index + 1}/"
                f"{len(config.levels)})"
            )
        steps.append(run_step(submit, config, index))
    return {
        "kind": RECORD_KIND,
        "schema_version": SCHEMA_VERSION,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": environment_fingerprint(),
        "url": url,
        "config": config.as_dict(),
        "curve": steps,
        "slo_pass": all(step["slo"]["pass"] for step in steps),
    }


def next_sequence(directory: str = ".") -> int:
    """1 + the highest LOADGEN_<seq>.json already in ``directory``."""
    return records.next_sequence(directory, RECORD_PREFIX)


def write_record(
    record: dict, directory: str = ".", path: str | None = None
) -> str:
    """Write ``record``; default name continues the trajectory sequence.

    Sequence numbers are claimed atomically (``O_EXCL`` create-and-retry
    in :mod:`repro.harness.records`), so two runs appending to the same
    directory concurrently never overwrite each other's record.
    """
    if path is None:
        return records.append_record(record, directory, RECORD_PREFIX)
    return records.write_json_record(record, path)


def latest_record_path(directory: str = ".") -> str | None:
    """Path of the highest-sequence LOADGEN_<seq>.json, if any."""
    return records.latest_record_path(directory, RECORD_PREFIX)


def load_record(path: str) -> dict:
    """Load and sanity-check one loadgen record."""
    return records.load_record(
        path, RECORD_KIND, SCHEMA_VERSION, "npb loadgen", _migrate_record
    )


def _migrate_record(record: dict, version: int) -> dict:
    """Upgrade an older-schema record in memory (never rewritten on disk)."""
    if version < 2:
        # v1 predates in-flight coalescing: the cache was the only dedup
        # layer, so zero coalesced and dedup_ratio == cache_hit_ratio is
        # the faithful migration.
        for step in record.get("curve", []):
            step.get("requests", {}).setdefault("coalesced", 0)
            step.setdefault("dedup_ratio", step.get("cache_hit_ratio", 0.0))
    if version < SCHEMA_VERSION:
        record["schema_version"] = SCHEMA_VERSION
    return record


# ===================================================================== #
# comparator (the SLO gate)
# ===================================================================== #


def compare_records(
    baseline: dict, candidate: dict, tolerance: float = DEFAULT_TOLERANCE
) -> dict:
    """Judge each shared step's p50/p95/p99 and throughput by
    :func:`stats.compare`, one-sample lists because a record is one run;
    ``slo_failed`` lists the shared steps whose candidate SLO failed."""

    def steps(record: dict) -> dict:
        return {f"{s['mode']}@{s['level']:g}": s for s in record["curve"]}

    def samples(steps: dict) -> dict:
        out = {}
        for label, step in steps.items():
            latency = step.get("latency_seconds") or {}
            for name in ("p50", "p95", "p99"):
                value = latency.get(name)
                out[f"{label} latency_{name}"] = [] if value is None else [value]
            out[f"{label} throughput_rps"] = [float(step["throughput_rps"])]
        return out

    base, cand = steps(baseline), steps(candidate)
    comparison = compare(
        samples(base),
        samples(cand),
        lambda key: "higher" if key.endswith("throughput_rps") else "lower",
        tolerance,
    )
    comparison["slo_failed"] = [
        k for k in cand if k in base and not cand[k]["slo"]["pass"]
    ]
    return comparison
