"""Command-line interface (``npb`` console script / ``python -m repro``).

Subcommands::

    npb run BT -c S -b process -w 4    run one benchmark (--json for a
                                       structured run record)
    npb verify -c S                    run + verify the whole suite
    npb profile LU -c S                per-region overhead breakdown
    npb bench --quick --repeat 3       append a BENCH_<seq>.json record
                                       to the perf trajectory
    npb bench --compare BASE.json      median/spread regression gate
    npb table 3 [--measured] [-c A]    regenerate a paper table
    npb tables [--measured]            regenerate all seven tables
    npb serve --pool 2 --port 8642     long-lived benchmark job service
                                       (queue + warm team pool + cache)
    npb shard-serve --spawn 2          consistent-hash coordinator over N
                                       worker daemons (spawned or --shard
                                       URL); same HTTP API as serve
    npb submit CG -c S --url URL       submit a job to a running service
    npb jobs [JOB_ID] --url URL        service status / job inspection
    npb loadgen --url URL -C 1,2,4     closed-loop traffic harness;
                                       appends LOADGEN_<seq>.json records
    npb loadgen --compare BASE.json    median/spread SLO/latency gate
    npb chaos --seed 7 --shards 2      deterministic fault-injection run:
                                       loadgen mix against a spawned
                                       sharded service under a seeded
                                       fault schedule; checks the
                                       admitted-jobs invariant and
                                       appends a CHAOS_<seq>.json record
    npb list                           list benchmarks and classes

Exit codes
----------
The single authoritative table -- every subcommand returns one of these
(asserted by ``tests/harness/test_cli_verify.py``):

====  =================================================================
code  meaning
====  =================================================================
0     success (``EXIT_OK``): ran, verified, no compared row worse
1     failure (``EXIT_FAILURE``): verification failed, a compared row
      is worse, a bench cell was unverified, or a submitted job failed
2     usage (``EXIT_USAGE``): bad arguments (argparse), missing
      comparison candidate, or an unreachable service daemon
3     unrecoverable worker failure (``EXIT_WORKER_FAILURE``): a
      :class:`~repro.runtime.dispatch.WorkerError` escaped the fault-
      tolerance machinery (remote traceback printed)
4     admission rejected (``EXIT_REJECTED``): the service queue is full
      or draining (HTTP 429); back off and resubmit
====  =================================================================
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import available_benchmarks, run_benchmark
from repro.common.params import CLASS_ORDER
from repro.harness.bench import DEFAULT_TOLERANCE
from repro.harness.report import compare_table, format_table, region_profile_table
from repro.harness.tables import MEASURED_TABLES, TABLES, generate_table
from repro.runtime.dispatch import FaultPolicy, WorkerError

#: Exit-code table (documented in the module docstring above; keep the
#: two in sync -- the tests assert both).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_WORKER_FAILURE = 3
EXIT_REJECTED = 4

#: Default address of the ``npb serve`` daemon.
DEFAULT_SERVICE_URL = "http://127.0.0.1:8642"

#: Default listen port of the ``npb shard-serve`` coordinator.
DEFAULT_COORDINATOR_PORT = 8640

#: Built-in loadgen traffic profile names.  Mirrored here (instead of
#: importing repro.service.loadgen at parser-build time) so `npb --help`
#: stays cheap; tests/service/test_loadgen.py asserts the two stay in
#: sync with repro.service.loadgen.PROFILES.
LOADGEN_PROFILES = ("cache-heavy", "mixed", "smoke")


def _fault_policy(args) -> FaultPolicy | None:
    """Build a FaultPolicy from --dispatch-timeout/--max-retries, if given."""
    timeout = getattr(args, "dispatch_timeout", None)
    retries = getattr(args, "max_retries", None)
    if timeout is None and retries is None:
        return None
    kwargs = {}
    if timeout is not None:
        kwargs["dispatch_timeout"] = timeout
    if retries is not None:
        kwargs["max_retries"] = retries
    return FaultPolicy(**kwargs)


def _fault_lines(result) -> str:
    """Per-event fault report lines for the text output."""
    return "\n".join(
        f"  fault: {e['kind']} backend={e['backend']} "
        f"region={e['region']} rank={e['rank']}: {e['detail']}"
        for e in result.faults)


def _cmd_run(args) -> int:
    result = run_benchmark(args.benchmark.upper(), args.problem_class,
                           args.backend, args.workers,
                           policy=_fault_policy(args))
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.banner())
        if args.verbose:
            print(result.verification.summary())
        if result.faults:
            print(_fault_lines(result), file=sys.stderr)
    return 0 if result.verified else 1


def _cmd_verify(args) -> int:
    failures = 0
    records = []
    for name in available_benchmarks():
        result = run_benchmark(name, args.problem_class, args.backend,
                               args.workers, policy=_fault_policy(args))
        if args.json:
            records.append(result.to_dict())
        else:
            status = "ok  " if result.verified else "FAIL"
            faults = (f"  [{len(result.faults)} fault(s)]"
                      if result.faults else "")
            print(f"[{status}] {name}.{args.problem_class}  "
                  f"{result.time_seconds:8.2f}s  {result.mops:10.1f} Mop/s"
                  f"{faults}")
            if not result.verified:
                print(result.verification.summary())
        if not result.verified:
            failures += 1
    if args.json:
        print(json.dumps(records, indent=2))
    return 1 if failures else 0


def _cmd_profile(args) -> int:
    import tracemalloc

    from repro.core.registry import get_benchmark
    from repro.team import make_team

    cls = get_benchmark(args.benchmark.upper())
    if args.alloc and not tracemalloc.is_tracing():
        tracemalloc.start()
    try:
        with make_team(args.backend, args.workers,
                       policy=_fault_policy(args)) as team:
            result = cls(args.problem_class, team).run()
            plan_info = team.plan.cache_info()
    finally:
        if args.alloc and tracemalloc.is_tracing():
            tracemalloc.stop()
    if args.json:
        record = result.to_dict()
        record["plan_cache"] = plan_info
        print(json.dumps(record, indent=2))
    else:
        print(format_table(region_profile_table(result, plan_info)))
        if result.faults:
            print(_fault_lines(result), file=sys.stderr)
    return 0 if result.verified else 1


def _cmd_bench(args) -> int:
    from repro.harness import bench
    from repro.harness.report import bench_record_table

    if args.compare:
        baseline = bench.load_record(args.compare)
        candidate_path = args.candidate or bench.latest_record_path(args.dir)
        if candidate_path is None:
            print(f"no BENCH_*.json candidate found in {args.dir!r}; "
                  f"run 'npb bench' first or pass a candidate path",
                  file=sys.stderr)
            return EXIT_USAGE
        candidate = bench.load_record(candidate_path)
        comparison = bench.compare_records(
            baseline, candidate, tolerance=args.tolerance)
        print(json.dumps(comparison, indent=2) if args.json
              else format_table(compare_table(comparison)))
        return 1 if comparison["counts"]["worse"] else 0

    if args.cells:
        try:
            cells = [bench.BenchCell.parse(spec)
                     for spec in args.cells.split(",")]
        except ValueError as exc:
            print(f"npb bench: --cells: {exc}", file=sys.stderr)
            return EXIT_USAGE
        kernels = []
    elif args.quick:
        cells = bench.QUICK_CELLS
        kernels = bench.QUICK_KERNELS
    else:
        cells = bench.FULL_CELLS
        kernels = bench.FULL_KERNELS
    if args.no_kernels:
        kernels = []
    progress = None if args.json else print
    record = bench.run_suite(cells, kernels, repeat=args.repeat,
                             quick=args.quick, progress=progress,
                             trace_alloc=args.alloc)
    path = bench.write_record(record, directory=args.dir, path=args.out)
    if args.json:
        print(json.dumps(bench.load_record(path), indent=2))
    else:
        print(format_table(bench_record_table(bench.load_record(path))))
        print(f"wrote {path}")
    unverified = [cell["id"] for cell in record["cells"]
                  if not cell["verified"]]
    if unverified:
        print("UNVERIFIED cells: " + ", ".join(unverified), file=sys.stderr)
        return 1
    return 0


def _serve_until_signal(app, args, announce, draining: str, on_stop):
    """Serve ``app`` until SIGTERM/SIGINT, then drain (serve, shard-serve).

    ``on_stop`` is the drain: a coroutine function run after the
    listener closes, while open connections still get their answers;
    its result is returned.
    """
    import asyncio
    import signal

    from repro.service.http import serve

    async def main():
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()

        def _handle() -> None:
            if not stop.is_set():
                print(draining, flush=True)
            stop.set()

        loop.add_signal_handler(signal.SIGTERM, _handle)
        loop.add_signal_handler(signal.SIGINT, _handle)
        return await serve(app, args.host, args.port, announce, stop,
                           on_stop=on_stop, verbose=args.verbose)

    return asyncio.run(main())


def _cmd_serve(args) -> int:
    from repro.service import AsyncFrontEnd, BenchService, http

    weights = {}
    for spec in args.tenant_weight or []:
        name, sep, value = spec.partition("=")
        if not sep:
            print(f"npb serve: --tenant-weight {spec!r} is not NAME=WEIGHT",
                  file=sys.stderr)
            return EXIT_USAGE
        try:
            weights[name] = float(value)
        except ValueError:
            print(f"npb serve: --tenant-weight {spec!r} has a non-numeric "
                  f"weight", file=sys.stderr)
            return EXIT_USAGE

    chaos = None
    if getattr(args, "chaos_seed", None) is not None:
        from repro.service.chaos import ChaosInjector, ChaosPlan, service_preset

        chaos = ChaosInjector(ChaosPlan.compile(service_preset(), args.chaos_seed))
    service = BenchService(
        backend=args.backend, workers=args.workers,
        pool_size=args.pool, queue_depth=args.queue_depth,
        cache_dir=args.cache_dir, cache_entries=args.cache_entries,
        policy=_fault_policy(args),
        chaos=chaos,
        trace_sample=getattr(args, "trace_sample", 0.0))
    frontend = AsyncFrontEnd(service, window=args.admission_window,
                             quota=args.tenant_quota, weights=weights or None)

    def announce(url: str) -> None:
        http.announce(
            "service", url,
            f"pool {args.pool}x {args.backend} x{args.workers}, "
            f"queue depth {args.queue_depth}, cache {args.cache_dir}")
        if chaos is not None:
            print(f"npb service chaos enabled (seed {args.chaos_seed}, "
                  f"{len(chaos.plan.faults())} planned faults)", flush=True)

    # Graceful drain: stop accepting connections, finish every admitted
    # job, close all teams, then exit 0 so supervisors see a clean stop.
    clean = _serve_until_signal(
        frontend, args, announce,
        "npb service draining (finishing admitted jobs, rejecting new "
        "submissions)...",
        on_stop=lambda: frontend.drain(args.drain_timeout))
    print(f"npb service drained "
          f"{'cleanly' if clean else 'with stuck dispatchers'}", flush=True)
    return EXIT_OK if clean else EXIT_FAILURE


def _cmd_shard_serve(args) -> int:
    import asyncio

    from repro.service import ServiceUnavailable, http, shard

    shards = {}
    for i, spec in enumerate(args.shard or []):
        name, sep, url = spec.partition("=")
        if not sep:
            name, url = f"shard{i}", spec
        if name in shards:
            print(f"npb shard-serve: duplicate shard name {name!r}",
                  file=sys.stderr)
            return EXIT_USAGE
        shards[name] = url

    children = []
    for i in range(args.spawn):
        name = f"shard{len(shards)}"
        try:
            child, shards[name] = shard.spawn_shard(
                name, trace_sample=args.trace_sample, **_pool_options(args))
        except ServiceUnavailable as exc:
            print(f"npb shard-serve: {exc}", file=sys.stderr)
            shard.drain_children(children, args.drain_timeout)
            return EXIT_USAGE
        children.append(child)
    if not shards:
        print("npb shard-serve: no shards (pass --shard URL and/or "
              "--spawn N)", file=sys.stderr)
        return EXIT_USAGE

    coordinator = shard.ShardCoordinator(
        shards, replicas=args.replicas,
        health_interval=args.health_interval,
        trace_sample=args.trace_sample)
    coordinator.start()
    roster = ", ".join(f"{name}={url}" for name, url in shards.items())

    clean = _serve_until_signal(
        coordinator, args,
        lambda url: http.announce("coordinator", url, f"shards: {roster}"),
        "npb coordinator draining (stopping routing, signaling spawned "
        "shards)...",
        # the spawned shards' own drains answer the submissions still
        # parked on them (external --shard daemons are not ours to stop)
        on_stop=lambda: asyncio.to_thread(
            shard.drain_children, children, args.drain_timeout))
    coordinator.close()
    print(f"npb coordinator drained "
          f"{'cleanly' if clean else 'with killed shards'}", flush=True)
    return EXIT_OK if clean else EXIT_FAILURE


def _cmd_chaos(args) -> int:
    from repro.service import ServiceUnavailable, chaos

    try:
        record = chaos.run_chaos(
            seed=args.seed, shards=args.shards, requests=args.requests,
            concurrency=args.concurrency, profile=args.profile,
            spawn=_pool_options(args),
            say=(lambda line: None) if args.json else print)
    except (ServiceUnavailable, ValueError) as exc:
        print(f"npb chaos: {exc}", file=sys.stderr)
        return EXIT_USAGE
    path = chaos.write_record(record, directory=args.dir, path=args.out)
    verdict = record["invariant"]

    if args.json:
        print(json.dumps(chaos.load_record(path), indent=2))
    else:
        for check in verdict["checks"]:
            flag = "ok  " if check["pass"] else "FAIL"
            print(f"[{flag}] {check['name']}: {check['detail']}")
        counts = verdict["counts"]
        print(f"jobs: {counts['done']} done, {counts['cached']} cached, "
              f"{counts['failed']} failed, "
              f"{counts['rejected_429']} rejected, "
              f"{counts['unroutable_503']} unroutable, "
              f"{counts['lost']} lost "
              f"({counts['degraded']} degraded routes)")
        print(f"fault kinds injected: "
              f"{', '.join(record['fault_kinds']) or 'none'}")
        print(f"wrote {path}")
    if len(record["fault_kinds"]) < args.min_fault_kinds:
        print(f"npb chaos: only {len(record['fault_kinds'])} distinct "
              f"fault kinds injected (need {args.min_fault_kinds}); "
              f"raise --requests or change --seed", file=sys.stderr)
        return EXIT_FAILURE
    if not verdict["pass"]:
        print("npb chaos: admitted-jobs invariant VIOLATED",
              file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def _job_summary(job: dict) -> str:
    lines = [f"job {job['job_id']}  state={job['state']}  "
             f"spec={job['spec']['benchmark']}."
             f"{job['spec']['problem_class']}."
             f"{job['spec']['backend']}.x{job['spec']['workers']}  "
             f"cache_hit={job['cache_hit']}  "
             f"queue_wait={job['queue_wait_seconds']:.4f}s"]
    result = job.get("result")
    if result:
        lines.append(f"  time={result['time_seconds']:.4f}s  "
                     f"mops={result['mops']:.1f}  "
                     f"verified={result['verified']}")
    if job.get("error"):
        lines.append(f"  error: {job['error'].splitlines()[-1]}")
    return "\n".join(lines)


def _cmd_submit(args) -> int:
    from repro.service import ServiceClient, ServiceUnavailable

    client = ServiceClient(args.url, timeout=args.timeout)
    payload = {
        "benchmark": args.benchmark,
        "problem_class": args.problem_class,
        "backend": args.backend,
        "workers": args.workers,
        "priority": args.priority,
        "no_cache": args.no_cache,
        "wait": not args.no_wait,
    }
    if args.trace:
        payload["trace"] = True
    if args.dispatch_timeout is not None:
        payload["dispatch_timeout"] = args.dispatch_timeout
    if args.max_retries is not None:
        payload["max_retries"] = args.max_retries
    headers = {}
    if args.idempotency_key is not None:
        headers["Idempotency-Key"] = args.idempotency_key
    if args.tenant is not None:
        headers["X-NPB-Tenant"] = args.tenant
    try:
        code, body = client.submit(payload, retries=args.retries,
                                   headers=headers or None)
    except ServiceUnavailable as exc:
        print(f"npb submit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if code == 429:
        print(f"npb submit: admission rejected after {args.retries} "
              f"retr{'y' if args.retries == 1 else 'ies'}: "
              f"{body.get('error')}", file=sys.stderr)
        return EXIT_REJECTED
    if code not in (200, 202):
        print(f"npb submit: HTTP {code}: {body.get('error')}",
              file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps(body, indent=2))
    else:
        print(_job_summary(body))
    if args.trace and body.get("job_id") and not args.json:
        print(f"traced: npb trace {body['job_id']} --url {args.url}")
    if args.no_wait:
        return EXIT_OK
    if body.get("state") == "failed":
        return EXIT_FAILURE
    result = body.get("result") or {}
    return EXIT_OK if result.get("verified") else EXIT_FAILURE


def _cmd_jobs(args) -> int:
    from repro.service import ServiceClient, ServiceUnavailable

    client = ServiceClient(args.url, timeout=args.timeout)
    try:
        if args.job_id:
            code, body = client.job(args.job_id)
            if code in (404, 410):
                gone = "expired" if code == 410 else "unknown"
                print(f"npb jobs: {gone} job {args.job_id!r}",
                      file=sys.stderr)
                return EXIT_FAILURE
            print(json.dumps(body, indent=2) if args.json
                  else _job_summary(body))
            return EXIT_OK
        code, status = client.status()
        _, listing = client.jobs()
    except ServiceUnavailable as exc:
        print(f"npb jobs: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps({"status": status, **listing}, indent=2))
        return EXIT_OK
    if status.get("service") == "npb-shard-coordinator":
        totals = status["totals"]
        routing = status["routing"]
        health = "degraded" if status["degraded"] else "healthy"
        print(f"coordinator up {status['uptime_seconds']:.1f}s  "
              f"{status['healthy_shards']}/{status['shard_count']} shards "
              f"({health})")
        print(f"queue   depth {totals['queue_depth']}"
              f"/{totals['queue_capacity']}")
        print(f"pool    {totals['pool_in_use']}/{totals['pool_size']} in use")
        print(f"cache   {totals['cache_entries']} entries "
              f"({totals['cache_hits']} hits / "
              f"{totals['cache_misses']} misses)")
        print(f"sched   {totals['executed']} executed, "
              f"{totals['cached']} cached, {totals['failed']} failed")
        print(f"routing {routing['submitted']} submitted, "
              f"{routing['failovers']} failovers, "
              f"{routing['unroutable']} unroutable")
        for job in listing.get("jobs", []):
            print(_job_summary(job))
        return EXIT_OK
    queue = status["queue"]
    pool = status["pool"]
    cache = status["cache"]
    sched = status["scheduler"]
    print(f"service up {status['uptime_seconds']:.1f}s  "
          f"draining={status['draining']}")
    print(f"queue   depth {queue['depth']}/{queue['capacity']}")
    print(f"pool    {pool['in_use']}/{pool['size']} in use "
          f"({pool['backend']} x{pool['workers']}, "
          f"{pool['leases']} leases, {pool['cold_spawns']} cold, "
          f"{pool['replacements']} replaced)")
    print(f"cache   {cache['entries']} entries, "
          f"hit rate {cache['hit_rate']:.0%} "
          f"({cache['hits']} hits / {cache['misses']} misses)")
    print(f"sched   {sched['executed']} executed, {sched['cached']} cached, "
          f"{sched['failed']} failed, faults={sched['fault_counts']}")
    for job in listing.get("jobs", []):
        print(_job_summary(job))
    return EXIT_OK


def _cmd_trace(args) -> int:
    from repro.obs.export import (
        build_trace_record,
        latest_trace_record_path,
        layer_summary,
        load_trace_record,
        render_trace_tree,
        write_trace_record,
    )
    from repro.obs.spans import Span
    from repro.service import ServiceClient, ServiceUnavailable

    if args.last:
        path = latest_trace_record_path(args.dir)
        if path is None:
            print(f"npb trace: no TRACE_*.json in {args.dir!r}; fetch one "
                  f"first with 'npb trace <job_id>'", file=sys.stderr)
            return EXIT_FAILURE
        record = load_trace_record(path)
        spans = [Span.from_dict(s) for s in record["spans"]]
        if args.json:
            print(json.dumps(record, indent=2))
        else:
            print(f"{path} (job {record.get('job_id')})")
            print(render_trace_tree(spans, record["trace_id"]))
        return EXIT_OK
    if not args.job_id:
        print("npb trace: pass a job id or --last", file=sys.stderr)
        return EXIT_USAGE

    client = ServiceClient(args.url, timeout=args.timeout)
    try:
        code, body = client.trace(args.job_id)
    except ServiceUnavailable as exc:
        print(f"npb trace: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if code in (404, 410):
        print(f"npb trace: {body.get('error')}", file=sys.stderr)
        return EXIT_FAILURE
    if code != 200:
        print(f"npb trace: HTTP {code}: {body.get('error')}",
              file=sys.stderr)
        return EXIT_USAGE
    spans = [Span.from_dict(s) for s in body.get("spans", [])]
    if not spans:
        print(f"npb trace: job {args.job_id!r} has trace id "
              f"{body.get('trace_id')} but no spans survive in the "
              f"store (evicted?)", file=sys.stderr)
        return EXIT_FAILURE
    path = None
    if not args.no_record:
        path = write_trace_record(
            spans, body["trace_id"], args.dir, job_id=body.get("job_id"))
    if args.json:
        record = build_trace_record(
            spans, body["trace_id"], job_id=body.get("job_id"))
        record["path"] = path
        print(json.dumps(record, indent=2))
        return EXIT_OK
    print(render_trace_tree(spans, body["trace_id"]))
    layers = layer_summary(spans)
    width = max(len(name) for name in layers)
    print("\nper-layer totals:")
    for name, seconds in sorted(
            layers.items(), key=lambda item: -item[1]):
        print(f"  {name:<{width}}  {seconds * 1000:.1f}ms")
    if path is not None:
        print(f"wrote {path}")
    return EXIT_OK


def _loadgen_step_line(step: dict) -> str:
    counts = step["requests"]
    latency = step["latency_seconds"] or {}
    verdict = "pass" if step["slo"]["pass"] else "FAIL"
    line = (f"[{verdict}] {step['mode']}@{step['level']:g}  "
            f"{counts['ok']}/{counts['total']} ok "
            f"({counts['cached']} cached, {counts['rejected_429']} shed, "
            f"{counts['failed'] + counts['unreachable']} errors)  "
            f"{step['throughput_rps']:.2f} req/s")
    if latency:
        line += (f"  p50 {latency['p50'] * 1000:.1f}ms"
                 f"  p95 {latency['p95'] * 1000:.1f}ms"
                 f"  p99 {latency['p99'] * 1000:.1f}ms")
    if counts["degraded"]:
        line += f"  [{counts['degraded']} degraded-route]"
    slowest = step.get("slowest_trace")
    if slowest:
        line += (f"\n       slowest: npb trace {slowest['job_id']} "
                 f"({slowest['latency_seconds'] * 1000:.1f}ms)")
    return line


def _cmd_loadgen(args) -> int:
    import dataclasses as dc

    from repro.service import loadgen
    from repro.service.client import ServiceUnavailable

    if args.compare:
        baseline = loadgen.load_record(args.compare)
        candidate_path = args.candidate or loadgen.latest_record_path(
            args.dir)
        if candidate_path is None:
            print(f"no LOADGEN_*.json candidate found in {args.dir!r}; "
                  f"run 'npb loadgen' first or pass a candidate path",
                  file=sys.stderr)
            return EXIT_USAGE
        candidate = loadgen.load_record(candidate_path)
        comparison = loadgen.compare_records(
            baseline, candidate, tolerance=args.tolerance)
        print(json.dumps(comparison, indent=2) if args.json
              else format_table(compare_table(comparison)))
        failed = (comparison["counts"]["worse"] or comparison["missing"]
                  or comparison["slo_failed"])
        return EXIT_FAILURE if failed else EXIT_OK

    if args.mix:
        try:
            profile = loadgen.parse_mix(
                args.mix,
                duplicate_fraction=(0.5 if args.duplicate_fraction is None
                                    else args.duplicate_fraction))
        except ValueError as exc:
            print(f"npb loadgen: --mix: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        profile = loadgen.PROFILES[args.profile]
        if args.duplicate_fraction is not None:
            profile = dc.replace(
                profile, duplicate_fraction=args.duplicate_fraction)

    try:
        levels = tuple(
            float(part)
            for part in args.concurrency.split(",") if part.strip())
    except ValueError:
        levels = ()
    if not levels:
        print("npb loadgen: --concurrency must be a comma-"
              "separated list of numbers", file=sys.stderr)
        return EXIT_USAGE

    policy = loadgen.SLOPolicy(
        max_error_rate=args.slo_max_error_rate,
        max_429_rate=args.slo_max_429_rate,
        max_p95_seconds=args.slo_max_p95,
        min_cache_hit_ratio=args.slo_min_cache_ratio,
        min_dedup_ratio=args.slo_min_dedup_ratio,
        min_ok=args.slo_min_ok)
    config = loadgen.LoadgenConfig(
        profile=profile, levels=levels,
        requests_per_step=args.requests,
        duration_seconds=args.duration, seed=args.seed,
        retries=args.retries, slo=policy, tenant=args.tenant,
        trace=args.trace)
    try:
        record = loadgen.run_loadgen(
            args.url, config, timeout=args.timeout,
            progress=None if args.json else print)
    except (ServiceUnavailable, ValueError) as exc:
        print(f"npb loadgen: {exc}", file=sys.stderr)
        return EXIT_USAGE
    path = loadgen.write_record(record, directory=args.dir, path=args.out)
    if args.json:
        print(json.dumps(loadgen.load_record(path), indent=2))
    else:
        for step in record["curve"]:
            print(_loadgen_step_line(step))
        print(f"wrote {path}")
    return EXIT_OK if record["slo_pass"] else EXIT_FAILURE


def _cmd_table(args) -> int:
    mode = "measured" if args.measured else "simulated"
    every = MEASURED_TABLES if args.measured else TABLES
    numbers = [args.number] if args.number else every
    for n in numbers:
        table = generate_table(n, mode, args.problem_class)
        print(format_table(table))
        print()
    return 0


def _cmd_speedup(args) -> int:
    from repro.harness.report import Table
    from repro.machines import MACHINES, speedup_curve
    from repro.team.base import team_worker_counts

    name = args.benchmark.upper()
    rows = Table(
        f"Speedup study: {name}.{args.problem_class}",
        ["Configuration", "seconds", "speedup"],
    )
    configs = [("serial", 1)]
    configs += [(args.backend, w)
                for w in team_worker_counts(args.max_workers)]
    serial = None
    for backend, workers in configs:
        label = backend if backend == "serial" else f"{backend} x{workers}"
        result = run_benchmark(name, args.problem_class, backend, workers)
        if not result.verified:
            print(format_table(rows))
            print(result.verification.summary())
            print(f"FAIL: {name}.{args.problem_class} under {label} did "
                  f"not verify; speedups above are not trustworthy",
                  file=sys.stderr)
            return 1
        serial = serial or result.time_seconds
        rows.add_row(f"{label} (this host)", result.time_seconds,
                     serial / result.time_seconds)
    print(format_table(rows))
    print()
    modeled = Table(
        f"Modeled {name}.A Java speedups on the paper's machines",
        ["Machine"] + [f"{p}thr" for p in (1, 2, 4, 8, 16, 32)],
    )
    for key, spec in MACHINES.items():
        curve = speedup_curve(spec, name, "A", warmup_load=True)
        modeled.add_row(key, *[curve.get(p, float("nan"))
                               for p in (1, 2, 4, 8, 16, 32)])
    print(format_table(modeled))
    return 0


def _cmd_report(args) -> int:
    from repro.harness.findings import generate_report

    print(generate_report(include_tables=not args.no_tables))
    return 0


def _cmd_list(args) -> int:
    print("Benchmarks:  ", ", ".join(available_benchmarks()))
    print("Classes:     ", ", ".join(str(c) for c in CLASS_ORDER))
    print("Backends:     serial, threads, process")
    print("Tables:      ", ", ".join(str(t) for t in TABLES))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npb",
        description="NAS Parallel Benchmarks in Python "
                    "(reproduction of Frumkin et al., IPPS 2003)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one benchmark")
    run.add_argument("benchmark", choices=available_benchmarks(),
                     type=str.upper)
    _common(run)
    run.add_argument("-v", "--verbose", action="store_true")
    run.add_argument("--json", action="store_true",
                     help="emit a structured run record (timers + "
                          "per-region dispatch/execute/barrier split)")
    run.set_defaults(fn=_cmd_run)

    verify = sub.add_parser("verify", help="run and verify the whole suite")
    _common(verify)
    verify.add_argument("--json", action="store_true",
                        help="emit one structured run record per benchmark")
    verify.set_defaults(fn=_cmd_verify)

    profile = sub.add_parser(
        "profile", help="run one benchmark and report the per-region "
                        "overhead breakdown (dispatch/execute/barrier)")
    profile.add_argument("benchmark", choices=available_benchmarks(),
                         type=str.upper)
    _common(profile)
    profile.add_argument("--alloc", action="store_true",
                         help="trace allocations (tracemalloc) and report "
                              "per-region allocated bytes/blocks; slows "
                              "the run, and with -b process only "
                              "master-side allocation is visible")
    profile.add_argument("--json", action="store_true",
                         help="emit the run record plus plan-cache stats "
                              "as JSON")
    profile.set_defaults(fn=_cmd_profile)

    bench = sub.add_parser(
        "bench", help="append a BENCH_<seq>.json record to the perf "
                      "trajectory, or gate a candidate record against a "
                      "baseline (--compare)")
    bench.add_argument("candidate", nargs="?", default=None,
                       help="candidate record for --compare (default: the "
                            "latest BENCH_*.json in --dir)")
    bench.add_argument("--quick", action="store_true",
                       help="small class-S cell set for shared CI runners")
    bench.add_argument("-r", "--repeat", type=int, default=3,
                       help="repeats per cell; best-of-k is recorded "
                            "(default 3)")
    bench.add_argument("--cells", default=None,
                       help="comma-separated BENCH:CLASS:BACKEND:WORKERS "
                            "specs overriding the cell set "
                            "(e.g. CG:S:threads:2,LU:S:serial:1)")
    bench.add_argument("--no-kernels", action="store_true",
                       help="skip the Table-1 basic-operation kernels")
    bench.add_argument("--dir", default=".",
                       help="trajectory directory for BENCH_<seq>.json "
                            "numbering (default .)")
    bench.add_argument("--out", default=None,
                       help="explicit output path (skips sequence "
                            "numbering; useful in CI)")
    bench.add_argument("--compare", metavar="BASELINE.json", default=None,
                       help="compare a candidate record against this "
                            "baseline instead of running; exits 1 on a "
                            "worse cell")
    bench.add_argument("--tolerance", type=float,
                       default=DEFAULT_TOLERANCE,
                       help="share a cell's median time may grow by before "
                            "it is worse (default 0.10; CI uses 2.0 to gate "
                            "only >3x blowups)")
    bench.add_argument("--alloc", action="store_true",
                       help="run the suite under tracemalloc so region "
                            "alloc_bytes/alloc_blocks are populated; "
                            "traced records are slower -- only compare "
                            "them against other traced records")
    bench.add_argument("--json", action="store_true",
                       help="print the record (or comparison) as JSON")
    bench.set_defaults(fn=_cmd_bench)

    serve = sub.add_parser(
        "serve", help="start the benchmark job service daemon (bounded "
                      "admission queue, warm team pool, content-addressed "
                      "result cache, HTTP API)")
    _common(serve)
    _listen_arguments(serve, 8642)
    _pool_arguments(serve, ".npb-service-cache", 60.0, backend=False)
    serve.add_argument("--cache-entries", type=int, default=256,
                       help="LRU bound on cached results (default 256)")
    serve.add_argument("--admission-window", type=int, default=None,
                       metavar="N",
                       help="jobs admitted but not yet terminal before "
                            "fair queueing holds new work back "
                            "(default: the pool size)")
    serve.add_argument("--tenant-quota", type=int, default=64,
                       metavar="Q",
                       help="per-tenant queued-request bound before "
                            "structured 429s (default 64)")
    serve.add_argument("--tenant-weight", action="append",
                       metavar="NAME=W",
                       help="DRR weight for one tenant (repeatable; "
                            "unlisted tenants weigh 1)")
    serve.add_argument("--chaos-seed", type=int, default=None,
                       metavar="SEED",
                       help="enable deterministic fault injection inside "
                            "this daemon: compile the service fault "
                            "schedule from SEED and hook it into "
                            "pool/cache/scheduler (testing only)")
    serve.set_defaults(fn=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit one benchmark job to a running service "
                       "(exit 4 when admission is rejected)")
    submit.add_argument("benchmark", choices=available_benchmarks(),
                        type=str.upper)
    _common(submit)
    submit.add_argument("--url", default=DEFAULT_SERVICE_URL,
                        help=f"service address (default "
                             f"{DEFAULT_SERVICE_URL})")
    submit.add_argument("--priority", default="normal",
                        choices=["high", "normal"],
                        help="queue lane; high drains before normal")
    submit.add_argument("--no-cache", action="store_true",
                        help="force execution even when an identical "
                             "result is cached (the new result is still "
                             "stored)")
    submit.add_argument("--no-wait", action="store_true",
                        help="return immediately with the queued job id "
                             "instead of waiting for the result")
    submit.add_argument("--idempotency-key", default=None, metavar="KEY",
                        help="client-chosen idempotency key (sent as the "
                             "Idempotency-Key header): resubmitting the "
                             "same key returns the original job instead "
                             "of admitting a duplicate")
    submit.add_argument("--tenant", default=None,
                        help="tenant id (sent as the X-NPB-Tenant "
                             "header) for fair admission and the v6 "
                             "run-record provenance")
    submit.add_argument("--retries", type=int, default=3,
                        help="resubmissions after HTTP 429, honoring the "
                             "server's Retry-After backoff hint "
                             "(default 3; 0 fails fast with exit 4)")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="client-side HTTP timeout in seconds "
                             "(default 600)")
    submit.add_argument("--trace", action="store_true",
                        help="trace this job end-to-end regardless of "
                             "the server's --trace-sample rate; read "
                             "the span tree back with 'npb trace "
                             "<job_id>'")
    submit.add_argument("--json", action="store_true",
                        help="print the job record as JSON")
    submit.set_defaults(fn=_cmd_submit)

    shard_serve = sub.add_parser(
        "shard-serve", help="run a consistent-hash coordinator over N "
                            "worker daemons (--shard URL and/or --spawn "
                            "N children); same HTTP API as serve")
    shard_serve.add_argument("--shard", action="append", metavar="[NAME=]URL",
                             help="an already-running worker daemon to "
                                  "front (repeatable; default names are "
                                  "shard0, shard1, ...)")
    shard_serve.add_argument("--spawn", type=int, default=0, metavar="N",
                             help="spawn N 'npb serve' child daemons on "
                                  "free loopback ports and front them "
                                  "(default 0)")
    _listen_arguments(shard_serve, DEFAULT_COORDINATOR_PORT)
    shard_serve.add_argument("--replicas", type=int, default=128,
                             help="virtual points per shard on the hash "
                                  "ring (default 128)")
    shard_serve.add_argument("--health-interval", type=float, default=2.0,
                             help="seconds between background shard "
                                  "health probes (default 2)")
    _pool_arguments(shard_serve, ".npb-service-cache", 60.0)
    shard_serve.set_defaults(fn=_cmd_shard_serve)

    chaos = sub.add_parser(
        "chaos", help="deterministic fault-injection run: spawn a "
                      "sharded service with in-daemon chaos, drive a "
                      "loadgen mix through a fault-injecting "
                      "coordinator (including a SIGKILLed shard), "
                      "check the admitted-jobs invariant, and append a "
                      "CHAOS_<seq>.json record; same --seed, same "
                      "fault schedule")
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault-schedule seed; shards derive "
                            "sub-seeds from it (default 0)")
    chaos.add_argument("--shards", type=int, default=2, metavar="N",
                       help="worker daemons to spawn (default 2)")
    chaos.add_argument("-n", "--requests", type=int, default=24,
                       help="total requests to drive (default 24)")
    chaos.add_argument("-C", "--concurrency", type=int, default=3,
                       help="closed-loop client threads (default 3)")
    chaos.add_argument("--profile", default="smoke",
                       choices=list(LOADGEN_PROFILES),
                       help="loadgen traffic mix (default smoke)")
    _pool_arguments(chaos, ".npb-chaos-cache", 30.0)
    chaos.add_argument("--min-fault-kinds", type=int, default=4,
                       metavar="K",
                       help="fail unless at least K distinct fault "
                            "kinds were actually injected (default 4)")
    chaos.add_argument("--dir", default=".",
                       help="trajectory directory for CHAOS_<seq>.json "
                            "numbering (default .)")
    chaos.add_argument("--out", default=None,
                       help="explicit output path (skips sequence "
                            "numbering; useful in CI)")
    chaos.add_argument("--json", action="store_true",
                       help="print the chaos record as JSON")
    chaos.set_defaults(fn=_cmd_chaos)

    jobs = sub.add_parser(
        "jobs", help="service status and job listing (or one job by id)")
    jobs.add_argument("job_id", nargs="?", default=None)
    jobs.add_argument("--url", default=DEFAULT_SERVICE_URL,
                      help=f"service address (default {DEFAULT_SERVICE_URL})")
    jobs.add_argument("--timeout", type=float, default=30.0)
    jobs.add_argument("--json", action="store_true")
    jobs.set_defaults(fn=_cmd_jobs)

    trace = sub.add_parser(
        "trace", help="fetch a traced job's span tree from a running "
                      "service or coordinator, render it with per-layer "
                      "durations, and append a TRACE_<seq>.json record "
                      "(--last re-renders the newest record from disk)")
    trace.add_argument("job_id", nargs="?", default=None,
                       help="job id (namespaced <shard>:<id> through a "
                            "coordinator); the job must have been "
                            "traced (submit --trace or --trace-sample)")
    trace.add_argument("--last", action="store_true",
                       help="render the latest TRACE_<seq>.json in "
                            "--dir instead of fetching from a service")
    trace.add_argument("--url", default=DEFAULT_SERVICE_URL,
                       help=f"service or coordinator address (default "
                            f"{DEFAULT_SERVICE_URL})")
    trace.add_argument("--dir", default=".",
                       help="trajectory directory for TRACE_<seq>.json "
                            "numbering (default .)")
    trace.add_argument("--no-record", action="store_true",
                       help="render only; skip writing TRACE_<seq>.json")
    trace.add_argument("--timeout", type=float, default=30.0)
    trace.add_argument("--json", action="store_true",
                       help="print the trace record as JSON")
    trace.set_defaults(fn=_cmd_trace)

    loadgen = sub.add_parser(
        "loadgen", help="generate service traffic (closed-loop "
                        "concurrency sweep), append a LOADGEN_<seq>.json "
                        "record, and verdict it against an SLO; or gate a "
                        "candidate record against a baseline (--compare)")
    loadgen.add_argument("candidate", nargs="?", default=None,
                         help="candidate record for --compare (default: "
                              "the latest LOADGEN_*.json in --dir)")
    loadgen.add_argument("--url", default=DEFAULT_SERVICE_URL,
                         help=f"service or coordinator address (default "
                              f"{DEFAULT_SERVICE_URL})")
    loadgen.add_argument("--profile", default="smoke",
                         choices=list(LOADGEN_PROFILES),
                         help="built-in traffic mix (default smoke)")
    loadgen.add_argument("--mix", default=None,
                         metavar="SPEC[@W],...",
                         help="custom weighted mix overriding --profile, "
                              "e.g. CG:S:serial:1@2,MG:S "
                              "(BENCH[:CLASS[:BACKEND[:WORKERS]]]"
                              "[@WEIGHT])")
    loadgen.add_argument("--duplicate-fraction", type=float, default=None,
                         help="fraction of requests that are cache-"
                              "eligible resubmissions (default: the "
                              "profile's own; 0.5 for --mix)")
    loadgen.add_argument("-C", "--concurrency", default="2",
                         help="closed-loop concurrency levels, one curve "
                              "step each (comma-separated, default 2)")
    loadgen.add_argument("-n", "--requests", type=int, default=20,
                         help="requests per closed-loop step (default 20)")
    loadgen.add_argument("--duration", type=float, default=None,
                         help="optional cap on a step's seconds")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="RNG seed for the traffic mix (default 0; "
                              "same seed, same request stream)")
    loadgen.add_argument("--retries", type=int, default=3,
                         help="429 retries per request, honoring "
                              "Retry-After (default 3)")
    loadgen.add_argument("--timeout", type=float, default=600.0,
                         help="client-side HTTP timeout per request "
                              "(default 600)")
    loadgen.add_argument("--dir", default=".",
                         help="trajectory directory for LOADGEN_<seq>"
                              ".json numbering (default .)")
    loadgen.add_argument("--out", default=None,
                         help="explicit output path (skips sequence "
                              "numbering; useful in CI)")
    loadgen.add_argument("--slo-max-error-rate", type=float, default=0.0,
                         help="failed+unreachable fraction tolerated "
                              "(default 0)")
    loadgen.add_argument("--slo-max-429-rate", type=float, default=0.5,
                         help="fraction of requests allowed to stay shed "
                              "after retries (default 0.5)")
    loadgen.add_argument("--slo-max-p95", type=float, default=None,
                         metavar="SECONDS",
                         help="p95 latency bound (default: not checked)")
    loadgen.add_argument("--slo-min-cache-ratio", type=float, default=None,
                         help="minimum cache-hit ratio over ok requests "
                              "(default: not checked)")
    loadgen.add_argument("--slo-min-dedup-ratio", type=float, default=None,
                         help="minimum dedup ratio (cached + coalesced "
                              "over ok; default: not checked)")
    loadgen.add_argument("--tenant", default=None,
                         help="tenant id stamped on every request "
                              "(X-NPB-Tenant header)")
    loadgen.add_argument("--trace", action="store_true",
                         help="trace every request and report the "
                              "slowest per step (diagnosis mode; span "
                              "collection adds overhead, so not for "
                              "baseline records)")
    loadgen.add_argument("--slo-min-ok", type=int, default=1,
                         help="minimum completed-ok requests per step "
                              "(default 1)")
    loadgen.add_argument("--compare", metavar="BASELINE.json", default=None,
                         help="compare a candidate record against this "
                              "baseline instead of generating traffic; "
                              "exits 1 on a worse metric, a missing step "
                              "or a failed candidate SLO")
    loadgen.add_argument("--tolerance", type=float, default=0.25,
                         help="share a step's latency percentile or "
                              "throughput may worsen by (default 0.25)")
    loadgen.add_argument("--json", action="store_true",
                         help="print the record (or comparison) as JSON")
    loadgen.set_defaults(fn=_cmd_loadgen)

    table = sub.add_parser("table", help="regenerate one paper table")
    table.add_argument("number", type=int, choices=TABLES)
    table.add_argument("--measured", action="store_true",
                       help="measure on this host instead of simulating "
                            "the paper's machines")
    table.add_argument("-c", "--problem-class", default="A",
                       help="problem class for tables 2-6 (default A "
                            "simulated; use S/W for measured runs)")
    table.set_defaults(fn=_cmd_table)

    tables = sub.add_parser("tables", help="regenerate all seven tables")
    tables.add_argument("--measured", action="store_true")
    tables.add_argument("-c", "--problem-class", default="A")
    tables.set_defaults(fn=_cmd_table, number=None)

    speedup = sub.add_parser(
        "speedup", help="measured host speedups + modeled paper-machine "
                        "speedup curves for one benchmark")
    speedup.add_argument("benchmark", choices=available_benchmarks(),
                         type=str.upper)
    speedup.add_argument("-c", "--problem-class", default="S")
    speedup.add_argument("-b", "--backend", default="process",
                         choices=["threads", "process"])
    speedup.add_argument("-w", "--max-workers", type=int, default=4)
    speedup.set_defaults(fn=_cmd_speedup)

    report = sub.add_parser(
        "report", help="evaluate every paper claim against the models "
                       "and print a markdown findings report")
    report.add_argument("--no-tables", action="store_true",
                        help="omit the simulated tables")
    report.set_defaults(fn=_cmd_report)

    lst = sub.add_parser("list", help="list benchmarks, classes, tables")
    lst.set_defaults(fn=_cmd_list)
    return parser


def _common(sub_parser) -> None:
    sub_parser.add_argument("-c", "--problem-class", default="S")
    sub_parser.add_argument("-b", "--backend", default="serial",
                            choices=["serial", "threads", "process"])
    sub_parser.add_argument("-w", "--workers", type=int, default=1)
    sub_parser.add_argument("--dispatch-timeout", type=float, default=None,
                            metavar="SECONDS",
                            help="per-dispatch deadline; hung workers are "
                                 "respawned and the dispatch retried "
                                 "(default: no deadline; worker death is "
                                 "still detected and recovered)")
    sub_parser.add_argument("--max-retries", type=int, default=None,
                            metavar="N",
                            help="transport failures tolerated per dispatch "
                                 "before degrading to inline serial "
                                 "execution (default 2)")


def _listen_arguments(sub_parser, port: int) -> None:
    """What ``serve`` and ``shard-serve``, the two servers, both take."""
    sub_parser.add_argument("--host", default="127.0.0.1")
    sub_parser.add_argument("--port", type=int, default=port,
                            help=f"listen port (default {port}; 0 picks a "
                                 f"free one; the chosen address is printed "
                                 f"on startup)")
    sub_parser.add_argument("--trace-sample", type=float, default=0.0,
                            metavar="RATE",
                            help="fraction of submissions traced end to end "
                                 "(0..1; default 0 = off; 'npb submit --trace' "
                                 "jobs always are): one decision at the edge "
                                 "covers routing, spawned shards, scheduling "
                                 "and kernel regions; read with 'npb trace'")
    sub_parser.add_argument("-v", "--verbose", action="store_true",
                            help="log every HTTP request to stderr")


#: The pool-shape options ``serve``, ``shard-serve`` and ``chaos`` share
#: (what each daemon -- the one served, or every spawned shard -- runs).
_POOL_OPTIONS = ("backend", "workers", "pool", "queue_depth", "cache_dir",
                 "drain_timeout")


def _pool_arguments(sub_parser, cache_dir: str, drain_timeout: float,
                    backend: bool = True) -> None:
    """Declare :data:`_POOL_OPTIONS` (``backend=False`` where
    :func:`_common` already declared ``--backend``/``--workers``)."""
    if backend:
        sub_parser.add_argument("--backend", default="serial",
                                choices=["serial", "threads", "process"],
                                help="backend of every pooled team "
                                     "(default serial)")
        sub_parser.add_argument("--workers", type=int, default=1,
                                help="workers per pooled team (default 1)")
    sub_parser.add_argument("--pool", type=int, default=2, metavar="N",
                            help="warm teams a daemon keeps and reuses across "
                                 "jobs, so also its concurrent jobs (default 2)")
    sub_parser.add_argument("--queue-depth", type=int, default=64, metavar="D",
                            help="admitted-but-unstarted jobs a daemon holds "
                                 "before it answers HTTP 429 (default 64)")
    sub_parser.add_argument("--cache-dir", default=cache_dir,
                            help=f"result cache directory; spawned shards use "
                                 f"<dir>/shardN (default {cache_dir})")
    sub_parser.add_argument("--drain-timeout", type=float, default=drain_timeout,
                            help=f"seconds running jobs (and spawned shards) get "
                                 f"to drain on SIGTERM/SIGINT or at teardown "
                                 f"(default {drain_timeout:g})")


def _pool_options(args) -> dict:
    """:data:`_POOL_OPTIONS` of parsed ``args``, as ``spawn_shard`` takes them."""
    return {name: getattr(args, name) for name in _POOL_OPTIONS}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except WorkerError as exc:
        # A worker failed in a way the dispatch core could not recover or
        # translate (the remote traceback rides along verbatim).
        print(f"npb: unrecoverable worker failure\n{exc}", file=sys.stderr)
        return EXIT_WORKER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
