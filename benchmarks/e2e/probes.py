"""Micro-probes: one layer at a time, called through its public functions.

Every traced run takes all of these, whatever its workload: they are
the per-layer half of the budget (the other half is the span shares of
the traced workload).  Each probe times calls into one layer from
outside and reports the median per call.  Inputs come from ``--seed``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

import numpy as np

from repro import get_benchmark, make_team
from repro.cfd import CFDConstants
from repro.core import basic_ops
from repro.kernels.registry import resolve
from repro.runtime import ExecutionPlan, ScratchArena, worker_arena
from repro.service import (BenchService, HashRing, Job, JobQueue, JobSpec,
                           ResultCache, ServiceClient, ShardCoordinator,
                           TeamPool, routing_key)

from e2e import service as service_workloads
from e2e.metrics import metric
from e2e.stats import llc_bytes, median, mem_available_bytes

WORKERS = 2
BACKENDS = ("serial", "threads", "process")

#: MG residual and smoother coefficients of classes S, W and A (mg.f).
MG_A = (-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0)
MG_C = (-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0)

#: Kernel extents: ``small`` is the class-S size of the kernel's
#: benchmark, ``large`` its class-W (MG, SP) or class-A (CG) size.
#: MG: points per side with ghosts; CFD: points per side; CG: rows and
#: nonzeros per row (a seeded random pattern of the class's density).
EXTENTS = {
    "small": {"mg": 34, "cfd": 12, "cg": (1400, 56)},
    "large": {"mg": 130, "cfd": 36, "cg": (14000, 132)},
}

#: Cells of the efficiency probe: a thin-dispatch cell (thousands of
#: short dispatches) and a fat-dispatch one (tens of long ones).
THIN_CELL = ("CG", "S")
FAT_CELL = ("FT", "W")

#: The bandwidth probe's arrays are this many times the last-level cache.
TRIAD_LLC_FACTOR = 4


def per_call(fn, min_sample_s: float = 0.004, samples: int = 5):
    """Median seconds per call of ``fn`` and the calls timed.

    One warm call, then the inner count doubles until one sample lasts
    ``min_sample_s``, then ``samples`` samples.
    """
    fn()
    inner = 1
    while True:
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_sample_s or inner >= 1 << 20:
            break
        inner *= 2
    values = [elapsed / inner]
    for _ in range(samples - 1):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        values.append((time.perf_counter() - start) / inner)
    return median(values), inner * samples


def probe(fn, unit: str = "us", **timing) -> dict:
    """The metric ``per_call`` gives for ``fn``, in ``unit`` per call."""
    seconds, calls = per_call(fn, **timing)
    return metric({"us": 1.0e6, "ms": 1.0e3}[unit] * seconds, unit, calls)


# --------------------------------------------------------------------- #
# kernels


def _kernel_cases(extents: dict, seed: int) -> dict:
    """kernel -> (n, args, computed bytes moved by one call).

    Bytes are computed from array sizes (each operand read or written
    once), not measured: they ignore cache misses and write-allocate.
    """
    rng = np.random.default_rng(seed)
    m = extents["mg"]
    u, v, r = (rng.standard_normal((m, m, m)) for _ in range(3))
    mc = m // 2 + 1
    zc = rng.standard_normal((mc, mc, mc))
    sc = np.empty_like(zc)
    fine, coarse = 8 * m ** 3, 8 * mc ** 3

    g = extents["cfd"]
    state = 0.1 * rng.standard_normal((g, g, g, 5))
    state[..., 0] = 1.0 + 0.2 * rng.random((g, g, g))
    state[..., 4] = 5.0 + rng.random((g, g, g))
    fields = [np.empty((g, g, g)) for _ in range(7)]
    rho_i, us, vs, ws, qs, square, speed = fields
    forcing = 0.01 * rng.standard_normal(state.shape)
    rhs = np.empty_like(state)
    constants = CFDConstants(g, g, g, 0.001)
    point = 8 * g ** 3

    rows, per_row = extents["cg"]
    counts = rng.integers(1, 2 * per_row, size=rows)
    rowstr = np.zeros(rows + 1, dtype=np.int64)
    rowstr[1:] = np.cumsum(counts)
    nnz = int(rowstr[rows])
    colidx = rng.integers(0, rows, size=nnz).astype(np.int64)
    a = rng.standard_normal(nnz)
    x, z, q = (rng.standard_normal(rows) for _ in range(3))
    out = np.zeros(rows)

    return {
        "mg.resid": (m - 2, (u, v, r, MG_A), 3 * fine),
        "mg.psinv": (m - 2, (r, u, MG_C), 3 * fine),
        "mg.rprj3": (mc - 2, (r, sc, (1, 1, 1)), fine + coarse),
        "mg.interp": (mc - 1, (zc, v), coarse + 2 * fine),
        "mg.norm2u3": (m - 2, (r,), fine),
        "cfd.fields": (g, (state, *fields, constants), 12 * point),
        "cfd.rhs": (g - 2, (state, rhs, forcing, rho_i, us, vs, ws, qs,
                            square, constants), 21 * point),
        "cg.matvec": (rows, (rowstr, colidx, a, x, out, None),
                      16 * nnz + 24 * rows),
        "cg.update_zr": (rows, (z, out, x, q, 0.5), 48 * rows),
        "cg.norm_diff": (rows, (x, z), 16 * rows),
    }


def stream_triad(info: dict) -> float:
    """Sustained bandwidth in GB/s of a numpy triad ``a = b + s * c``.

    numpy runs it as two passes (multiply into ``a``, add ``b`` into
    ``a``): five array transits, computed, per triad.  Arrays are
    ``TRIAD_LLC_FACTOR`` times the last-level cache; when memory forbids
    that, the largest size that fits, and the record says so.
    """
    llc = llc_bytes() or (32 << 20)
    want = TRIAD_LLC_FACTOR * llc
    available = mem_available_bytes()
    size = want if available is None else min(want, available // 8)
    n = max(size // 8, 1 << 16)
    b = np.full(n, 1.5)
    c = np.full(n, 2.5)
    a = np.empty(n)

    def triad():
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)

    seconds, _ = per_call(triad, min_sample_s=0.0, samples=3)
    info["triad"] = {
        "array_bytes": 8 * n, "llc_bytes": llc,
        "meets_llc_factor": 8 * n >= want,
        "bytes_per_triad_computed": 40 * n,
    }
    return 40 * n / seconds / 1.0e9


def kernel_probes(seed: int, info: dict) -> dict:
    triad_gbs = stream_triad(info)
    metrics = {"kernels.stream_triad_gbs": metric(triad_gbs, "GB/s", 3)}
    arena = worker_arena()
    info["kernel_bytes_computed"] = {}
    for size, extents in EXTENTS.items():
        for kernel, (n, args, nbytes) in _kernel_cases(extents, seed).items():
            fn = resolve(kernel).fn

            def call(fn=fn, n=n, args=args):
                arena.next_dispatch()
                fn(0, n, *args)

            seconds, calls = per_call(call)
            metrics[f"kernels.{kernel}.{size}_us"] = metric(
                1.0e6 * seconds, "us", calls)
            if size == "large":
                info["kernel_bytes_computed"][kernel] = nbytes
                metrics[f"kernels.{kernel}.large_bw_frac"] = metric(
                    nbytes / seconds / 1.0e9 / triad_gbs, "ratio", calls)
        arena.release()
    return metrics


def basic_op_probes(seed: int) -> dict:
    """The paper's five Table-1 operations, numpy style, at its grid."""
    workload = basic_ops.make_workload(basic_ops.PAPER_GRID, seed)
    scalar_out = np.zeros_like(workload.a)
    vector_out = np.empty_like(workload.vectors)
    calls = {
        "assignment": lambda: basic_ops.numpy_assignment(workload, scalar_out),
        "stencil1": lambda: basic_ops.numpy_stencil1(workload, scalar_out),
        "stencil2": lambda: basic_ops.numpy_stencil2(workload, scalar_out),
        "matvec5": lambda: basic_ops.numpy_matvec5(workload, vector_out),
        "reduction": lambda: basic_ops.numpy_reduction(workload),
    }
    return {f"basic_ops.{op}.numpy_us": probe(fn, samples=3)
            for op, fn in calls.items()}


# --------------------------------------------------------------------- #
# runtime and team


def runtime_probes() -> dict:
    plan = ExecutionPlan(WORKERS)
    arena = ScratchArena()

    def take():
        arena.next_dispatch()
        arena.take((34, 34))

    return {
        "runtime.plan_bounds_us": probe(lambda: plan.bounds(64)),
        "runtime.arena_take_us": probe(take),
    }


def _noop(lo: int, hi: int) -> None:
    return None


def _run_cell(cell, team):
    benchmark = get_benchmark(cell[0])(cell[1], team)
    benchmark.setup()
    start = time.perf_counter()
    result = benchmark.run()
    elapsed = time.perf_counter() - start
    team.reset()
    if not result.verified:
        raise RuntimeError(f"{cell[0]}.{cell[1]} on {team.backend} "
                           f"did not verify")
    return elapsed, result.regions


def team_probes() -> dict:
    """Dispatch, spawn and reset cost per backend, then the thin and fat
    cell on each backend: parallel efficiency ``T_serial / (W T_parallel)``
    and the share of worker time that is dispatch + barrier."""
    metrics = {}
    times: dict[tuple, float] = {}
    dispatches = 0
    for backend in BACKENDS:
        metrics[f"team.{backend}.spawn_ms"] = probe(
            lambda: make_team(backend, WORKERS).close(), "ms",
            min_sample_s=0.0, samples=3)
        with make_team(backend, WORKERS) as team:
            metrics[f"team.{backend}.noop_dispatch_us"] = probe(
                lambda: team.parallel_for(64, _noop))
            metrics[f"team.{backend}.reset_us"] = probe(team.reset)
            sync = busy = 0.0
            for cell in (THIN_CELL, FAT_CELL):
                _run_cell(cell, team)  # grows this team's arenas
                times[cell, backend], regions = _run_cell(cell, team)
                for stats in regions.values():
                    overhead = (stats["dispatch_seconds"]
                                + stats["barrier_seconds"])
                    sync += overhead
                    busy += overhead + stats["execute_seconds"]
                    if backend == "threads":
                        dispatches += stats["calls"]
            if backend != "serial":
                metrics[f"team.{backend}.overhead_share"] = metric(
                    sync / busy, "ratio", 2)
    for backend in BACKENDS[1:]:
        for label, cell in (("thin", THIN_CELL), ("fat", FAT_CELL)):
            metrics[f"team.{backend}.{label}_efficiency"] = metric(
                times[cell, "serial"] / (WORKERS * times[cell, backend]),
                "ratio", 1)
    metrics["team.dispatch_count"] = metric(dispatches, "count", 2)
    return metrics


# --------------------------------------------------------------------- #
# service layers, in process


def _record() -> dict:
    """A real run record to store: one direct IS.S run."""
    with make_team("serial") as team:
        return get_benchmark("IS")("S", team).run().to_dict()


def jobs_probes() -> dict:
    payload = {"benchmark": "CG", "problem_class": "S"}
    queue = JobQueue(maxdepth=8)
    job = Job("job-probe", JobSpec.create("CG", "S"))

    def put_get():
        queue.put(job)
        queue.get()

    return {
        "jobs.spec_fingerprint_us": probe(
            lambda: JobSpec.create("CG", "S").fingerprint()),
        "jobs.routing_key_us": probe(lambda: routing_key(payload)),
        "jobs.queue_put_get_us": probe(put_get),
    }


def cache_probes(work_dir: str) -> dict:
    record = _record()
    directory = tempfile.mkdtemp(prefix="probe-cache-", dir=work_dir)
    try:
        small = ResultCache(os.path.join(directory, "small"), max_entries=256)
        for index in range(16):
            small.put(f"{index:064x}", record)
        full = ResultCache(os.path.join(directory, "full"), max_entries=256)
        for index in range(256):
            full.put(f"{index:064x}", record)
        fresh = iter(range(256, 1 << 30))
        return {
            "cache.get_hit_us": probe(lambda: small.get(f"{3:064x}")),
            "cache.get_miss_us": probe(lambda: small.get("f" * 64)),
            # rewrites one of the 16 entries, so the directory stays at 16
            "cache.put_us": probe(lambda: small.put(f"{5:064x}", record)),
            "cache.stats_us": probe(small.stats),
            # a new key into a full cache: lists the directory and evicts
            "cache.put_at_capacity_us": probe(
                lambda: full.put(f"{next(fresh):064x}", record)),
        }
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def pool_probes() -> dict:
    with TeamPool("serial", 1, size=2) as pool:

        def warm():
            team, pooled = pool.lease()
            pool.release(team, pooled)

        def cold():
            team, pooled = pool.lease("threads", WORKERS)
            pool.release(team, pooled)

        return {
            "pool.lease_release_us": probe(warm),
            "pool.cold_lease_ms": probe(cold, "ms", min_sample_s=0.0),
        }


def _inproc_submit(service: BenchService, no_cache: bool):
    start = time.perf_counter()
    job = service.submit("IS", "S", no_cache=no_cache)
    job = service.wait(job.job_id, timeout=60.0)
    return time.perf_counter() - start, job


def service_probes(src_dir: str, work_dir: str) -> dict:
    """The cached path in process, over HTTP and through a coordinator;
    the differences are what the HTTP front end and a shard hop add."""
    directory = tempfile.mkdtemp(prefix="probe-service-", dir=work_dir)
    try:
        with BenchService(cache_dir=directory, pool_size=2) as service:
            _inproc_submit(service, False)
            cached = [_inproc_submit(service, False)[0] for _ in range(200)]
            overheads = []
            for _ in range(30):
                wall, job = _inproc_submit(service, True)
                overheads.append(wall - (job.finished_at - job.started_at))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    inproc_s = median(cached)

    payload = {"benchmark": "IS", "problem_class": "S", "wait": True}
    server = service_workloads.Server(
        service_workloads.serve_command(src_dir), src_dir, work_dir)
    server.start()
    try:
        client = ServiceClient(server.url)
        code, body = client.submit(payload)
        if code != 200:
            raise RuntimeError(f"probe submission answered {code}")
        http_s, http_n = per_call(lambda: client.submit(payload))
        get_job = probe(lambda: client.job(body["job_id"]))
        client.close()
        with ShardCoordinator({"shard0": server.url}) as coordinator:
            hop_s, hop_n = per_call(lambda: coordinator.submit(payload))
    finally:
        server.stop()

    ring = HashRing([f"shard{i}" for i in range(4)])
    key = routing_key(payload)
    return {
        "service.inproc_cached_us": metric(1.0e6 * inproc_s, "us", 200),
        "service.inproc_executed_overhead_us": metric(
            1.0e6 * median(overheads), "us", 30),
        "http.cached_roundtrip_us": metric(
            1.0e6 * (http_s - inproc_s), "us", http_n),
        "http.get_job_us": get_job,
        "shard.ring_route_us": probe(lambda: ring.route(key)),
        "shard.hop_ms": metric(1.0e3 * (hop_s - http_s), "ms", hop_n),
    }


# --------------------------------------------------------------------- #


def run_probes(seed: int, src_dir: str, work_dir: str):
    """Every micro-probe: (metrics, info stamped into the record)."""
    info: dict = {"extents": EXTENTS}
    os.makedirs(work_dir, exist_ok=True)
    metrics = {
        **kernel_probes(seed, info),
        **basic_op_probes(seed),
        **runtime_probes(),
        **team_probes(),
        **jobs_probes(),
        **cache_probes(work_dir),
        **pool_probes(),
        **service_probes(src_dir, work_dir),
    }
    return metrics, info
