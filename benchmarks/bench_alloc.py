"""Naive vs fused kernel allocation microbenchmark and CI growth gate.

Measures, for each hot slab kernel, the bytes of temporary churn per call
(tracemalloc peak rise) and the wall time per call for the
expression-form ``*_reference`` kernel -- the test oracle
``tests/kernels/kernel_oracle.py`` -- against the production fused arena
kernel (:mod:`repro.runtime.arena`).  Run from the repo root:

    PYTHONPATH=src python benchmarks/bench_alloc.py           # table
    PYTHONPATH=src python benchmarks/bench_alloc.py --check   # CI gate

``--check`` is the perf-smoke assertion: after a one-call warm-up every
fused kernel must run with **zero steady-state arena growth** (the
arena's ``allocations`` counter stays flat while ``reuses`` climbs), and
the resid/psinv/rhs kernels must allocate at least 5x less than their
references (the PR's acceptance floor).  Exits nonzero on violation.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import tracemalloc

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(_ROOT, "src"))
# the naive column is the equivalence suite's oracle, not shipped code
sys.path.insert(0, os.path.join(_ROOT, "tests", "kernels"))

import kernel_oracle as oracle  # noqa: E402
import numpy as np  # noqa: E402

from repro.cfd import rhs as cfd_rhs  # noqa: E402
from repro.cfd.constants import CFDConstants  # noqa: E402
from repro.cg import solver as cg  # noqa: E402
from repro.core import basic_ops  # noqa: E402
from repro.mg import operators as mg  # noqa: E402
from repro.runtime.arena import (  # noqa: E402
    allocation_probe_start,
    allocation_probe_stop,
    worker_arena,
)

#: NPB MG class-S/W coefficient vectors.
A = (-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0)
C = (-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0)

#: Kernels the acceptance criterion pins at a >=5x allocation drop.
GATED = ("mg.resid", "mg.psinv", "cfd.rhs")


def _mg_arrays(m, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((m, m, m)) for _ in range(3))


def make_cases(m=50, cfd_n=26, cg_n=30_000):
    """[(name, naive_fn, fused_fn)] over paper-scale slab extents."""
    cases = []

    u, v, r = _mg_arrays(m, 1)
    cases.append((
        "mg.resid",
        lambda: oracle._resid_slab_reference(0, m - 2, u, v, r, A),
        lambda: mg._resid_slab(0, m - 2, u, v, r, A),
    ))

    r2, u2, _ = _mg_arrays(m, 2)
    cases.append((
        "mg.psinv",
        lambda: oracle._psinv_slab_reference(0, m - 2, r2, u2, C),
        lambda: mg._psinv_slab(0, m - 2, r2, u2, C),
    ))

    n = cfd_n
    c = CFDConstants(n, n, n, 0.001)
    rng = np.random.default_rng(3)
    uc = 0.1 * rng.standard_normal((n, n, n, 5))
    uc[..., 0] = 1.0 + 0.2 * rng.random((n, n, n))
    uc[..., 4] = 5.0 + rng.random((n, n, n))
    rho_i, us, vs, ws, qs, square = (np.empty((n, n, n)) for _ in range(6))
    oracle.fields_slab_reference(0, n, uc, rho_i, us, vs, ws, qs,
                                 square, None, c)
    forcing = rng.standard_normal((n, n, n, 5))
    rhs_out = np.zeros((n, n, n, 5))
    cases.append((
        "cfd.rhs",
        lambda: oracle.rhs_slab_reference(0, n - 2, uc, rhs_out, forcing,
                                          rho_i, us, vs, ws, qs, square, c),
        lambda: cfd_rhs.rhs_slab(0, n - 2, uc, rhs_out, forcing,
                                 rho_i, us, vs, ws, qs, square, c),
    ))

    rng = np.random.default_rng(4)
    counts = rng.integers(4, 12, size=cg_n)
    rowstr = np.zeros(cg_n + 1, dtype=np.int64)
    rowstr[1:] = np.cumsum(counts)
    nnz = int(rowstr[cg_n])
    colidx = rng.integers(0, cg_n, size=nnz).astype(np.int64)
    am = rng.standard_normal(nnz)
    x = rng.standard_normal(cg_n)
    out = np.empty(cg_n)
    offsets = np.empty(cg_n, dtype=np.int64)
    cg.compute_reduceat_offsets([(0, cg_n)], rowstr, offsets)
    cases.append((
        "cg.matvec",
        lambda: oracle._matvec_slab_reference(0, cg_n, rowstr, colidx, am,
                                              x, out),
        lambda: cg._matvec_slab(0, cg_n, rowstr, colidx, am, x, out,
                                offsets),
    ))

    rng = np.random.default_rng(5)
    a3 = rng.standard_normal((m, m, m))
    out3 = np.zeros((m, m, m))
    cases.append((
        "basic.stencil2",
        lambda: oracle.numpy_stencil2_slab_reference(0, m, a3, out3),
        lambda: basic_ops.numpy_stencil2_slab(0, m, a3, out3),
    ))
    return cases


def _call(fn, fused):
    """One kernel call, opening a new arena generation for fused kernels
    exactly as the dispatch core does before every task execution."""
    if fused:
        worker_arena().next_dispatch()
    fn()


def measure(fn, fused, repeat=5):
    """(bytes_per_call, seconds_per_call) for one kernel variant."""
    _call(fn, fused)  # warm up caches and (for fused) the arena pools
    tracemalloc.start()
    try:
        probe = allocation_probe_start()
        _call(fn, fused)
        alloc_bytes, _ = allocation_probe_stop(probe)
    finally:
        tracemalloc.stop()
    start = time.perf_counter()
    for _ in range(repeat):
        _call(fn, fused)
    seconds = (time.perf_counter() - start) / repeat
    return alloc_bytes, seconds


def run(check=False):
    failures = []
    rows = []
    for name, naive, fused in make_cases():
        naive_bytes, naive_s = measure(naive, fused=False)
        arena = worker_arena()
        fused_bytes, fused_s = measure(fused, fused=True)
        before = arena.stats()
        steady_calls = 10
        for _ in range(steady_calls):
            _call(fused, fused=True)
        after = arena.stats()
        grew = after["allocations"] - before["allocations"]
        ratio = naive_bytes / max(fused_bytes, 1)
        rows.append((name, naive_bytes / 1e6, fused_bytes / 1e6, ratio,
                     naive_s * 1e3, fused_s * 1e3, grew))
        if grew:
            failures.append(
                f"{name}: arena allocated {grew} new buffer(s) over "
                f"{steady_calls} warm calls (steady state must be "
                f"allocation-free)")
        if check and name in GATED and ratio < 5.0:
            failures.append(
                f"{name}: fused kernel allocates only {ratio:.1f}x less "
                f"than the reference (acceptance floor is 5x)")

    header = (f"{'kernel':<15} {'naive MB':>9} {'fused MB':>9} "
              f"{'alloc x':>8} {'naive ms':>9} {'fused ms':>9} {'grew':>5}")
    print(header)
    print("-" * len(header))
    for name, nm, fm, ratio, ns, fs, grew in rows:
        print(f"{name:<15} {nm:>9.2f} {fm:>9.3f} {ratio:>8.0f} "
              f"{ns:>9.2f} {fs:>9.2f} {grew:>5d}")
    stats = worker_arena().stats()
    print(f"\narena: {stats['buffers']} buffers, "
          f"{stats['nbytes'] / 1e6:.1f} MB pooled, "
          f"{stats['allocations']} allocations / {stats['reuses']} reuses "
          f"over {stats['generation']} generations")
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    if check:
        print("\nOK: zero steady-state arena growth; gated kernels "
              ">=5x less allocation than naive")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="CI gate: fail on steady-state arena growth or a gated "
             "kernel allocating less than 5x below its reference")
    args = parser.parse_args(argv)
    return run(check=args.check)


if __name__ == "__main__":
    sys.exit(main())
