"""NPB-Python: the NAS Parallel Benchmarks in Python.

A reproduction of Frumkin, Schultz, Jin & Yan, "Performance and Scalability
of the NAS Parallel Benchmarks in Java" (IPPS 2003).  The suite contains
the three simulated CFD applications (BT, SP, LU) and five kernels (FT, MG,
CG, IS, EP), a serial/threads/process parallel runtime in the paper's
master--worker style, the paper's basic-CFD-operation microbenchmarks, a
calibrated performance model of the paper's five test machines, and a
harness that regenerates every table of the paper's evaluation.

Quickstart
----------
>>> from repro import run_benchmark
>>> result = run_benchmark("CG", "S")
>>> result.verified
True
"""

from repro.core.benchmark import BenchmarkResult, NPBenchmark
from repro.core.registry import available_benchmarks, get_benchmark
from repro.team import make_team

__version__ = "3.0.0"


def run_benchmark(name: str, problem_class: str = "S",
                  backend: str = "serial", nworkers: int = 1,
                  policy=None) -> BenchmarkResult:
    """Run one benchmark end to end and return its result record.

    Parameters
    ----------
    name : benchmark mnemonic (BT, SP, LU, FT, MG, CG, IS, EP)
    problem_class : NPB class letter (S, W, A, B, C)
    backend : "serial", "threads", or "process"
    nworkers : worker count for the parallel backends
    policy : optional :class:`~repro.runtime.dispatch.FaultPolicy`
        (per-dispatch timeout, respawn retries, backoff)
    """
    cls = get_benchmark(name)
    with make_team(backend, nworkers, policy=policy) as team:
        benchmark = cls(problem_class, team)
        return benchmark.run()


__all__ = [
    "run_benchmark",
    "get_benchmark",
    "available_benchmarks",
    "make_team",
    "NPBenchmark",
    "BenchmarkResult",
    "__version__",
]
