"""The JGF-vs-NPB discrepancy, quantified.

Each JGF kernel is classified into the machine model's operation
categories; the modeled Java/Fortran ratio of the JGF mix on a given JVM
can then be compared with the NPB structured-grid mix on the same JVM --
reproducing the paper's resolution of the Java Grande Group's more
Java-favorable numbers: *the JGF workload mix simply avoids the
regular-stride categories where Fortran compilers win big*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.harness.stats import time_callable
from repro.jgf.series import series_loops, series_numpy
from repro.jgf.sor import sor_loops, sor_numpy
from repro.jgf.sparsematmult import (
    make_sparse_system,
    sparsematmult_loops,
    sparsematmult_numpy,
)
from repro.machines.spec import MachineSpec, OpCategory


@dataclass(frozen=True)
class JGFKernel:
    """A JGF kernel and its operation-category mix for the machine model.

    TRANSCENDENTAL work is modeled with the IRREGULAR ratio: both are
    regimes where compiled regular-stride optimization buys little (the
    time goes to libm or to cache misses, equally for both languages).
    """

    name: str
    op_mix: dict[OpCategory, float]

    def modeled_ratio(self, spec: MachineSpec) -> float:
        return sum(frac * spec.jvm.op_ratio[cat]
                   for cat, frac in self.op_mix.items())


JGF_KERNELS: dict[str, JGFKernel] = {
    # transcendental-library bound
    "series": JGFKernel("series", {OpCategory.IRREGULAR: 0.9,
                                   OpCategory.REDUCTION: 0.1}),
    # 4 loads + 1 store per 5 flops: data movement
    "sor": JGFKernel("sor", {OpCategory.COPY: 0.6,
                             OpCategory.STENCIL: 0.4}),
    # indirect gather/scatter
    "sparsematmult": JGFKernel("sparsematmult",
                               {OpCategory.IRREGULAR: 0.9,
                                OpCategory.REDUCTION: 0.1}),
    # BLAS1 LU: memory bound (the paper's own Table 7 analysis)
    "lufact": JGFKernel("lufact", {OpCategory.COPY: 0.8,
                                   OpCategory.REDUCTION: 0.2}),
}


def jgf_ratio_band(spec: MachineSpec) -> tuple[float, float]:
    """(min, max) modeled Java/Fortran ratio over the JGF kernels."""
    ratios = [k.modeled_ratio(spec) for k in JGF_KERNELS.values()]
    return min(ratios), max(ratios)


def measured_ratios(scale: float = 1.0) -> dict[str, float]:
    """Interpreted/vectorized time ratio per kernel on this host.

    ``scale`` shrinks problem sizes for fast test runs.  (In CPython the
    interpreter overhead applies to transcendental kernels too, unlike a
    JIT; the *modeled* ratios carry the JVM-era comparison, these
    measured ones document the CPython analogue.)
    """
    n_series = max(4, int(20 * scale))
    n_sor = max(64, int(120 * scale))
    n_sparse = max(100, int(2000 * scale))
    grid = np.random.default_rng(5).random((n_sor, n_sor))
    system = make_sparse_system(n_sparse)

    def ratio(loops, vectorized) -> float:
        # min-of-3 like Table 1: a single cold call would charge the
        # NumPy side its one-time warm-up (allocator, ufunc selection)
        return (time_callable(loops, repeat=3).best
                / time_callable(vectorized, repeat=3).best)

    return {
        "series": ratio(lambda: series_loops(n_series),
                        lambda: series_numpy(n_series)),
        "sor": ratio(lambda: sor_loops(grid, 20),
                     lambda: sor_numpy(grid, 20)),
        "sparsematmult": ratio(
            lambda: sparsematmult_loops(*system, iterations=20),
            lambda: sparsematmult_numpy(*system, iterations=20)),
    }
