"""The EP benchmark: Gaussian pairs by the Marsaglia polar method (ep.f)."""

from __future__ import annotations

import numpy as np

from repro.common.randdp import A_DEFAULT, Randlc, vranlc
from repro.common.verification import VerificationResult
from repro.core.benchmark import NPBenchmark
from repro.core.registry import register
from repro.ep.params import EP_EPSILON, EP_SEED, MK, NQ, ep_params


def _workspace() -> tuple[np.ndarray, np.ndarray]:
    """Buffers for one batch: six float rows of 2**MK and the bins."""
    return np.empty((6, 1 << MK)), np.empty(1 << MK, dtype=np.int64)


def _batch_tallies(batch_index: int,
                   work: tuple[np.ndarray, np.ndarray] | None = None
                   ) -> tuple[float, float, np.ndarray]:
    """Tally one batch of 2**MK pairs: returns (sx, sy, annulus counts).

    Batch ``k`` starts the generator at state ``s * a**(2*nk*k) mod 2**46``
    -- the same jump the Fortran code reaches with its binary-method loop --
    so batches are independent and order-insensitive (the basis of EP's
    embarrassing parallelism).  ``work`` (from :func:`_workspace`) holds
    every intermediate, so a task that reuses it allocates little more
    per batch than the accepted pairs' index.
    """
    nk = 1 << MK
    floats, bins = _workspace() if work is None else work
    uniforms = floats[:2].reshape(-1)
    rng = Randlc(EP_SEED, A_DEFAULT)
    rng.skip(2 * nk * batch_index)
    vranlc(2 * nk, rng.state, rng.a, out=uniforms)
    # x and y as contiguous rows: np.take copies a strided source whole.
    x, y, t, w = floats[2:]
    for row, draws in ((x, uniforms[0::2]), (y, uniforms[1::2])):
        np.multiply(draws, 2.0, out=row)
        row -= 1.0
    np.multiply(x, x, out=t)
    t += np.multiply(y, y, out=w)
    # Indices of t's own elements, so every gather is in range.
    accept = np.flatnonzero(t <= 1.0)
    m = len(accept)
    gx, gy, ta, factor = floats[0, :m], floats[1, :m], w[:m], t[:m]
    np.take(x, accept, out=gx, mode="clip")
    np.take(y, accept, out=gy, mode="clip")
    np.take(t, accept, out=ta, mode="clip")
    np.log(ta, out=factor)
    factor *= -2.0
    factor /= ta
    np.sqrt(factor, out=factor)
    gx *= factor
    gy *= factor
    np.maximum(np.abs(gx, out=ta), np.abs(gy, out=factor), out=ta)
    bins[:m] = ta
    counts = np.bincount(bins[:m], minlength=NQ)
    return float(gx.sum()), float(gy.sum()), counts


def _batch_range(lo: int, hi: int) -> tuple[float, float, np.ndarray]:
    """Worker task: tally batches [lo, hi) in one set of buffers."""
    sx = 0.0
    sy = 0.0
    counts = np.zeros(NQ, dtype=np.int64)
    work = _workspace()
    for k in range(lo, hi):
        bsx, bsy, bcounts = _batch_tallies(k, work)
        sx += bsx
        sy += bsy
        counts += bcounts
    return sx, sy, counts


@register
class EP(NPBenchmark):
    """Embarrassingly Parallel: random-number generation and tabulation."""

    name = "EP"

    def __init__(self, problem_class, team=None):
        super().__init__(problem_class, team)
        self.params = ep_params(self.problem_class)
        self.sx = float("nan")
        self.sy = float("nan")
        self.counts = np.zeros(NQ, dtype=np.int64)

    @property
    def niter(self) -> int:
        return 1

    def _setup(self) -> None:
        # EP has no initialization phase; everything is in the timed region.
        pass

    def _iterate(self) -> None:
        nbatches = 1 << (self.params.m - MK)
        with self.region("tally"):
            partials = self.team.parallel_for(nbatches, _batch_range)
        with self.region("reduce"):
            self.sx = sum(p[0] for p in partials)
            self.sy = sum(p[1] for p in partials)
            self.counts = np.sum([p[2] for p in partials], axis=0)

    def verify(self) -> VerificationResult:
        result = VerificationResult("EP", str(self.problem_class), True)
        result.add("sx", self.sx, self.params.sx_verify, EP_EPSILON)
        result.add("sy", self.sy, self.params.sy_verify, EP_EPSILON)
        return result

    def op_count(self) -> float:
        """ep.f counts the Gaussian pair generation as ~25 flops per pair
        attempt (the official Mop/s normalization uses 2**(m+1))."""
        return 25.0 * (1 << (self.params.m + 1)) / 2.0

    @property
    def gaussian_count(self) -> int:
        """Number of accepted Gaussian pairs (gc in ep.f)."""
        return int(self.counts.sum())
