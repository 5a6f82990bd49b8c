"""The IS benchmark: histogram-based linear-time integer ranking (is.c)."""

from __future__ import annotations

import numpy as np

from repro.common.randdp import A_DEFAULT, Randlc
from repro.common.verification import VerificationResult
from repro.core.benchmark import NPBenchmark
from repro.core.registry import register
from repro.isort.params import (
    IS_SEED,
    MAX_ITERATIONS,
    TEST_ARRAY_SIZE,
    is_params,
)


def create_seq(num_keys: int, max_key: int, seed: int = IS_SEED,
               start: int = 0) -> np.ndarray:
    """Generate keys ``[start, start + num_keys)`` of the key stream
    (create_seq in is.c).

    Each key consumes four successive LCG draws; the key is
    ``int(max_key/4 * (u1+u2+u3+u4))``, giving a binomial-ish (approximately
    Gaussian) distribution over ``[0, max_key)``.  A block starting at
    ``start`` jumps the generator past the ``4 * start`` earlier draws, so
    blocks over any partition concatenate to the whole stream.
    """
    rng = Randlc(seed, A_DEFAULT)
    rng.skip(4 * start)
    sums = rng.batch(4 * num_keys).reshape(num_keys, 4).sum(axis=1)
    return ((max_key // 4) * sums).astype(np.int64)


def _histogram_slab(lo: int, hi: int, keys, max_key: int) -> np.ndarray:
    """Worker task: histogram of the keys in slab [lo, hi).

    Each worker builds a private histogram; the master merges them -- the
    standard parallel counting-sort decomposition the Java version uses.
    """
    return np.bincount(keys[lo:hi], minlength=max_key)


@register
class IS(NPBenchmark):
    """Integer Sort: linear-time ranking via key histogram."""

    name = "IS"

    def __init__(self, problem_class, team=None):
        super().__init__(problem_class, team)
        self.params = is_params(self.problem_class)
        self.passed_verification = 0
        self._cumulative: np.ndarray | None = None

    @property
    def niter(self) -> int:
        return MAX_ITERATIONS

    # ------------------------------------------------------------------ #

    def _setup(self) -> None:
        params = self.params
        self.keys = self.team.shared(params.num_keys, dtype=np.int64)
        self.keys[:] = create_seq(params.num_keys, params.max_key)
        self.passed_verification = 0
        # One untimed ranking (is.c does rank(1) before starting the clock)
        # -- here without the verification side effects, purely as warm-up.
        self._rank(iteration=1, record=False)

    def _rank(self, iteration: int, record: bool = True) -> None:
        """One ranking pass (rank() in is.c)."""
        params = self.params
        keys = self.keys
        # Iteration-dependent modification keeps successive passes distinct.
        keys[iteration] = iteration
        keys[iteration + MAX_ITERATIONS] = params.max_key - iteration
        spot_values = [int(keys[idx]) for idx in params.test_index]

        with self.region("rank"):
            partials = self.team.parallel_for(
                params.num_keys, _histogram_slab, keys, params.max_key
            )
            counts = partials[0]
            for p in partials[1:]:
                counts = counts + p
            cumulative = np.cumsum(counts)
        self._cumulative = cumulative

        if not record:
            return
        # Partial verification: the rank of key k is the number of smaller
        # keys, i.e. cumulative[k-1].
        for i in range(TEST_ARRAY_SIZE):
            k = spot_values[i]
            if 0 < k <= params.num_keys - 1:
                rank = int(cumulative[k - 1])
                offset, sign = params.rank_adjust[i]
                expected = params.test_rank[i] + sign * (iteration + offset)
                if rank == expected:
                    self.passed_verification += 1

    def _iterate(self) -> None:
        for iteration in range(1, MAX_ITERATIONS + 1):
            self._rank(iteration)

    # ------------------------------------------------------------------ #

    def full_verify(self) -> bool:
        """Reconstruct the sorted sequence from the final histogram and
        check it is non-decreasing (full_verify in is.c)."""
        if self._cumulative is None:
            return False
        counts = np.diff(self._cumulative, prepend=0)
        if np.any(counts < 0):
            return False
        sorted_keys = np.repeat(
            np.arange(self.params.max_key, dtype=np.int64), counts
        )
        if len(sorted_keys) != self.params.num_keys:
            return False
        return bool(np.all(np.diff(sorted_keys) >= 0))

    def verify(self) -> VerificationResult:
        result = VerificationResult("IS", str(self.problem_class), True)
        if self.full_verify():
            self.passed_verification += 1
        expected = TEST_ARRAY_SIZE * MAX_ITERATIONS + 1
        result.add("passed_checks", float(self.passed_verification),
                   float(expected), 0.0)
        return result

    def op_count(self) -> float:
        """is.c normalizes Mop/s by ranked keys: niter * num_keys."""
        return float(MAX_ITERATIONS * self.params.num_keys)
