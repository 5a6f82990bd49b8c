"""IS over message passing: distributed key generation and ranking.

Each rank generates its contiguous block of the key stream by jumping the
LCG (4 draws per key), applies the iteration-dependent key modifications
to the blocks that own the modified global indices, histograms its own
keys, and the histogram is summed with an allreduce -- the communication
pattern of the NPB IS-MPI bucket code with the bucket exchange folded
into the dense-histogram reduction (value-identical, and exact for the
partial verification).
"""

from __future__ import annotations

import numpy as np

from repro.isort.benchmark import create_seq
from repro.isort.params import MAX_ITERATIONS, TEST_ARRAY_SIZE, is_params
from repro.mpi.comm import Communicator, mpi_run
from repro.team.partition import partition_bounds


def _rank_program(comm: Communicator, problem_class: str) -> int:
    params = is_params(problem_class)
    lo, hi = partition_bounds(params.num_keys, comm.size, comm.rank)
    keys = create_seq(hi - lo, params.max_key, start=lo)

    passed = 0
    cumulative = None
    for iteration in range(1, MAX_ITERATIONS + 1):
        # iteration-dependent modifications at global indices
        for index, value in ((iteration, iteration),
                             (iteration + MAX_ITERATIONS,
                              params.max_key - iteration)):
            if lo <= index < hi:
                keys[index - lo] = value
        # spot values live on the owning ranks; share them
        spots = {}
        for i, index in enumerate(params.test_index):
            if lo <= index < hi:
                spots[i] = int(keys[index - lo])
        spots = comm.allreduce(spots, op=lambda a, b: {**a, **b})

        local_hist = np.bincount(keys, minlength=params.max_key)
        hist = comm.allreduce(local_hist, op=lambda a, b: a + b)
        cumulative = np.cumsum(hist)

        for i in range(TEST_ARRAY_SIZE):
            k = spots[i]
            if 0 < k <= params.num_keys - 1:
                rank_of_key = int(cumulative[k - 1])
                offset, sign = params.rank_adjust[i]
                expected = params.test_rank[i] + sign * (iteration + offset)
                if rank_of_key == expected:
                    passed += 1

    # full verification from the final histogram
    counts = np.diff(cumulative, prepend=0)
    if np.all(counts >= 0) and counts.sum() == params.num_keys:
        passed += 1
    return passed


def is_mpi_verify(problem_class: str = "S", nprocs: int = 4) -> bool:
    """True iff the distributed IS passes all 5*iters + 1 checks."""
    results = mpi_run(nprocs, _rank_program, problem_class)
    expected = TEST_ARRAY_SIZE * MAX_ITERATIONS + 1
    return all(r == expected for r in results)
